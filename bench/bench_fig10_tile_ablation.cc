/**
 * @file
 * Reproduces Figure 10: ResNet-18 ablation sweeping the maximum parallel
 * factor (1..256) against the tile size (2..32), reporting DSP count,
 * BRAM18K count and throughput per point. The paper's observations to
 * check: DSP/memory/throughput all grow with the parallel factor; tiny
 * tiles inflate DSP via address generation; throughput correlates
 * positively with tile size at large parallel factors.
 *
 * Each point is an independent full compile, so the sweep is the
 * exhaustive strategy through runStrategySweep at fan-out grain 1: its
 * one 25-point round gets one worker per point up to
 * HIDA_BENCH_THREADS (the default grain of 64 would run it inline on one
 * thread), and every worker builds and compiles its own modules on its
 * own thread. Results are printed in grid order — identical output at
 * any HIDA_BENCH_THREADS. A lost point or worker is fatal: the figure is
 * printed whole or not at all.
 */

#include <cstdio>

#include "src/driver/driver.h"
#include "src/dse/strategy.h"
#include "src/models/dnn_models.h"
#include "src/support/diagnostics.h"

using namespace hida;

int
main()
{
    TargetDevice device = TargetDevice::vu9pSlr();
    DesignPointGrid grid;
    grid.addAxis("pf", {1, 4, 16, 64, 256});
    grid.addAxis("tile", {2, 4, 8, 16, 32});

    std::unique_ptr<SearchStrategy> exhaustive =
        makeStrategy(grid, StrategyOptions());
    SweepSchedule schedule;
    schedule.grain = 1;
    SweepOutcome<CompileResult> outcome = runStrategySweep<CompileResult>(
        grid, *exhaustive,
        [&]() {
            ResilientWorker<CompileResult> worker;
            worker.evaluate = [&device](size_t,
                                        const std::vector<int64_t>& vals)
                -> Result<CompileResult> {
                OwnedModule module = buildDnnModel("ResNet-18", nullptr);
                FlowOptions options = optionsFor(Flow::kHida);
                options.maxParallelFactor = vals[0];
                options.tileSize = vals[1];
                return compile(module.get(), options, device);
            };
            return worker;
        },
        nullptr, dseThreadCount(), SweepLimits(), schedule);
    if (!outcome.allCompleted() || !outcome.stats.workerFailures.empty())
        HIDA_FATAL("Figure 10 sweep lost ", outcome.failures.size(),
                   " point(s) and ", outcome.stats.workerFailures.size(),
                   " worker(s)");

    std::printf("Figure 10: ResNet-18 parallel factor x tile size ablation "
                "(VU9P one SLR)\n");
    std::printf("%8s %6s %8s %8s %12s\n", "PF", "Tile", "DSP", "BRAM",
                "Thr(smp/s)");
    std::vector<int64_t> vals;
    for (size_t i = 0; i < grid.size(); ++i) {
        grid.decode(i, vals);
        const CompileResult& result = outcome.results[i];
        std::printf("%8ld %6ld %8ld %8ld %12.2f\n", vals[0], vals[1],
                    result.qor.res.dsp, result.qor.res.bram18k,
                    result.qor.throughput(device));
    }
    return 0;
}
