/**
 * @file
 * Reproduces Figure 10: ResNet-18 ablation sweeping the maximum parallel
 * factor (1..256) against the tile size (2..32), reporting DSP count,
 * BRAM18K count and throughput per point. The paper's observations to
 * check: DSP/memory/throughput all grow with the parallel factor; tiny
 * tiles inflate DSP via address generation; throughput correlates
 * positively with tile size at large parallel factors.
 *
 * Only lower-nn-to-affine, in the prefix, reads the tile size, so a
 * worker keeps one TrialEvaluator per tile value: its first point at a
 * tile builds ResNet-18 and runs the prefix, and every point runs the
 * suffix at its factor as an in-place trial on that module. The tile
 * axis is the grid's slowest, so the exhaustive strategy's visit order
 * keeps each tile's factors together: a serial run compiles 5 prefixes
 * and 25 suffixes. The sweep runs through runStrategySweep at fan-out
 * grain 1, so its one 25-point round gets one worker per point up to
 * HIDA_BENCH_THREADS (the default grain of 64 would run it inline on
 * one thread). A trial equals a fresh compile, so results do not depend
 * on which worker ran which point, and they are printed in (factor,
 * tile) order: identical output at any HIDA_BENCH_THREADS. A failed
 * point drops the worker's evaluators, so the next point rebuilds its
 * prefix. A lost point or worker is fatal: the figure is printed whole
 * or not at all.
 */

#include <cstdio>
#include <map>
#include <memory>

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
    grid.addAxis("tile", {2, 4, 8, 16, 32});
    grid.addAxis("pf", {1, 4, 16, 64, 256});

    std::unique_ptr<SearchStrategy> exhaustive =
        makeStrategy(grid, StrategyOptions());
    SweepSchedule schedule;
    schedule.grain = 1;
    SweepOutcome<CompileResult> outcome = runStrategySweep<CompileResult>(
        grid, *exhaustive,
        [&]() {
            // The worker's evaluators, one per tile value it has met.
            using Evaluators =
                std::map<int64_t, std::unique_ptr<TrialEvaluator>>;
            auto evaluators = std::make_shared<Evaluators>();
            ResilientWorker<CompileResult> worker;
            worker.evaluate = [&device, evaluators](
                                  size_t, const std::vector<int64_t>& vals)
                -> Result<CompileResult> {
                FlowOptions options = optionsFor(Flow::kHida);
                options.tileSize = vals[0];
                std::unique_ptr<TrialEvaluator>& evaluator =
                    (*evaluators)[vals[0]];
                if (!evaluator)
                    evaluator = std::make_unique<TrialEvaluator>(
                        buildDnnModel("ResNet-18", nullptr), options,
                        device);
                options.maxParallelFactor = vals[1];
                return evaluator->run(options);
            };
            worker.recover = [evaluators]() { evaluators->clear(); };
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
    const GridAxis& tiles = grid.axis(0);
    const GridAxis& pfs = grid.axis(1);
    for (size_t p = 0; p < pfs.values.size(); ++p) {
        for (size_t t = 0; t < tiles.values.size(); ++t) {
            const CompileResult& result = outcome.results[grid.encode({t, p})];
            std::printf("%8ld %6ld %8ld %8ld %12.2f\n", pfs.values[p],
                        tiles.values[t], result.qor.res.dsp,
                        result.qor.res.bram18k,
                        result.qor.throughput(device));
        }
    }
    return 0;
}
