/**
 * @file
 * Reproduces Figure 11: the IA/CA parallelization ablation on ResNet-18.
 * Four arms (IA+CA, IA-only, CA-only, naive) swept over the maximum
 * parallel factor; reports DSP, BRAM and effective throughput. The paper's
 * headline: only IA+CA keeps scaling — at PF 64 the other arms fall back
 * to flawed (over-subscribed, misaligned) designs; where all arms work,
 * IA+CA spends several-fold less DSP/BRAM for the same throughput.
 *
 * The arms and the factor are read only by parallelize, in the suffix,
 * so a worker keeps one TrialEvaluator: its first point builds ResNet-18
 * and runs the prefix, and every point runs the suffix at its arm and
 * factor as an in-place trial on that module. A serial run compiles one
 * prefix and 20 suffixes. The sweep is the exhaustive strategy over the
 * (arm, PF) grid through runStrategySweep at fan-out grain 1 (its 20
 * points get one worker each up to HIDA_BENCH_THREADS; the default grain
 * of 64 would run them inline on one thread). A trial equals a fresh
 * compile, so results do not depend on which worker ran which point;
 * they print in grid order, so the output is identical at any
 * HIDA_BENCH_THREADS. A failed point drops the worker's evaluator, so
 * the next point rebuilds its prefix. A lost point or worker is fatal:
 * the figure is printed whole or not at all.
 */

#include <cstdio>
#include <iterator>
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
    struct Arm {
        const char* name;
        bool ia, ca;
    };
    const Arm arms[] = {{"IA+CA", true, true},
                        {"IA", true, false},
                        {"CA", false, true},
                        {"Naive", false, false}};
    DesignPointGrid grid;
    grid.addAxis("arm", {0, 1, 2, 3});
    grid.addAxis("pf", {1, 4, 16, 64, 256});
    // The arm axis indexes arms[]; keep the two in lockstep.
    HIDA_ASSERT(grid.axis(0).values.size() == std::size(arms),
                "arm axis and arms[] diverged");

    std::unique_ptr<SearchStrategy> exhaustive =
        makeStrategy(grid, StrategyOptions());
    SweepSchedule schedule;
    schedule.grain = 1;
    SweepOutcome<CompileResult> outcome = runStrategySweep<CompileResult>(
        grid, *exhaustive,
        [&]() {
            auto evaluator =
                std::make_shared<std::unique_ptr<TrialEvaluator>>();
            ResilientWorker<CompileResult> worker;
            worker.evaluate = [&device, &arms, evaluator](
                                  size_t, const std::vector<int64_t>& vals)
                -> Result<CompileResult> {
                FlowOptions options = optionsFor(Flow::kHida);
                if (!*evaluator)
                    *evaluator = std::make_unique<TrialEvaluator>(
                        buildDnnModel("ResNet-18", nullptr), options,
                        device);
                options.maxParallelFactor = vals[1];
                const Arm& arm = arms[vals[0]];
                options.strategy = {arm.ia, arm.ca};
                return (*evaluator)->run(options);
            };
            worker.recover = [evaluator]() { evaluator->reset(); };
            return worker;
        },
        nullptr, dseThreadCount(), SweepLimits(), schedule);
    if (!outcome.allCompleted() || !outcome.stats.workerFailures.empty())
        HIDA_FATAL("Figure 11 sweep lost ", outcome.failures.size(),
                   " point(s) and ", outcome.stats.workerFailures.size(),
                   " worker(s)");

    std::printf("Figure 11: ResNet-18 IA/CA ablation (VU9P one SLR)\n");
    std::printf("%-7s %6s %8s %8s %14s %10s\n", "Arm", "PF", "DSP", "BRAM",
                "EffThr(smp/s)", "Overload");
    std::vector<int64_t> vals;
    for (size_t i = 0; i < grid.size(); ++i) {
        grid.decode(i, vals);
        const Arm& arm = arms[vals[0]];
        const CompileResult& result = outcome.results[i];
        std::printf("%-7s %6ld %8ld %8ld %14.2f %9.2fx\n", arm.name, vals[1],
                    result.qor.res.dsp, result.qor.res.bram18k,
                    result.effectiveThroughput, result.overload);
        if (vals[1] == 256)
            std::printf("\n");
    }
    return 0;
}
