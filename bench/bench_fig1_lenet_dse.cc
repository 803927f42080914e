/**
 * @file
 * Reproduces the Section 2 LeNet case study: Figure 1 (exhaustive design
 * space in the throughput-resource plane, with and without dataflow) and
 * Table 2 (expert vs exhaustive vs HIDA on a PYNQ-Z2).
 *
 * The exhaustive sweep walks the exact factor grid of Table 1 — BATCH x
 * KPF1 x (KPF2,CPF2) x (KPF3,CPF3) — under both dataflow and non-dataflow
 * settings (5*4*5*4*6*5 * 2 = 24,000 points, matching the paper's
 * "more than 2.4e4 points"). Each (mode, batch) prototype is lowered
 * once; the per-factor grid is then swept by the sharded DSE engine
 * (src/dse/): every worker deep-clones the prototype, re-applies the
 * factors per point, re-partitions the arrays and re-estimates QoR with
 * its own estimator, and results are merged in grid order — so stdout is
 * bit-identical to the serial sweep at any HIDA_BENCH_THREADS.
 *
 * The sweep runs on the resilient engine: prototypes are verified up
 * front, a failed point (e.g. under HIDA_FAULT_INJECT=kind:seed:rate)
 * is reported on stderr and excluded from the feasible set instead of
 * killing the run, and two env knobs exercise the robustness paths:
 *   HIDA_SWEEP_JOURNAL=<prefix>   checkpoint each (mode, batch) sweep to
 *                                 <prefix>_{df|nodf}_b<batch>.jrnl and
 *                                 resume from it on restart;
 *   HIDA_SWEEP_DEADLINE_MS=<ms>   wall-clock budget per sweep.
 * SIGINT/SIGTERM trip the process shutdown token (src/service/
 * shutdown.h): the sweep stops between points, flushes its journal and
 * the bench exits 128+sig — completed points are never lost mid-write.
 * On a clean, unlimited run stdout is byte-identical to the fault-free
 * engine (the bench.sh serial-vs-sharded sha gate proves it).
 *
 * The sweep itself is strategy-driven (src/dse/strategy.h):
 *   HIDA_DSE_STRATEGY=exhaustive|random|lhs|evolve   search strategy
 *                                 (default exhaustive — byte-identical
 *                                 stdout to the pre-strategy bench);
 *   HIDA_DSE_SEED=<n>             root of every sampling decision;
 *   HIDA_DSE_BUDGET=<n>           points per (mode, batch) sweep a
 *                                 sampling strategy may propose
 *                                 (default 10% of the grid);
 *   HIDA_DSE_STATS=<path>         write a JSON stats record (points
 *                                 proposed/evaluated, Pareto coverage
 *                                 vs the exhaustive reference, cache
 *                                 hit rate) for bench.sh to fold into
 *                                 BENCH_dse.json.
 * The exhaustive strategy walks the grid in Gray-code order, so
 * consecutive points mutate one directive (maximal estimator memo
 * reuse). A sampling run additionally sweeps the exhaustive reference
 * front per (mode, batch) to report *true* Pareto coverage — the
 * acceptance metric (evolve: >= 95% coverage at <= 10% of the points).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/dialect/affine/affine_ops.h"
#include "src/driver/driver.h"
#include "src/dse/strategy.h"
#include "src/dse/sweep.h"
#include "src/models/dnn_models.h"
#include "src/service/shutdown.h"
#include "src/support/env.h"
#include "src/transforms/passes.h"

using namespace hida;

namespace {

struct Point {
    double util = 0.0;       ///< max(BRAM%, DSP%, LUT%).
    double throughput = 0.0; ///< images/s (batch-adjusted).
    bool dataflow = false;
};

/** Set the kpf/cpf unroll factors of layer @p seq (Table 2 fixed points;
 * the sweep itself goes through the grid-driven applyPoint). */
void
setLayerFactors(ModuleOp module, int64_t seq, int64_t kpf, int64_t cpf)
{
    module.op()->walk([&](Operation* op) {
        if (!isa<ForOp>(op) || op->intAttrOr(ForOp::layerSeqId(), -1) != seq)
            return;
        if (op->hasAttr(ForOp::kpfLoopId()))
            ForOp(op).setUnrollFactor(
                std::min<int64_t>(kpf, ForOp(op).tripCount()));
        if (op->hasAttr(ForOp::cpfLoopId()))
            ForOp(op).setUnrollFactor(
                std::min<int64_t>(cpf, ForOp(op).tripCount()));
    });
}

/** The Table 1 factor grid (KPF/CPF per layer; CPF1 is fixed at 1). */
DesignPointGrid
factorGrid()
{
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    return grid;
}

/** Wall-clock budget per sweep from HIDA_SWEEP_DEADLINE_MS (0: none).
 * envDouble fatals on malformed values — the old atof parse silently
 * disabled the deadline on garbage like "30s". */
double
sweepDeadlineSeconds()
{
    return envDouble("HIDA_SWEEP_DEADLINE_MS", 0.0) / 1000.0;
}

/** Upper-convex (Pareto) filter: max throughput per utilization budget. */
std::vector<Point>
paretoFront(std::vector<Point> points)
{
    std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
        return a.util < b.util;
    });
    std::vector<Point> front;
    double best = 0.0;
    for (const Point& p : points) {
        if (p.throughput > best) {
            best = p.throughput;
            front.push_back(p);
        }
    }
    return front;
}

} // namespace

int
main()
{
    // SIGINT/SIGTERM trip the process shutdown token, which every sweep
    // below observes between points: the interrupted sweep flushes its
    // journal on the way out instead of dying mid-write, so completed
    // points survive to the next run.
    installShutdownHandlers();
    TargetDevice device = TargetDevice::pynqZ2();
    const std::vector<int64_t> batches = {1, 5, 10, 15, 20};
    const DesignPointGrid grid = factorGrid();
    const unsigned threads = dseThreadCount();

    // Strategy selection: HIDA_DSE_STRATEGY/SEED/BUDGET (an unknown
    // strategy is a user error — exit kFatalExitCode, never a silent
    // exhaustive fallback). The feasibility limit feeds evolve's parent
    // filter: over-utilized points never breed.
    StrategyOptions strategy_options = strategyOptionsFromEnv();
    strategy_options.costLimit = 1.05;
    const bool sampled =
        strategy_options.kind != StrategyKind::kExhaustive;

    const char* journal_prefix = std::getenv("HIDA_SWEEP_JOURNAL");
    const double deadline_seconds = sweepDeadlineSeconds();
    size_t total_failures = 0, total_restored = 0;
    bool any_stopped = false;
    SweepStats total_stats;
    // True-coverage accounting vs the per-(mode, batch) exhaustive
    // reference fronts (sampling runs only).
    size_t front_covered = 0, front_total = 0;

    std::vector<Point> points;
    for (bool dataflow : {true, false}) {
        for (int64_t batch : batches) {
            // Lower once per (mode, batch); the sharded sweep re-applies
            // factors per point on per-worker clones of this prototype.
            OwnedModule module = buildLeNet(batch);
            FlowOptions options = optionsFor(dataflow ? Flow::kHida
                                                      : Flow::kVitis);
            options.enableTiling = false;  // LeNet fits on-chip (PYNQ)
            options.enableParallelization = false;
            compile(module.get(), options, device);

            // A broken prototype fails the run up front through the
            // user-error path — never an abort in some sweep worker.
            if (auto diag = verifySweepPrototype(module.get())) {
                emitDiagnostic(*diag);
                HIDA_FATAL("sweep prototype rejected: ", diag->message);
            }

            FlowOptions partition_options = options;
            partition_options.enableParallelization = true;

            SweepLimits limits;
            limits.deadlineSeconds = deadline_seconds;
            limits.cancel = &processShutdownToken();
            SweepJournal journal;
            if (journal_prefix != nullptr && *journal_prefix != '\0') {
                std::string path =
                    std::string(journal_prefix) +
                    (dataflow ? "_df" : "_nodf") + "_b" +
                    std::to_string(batch) + ".jrnl";
                if (auto diag = journal.open(path, grid.contentHash(),
                                             sizeof(Point)))
                    emitDiagnostic(*diag);
                limits.journal = &journal;
            }

            std::function<ResilientWorker<Point>()> factory =
                [&grid, &module, &partition_options, &device, batch]() {
                    auto w = std::make_shared<CloneSweepWorker>(
                        module.get(),
                        createArrayPartitionPass(partition_options), device);
                    ResilientWorker<Point> worker;
                    worker.evaluate =
                        [w, &grid, &device, batch](
                            size_t,
                            const std::vector<int64_t>& vals) -> Result<Point> {
                        Result<DesignQor> qor = w->evaluateChecked(grid, vals);
                        if (!qor.ok())
                            return qor.takeDiag();
                        Point point;
                        point.util = qor.value().res.utilization(device);
                        point.throughput =
                            qor.value().throughput(device) * batch;
                        return point;
                    };
                    worker.recover = [w]() { w->rebuild(); };
                    worker.cacheStats = [w]() {
                        return w->estimator.cacheStats();
                    };
                    return worker;
                };

            std::unique_ptr<SearchStrategy> strategy =
                makeStrategy(grid, strategy_options);
            SweepOutcome<Point> outcome = runStrategySweep<Point>(
                grid, *strategy, factory,
                [](size_t index, const Point& p) {
                    return ParetoSample{index, p.util, p.throughput};
                },
                threads, limits);

            total_failures += outcome.failures.size();
            total_restored += outcome.stats.restored;
            total_stats.batches += outcome.stats.batches;
            total_stats.proposed += outcome.stats.proposed;
            total_stats.evaluated += outcome.stats.evaluated;
            total_stats.restored += outcome.stats.restored;
            total_stats.cache += outcome.stats.cache;
            if (outcome.stats.stopped) {
                any_stopped = true;
                total_stats.stopped = true;
                if (outcome.stats.stopReason)
                    emitDiagnostic(*outcome.stats.stopReason);
            }

            // Interrupted: the engine already flushed the journal on
            // its way out; exit with the conventional signal code
            // instead of burning the remaining configurations.
            if (processShutdownToken().cancelled()) {
                inform("interrupted: journal flushed; exiting");
                int sig = shutdownSignal();
                return sig != 0 ? shutdownExitCode(sig) : 1;
            }

            // Deterministic merge: grid order, same filter as the serial
            // sweep. Failed or unreached points are simply not feasible.
            for (size_t i = 0; i < outcome.results.size(); ++i) {
                if (!outcome.completed[i])
                    continue;
                Point point = outcome.results[i];
                point.dataflow = dataflow;
                if (point.util <= 1.05)
                    points.push_back(point);
            }

            // Sampling runs report *true* Pareto coverage: sweep the
            // exhaustive reference front of this (mode, batch) config
            // and count how much of it the sample dominates-or-equals.
            if (sampled) {
                std::unique_ptr<SearchStrategy> exhaustive =
                    makeStrategy(grid, StrategyOptions());
                SweepOutcome<Point> reference = runStrategySweep<Point>(
                    grid, *exhaustive, factory, nullptr, threads);
                std::vector<ParetoSample> feasible;
                for (size_t i = 0; i < reference.results.size(); ++i) {
                    if (!reference.completed[i])
                        continue;
                    const Point& p = reference.results[i];
                    if (p.util <= 1.05)
                        feasible.push_back({i, p.util, p.throughput});
                }
                std::vector<ParetoSample> ref_front =
                    paretoFrontOf(std::move(feasible));
                ParetoArchive found;
                for (size_t i = 0; i < outcome.results.size(); ++i) {
                    if (!outcome.completed[i])
                        continue;
                    const Point& p = outcome.results[i];
                    if (p.util <= 1.05)
                        found.insert({i, p.util, p.throughput});
                }
                size_t covered_here = 0;
                for (const ParetoSample& s : ref_front)
                    if (found.covers(s))
                        ++covered_here;
                front_covered += covered_here;
                front_total += ref_front.size();
                inform(strCat("reference front (",
                              dataflow ? "df" : "nodf", " b", batch,
                              "): ", covered_here, "/", ref_front.size(),
                              " points covered"));
            }
        }
    }
    if (total_failures > 0 || total_restored > 0 || any_stopped)
        inform(strCat("resilient sweep: ", total_failures,
                      " failed point(s), ", total_restored,
                      " restored from journal",
                      any_stopped ? ", stopped before completion" : ""));

    const double coverage_pct =
        front_total == 0
            ? 100.0
            : 100.0 * static_cast<double>(front_covered) /
                  static_cast<double>(front_total);
    // Sampling summary on stdout only for sampling runs: the default
    // exhaustive stdout stays byte-identical to the pre-strategy bench
    // (the bench.sh output_sha256 gate depends on it).
    if (sampled) {
        std::printf("DSE strategy %s (seed %llu): proposed %zu of %zu "
                    "points, evaluated %zu, Pareto coverage %.1f%%\n",
                    strategyKindName(strategy_options.kind).data(),
                    static_cast<unsigned long long>(strategy_options.seed),
                    total_stats.proposed,
                    grid.size() * 2 * batches.size(), total_stats.evaluated,
                    coverage_pct);
        // The memo hit rate depends on how points land on workers, so
        // it varies with HIDA_BENCH_THREADS — keep it off stdout, which
        // must stay bit-identical for a fixed seed at any thread count.
        inform(strCat("estimator memo hit rate ",
                      static_cast<size_t>(
                          total_stats.cache.memoHitRate() * 1000.0),
                      "/1000"));
    }

    // Machine-readable stats for bench.sh / BENCH_dse.json.
    if (const char* stats_path = std::getenv("HIDA_DSE_STATS")) {
        if (*stats_path != '\0') {
            std::FILE* f = std::fopen(stats_path, "w");
            if (f == nullptr) {
                HIDA_FATAL("cannot write HIDA_DSE_STATS file '", stats_path,
                           "'");
            }
            std::fprintf(
                f,
                "{\n"
                "  \"strategy\": \"%s\",\n"
                "  \"seed\": %llu,\n"
                "  \"grid_points\": %zu,\n"
                "  \"points_proposed\": %zu,\n"
                "  \"points_evaluated\": %zu,\n"
                "  \"points_restored\": %zu,\n"
                "  \"batches\": %zu,\n"
                "  \"pareto_coverage_pct\": %.2f,\n"
                "  \"cache_hit_rate_pct\": %.2f,\n"
                "  \"stopped\": %s\n"
                "}\n",
                strategyKindName(strategy_options.kind).data(),
                static_cast<unsigned long long>(strategy_options.seed),
                grid.size() * 2 * batches.size(), total_stats.proposed,
                total_stats.evaluated, total_stats.restored,
                total_stats.batches, coverage_pct,
                total_stats.cache.memoHitRate() * 100.0,
                total_stats.stopped ? "true" : "false");
            std::fclose(f);
        }
    }

    std::printf("Figure 1: LeNet exhaustive design space (PYNQ-Z2), "
                "%zu feasible of 24000 points\n", points.size());
    std::vector<Point> df_points, nodf_points;
    for (const Point& p : points)
        (p.dataflow ? df_points : nodf_points).push_back(p);

    auto print_front = [](const char* name, const std::vector<Point>& front) {
        std::printf("%s Pareto front (util%%, images/s):\n", name);
        for (const Point& p : front)
            std::printf("  %5.1f%% %10.1f\n", p.util * 100.0, p.throughput);
    };
    std::vector<Point> df_front = paretoFront(df_points);
    std::vector<Point> nodf_front = paretoFront(nodf_points);
    print_front("w/ dataflow", df_front);
    print_front("w/o dataflow", nodf_front);

    // Headline ratios of Figure 1.
    double best_df = 0.0, best_nodf = 0.0, worst_df = 1e30;
    for (const Point& p : df_points) {
        best_df = std::max(best_df, p.throughput);
        worst_df = std::min(worst_df, p.throughput);
    }
    for (const Point& p : nodf_points)
        best_nodf = std::max(best_nodf, p.throughput);
    std::printf("\nBest dataflow / best non-dataflow: %.2fx (paper: 3.13x)\n",
                best_df / std::max(best_nodf, 1e-9));
    std::printf("Best non-dataflow / worst dataflow: %.2fx (paper: 3.83x)\n",
                best_nodf / std::max(worst_df, 1e-9));

    // ---- Table 2 ----
    // Expert design: the heuristic hand-tuned configuration (mid-grid
    // intensity-guided factors at batch 10 with dataflow).
    double expert = 0.0, expert_util = 0.0;
    {
        OwnedModule module = buildLeNet(10);
        FlowOptions options = optionsFor(Flow::kHida);
        options.enableTiling = false;
        options.enableParallelization = false;
        compile(module.get(), options, device);
        setLayerFactors(module.get(), 1, 3, 1);
        setLayerFactors(module.get(), 2, 8, 3);
        setLayerFactors(module.get(), 3, 6, 8);
        FuncOp func = topFunc(module.get());
        FlowOptions partition_options = options;
        partition_options.enableParallelization = true;
        createArrayPartitionPass(partition_options)->runOnModule(module.get());
        QorEstimator estimator(device);
        DesignQor qor = estimator.estimateFunc(func);
        expert = qor.throughput(device) * 10;
        expert_util = qor.res.utilization(device);
    }
    // HIDA design: fully automated flow (options untouched).
    CompileResult hida = compileAutoTuned(
        [&]() { return buildLeNet(10); },
        [] {
            FlowOptions o = optionsFor(Flow::kHida);
            o.enableTiling = false;
            return o;
        }(),
        device);

    std::printf("\nTable 2: LeNet evaluation (images/s)\n");
    std::printf("%-14s %12s %12s %12s\n", "", "Expert", "Exhaustive", "HIDA");
    std::printf("%-14s %11.1f%% %11.1f%% %11.1f%%\n", "Resource util",
                expert_util * 100.0,
                df_front.empty() ? 0.0 : df_front.back().util * 100.0,
                hida.overload * 100.0);
    std::printf("%-14s %12.1f %12.1f %12.1f\n", "Throughput", expert,
                best_df, hida.effectiveThroughput * 10.0);
    std::printf("(paper: 41.6k / 49.9k / 53.2k images/s at 95.5/99.2/95.0%% "
                "util; develop cycle 40h / 210h / 9.9min)\n");
    return 0;
}
