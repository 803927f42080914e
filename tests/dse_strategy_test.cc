/**
 * @file
 * Tests for the DSE strategy layer (src/dse/strategy.h, src/dse/pareto.h):
 *
 *  - ParetoArchive vs the brute-force oracle: the incrementally
 *    maintained front must contain exactly the non-dominated samples
 *    (exact objective ties between distinct indices all kept).
 *  - LHS axis coverage: every value of every multi-valued axis appears
 *    in the sample, proportionally often.
 *  - Seed determinism: a fixed HIDA_DSE_SEED reproduces the identical
 *    evolve search — same proposals, same results — at 1, 2 and 4
 *    workers (randomness is keyed on (seed, iteration, counter), never
 *    a thread id or completion order).
 *  - Exhaustive sweeps: one batch of every point, the workers' cache
 *    counters summed, and each worker's retire hook run on the thread
 *    that created it.
 *  - StrategyWorkerPool: a round below two fan-out grains runs on the
 *    calling thread alone, larger rounds wake lazily spawned helpers (at
 *    grain 1, one per position), and a worker whose init throws becomes
 *    one kWorkerFailed diagnostic (stealing survivors still finish every
 *    point).
 *  - Cross-thread determinism on the full fig1 grid, where rounds are
 *    large enough to fan out: exhaustive and random sweeps at 1/2/4
 *    threads x static/steal, and the exhaustive sweep in row-major
 *    order, are bit-identical to the serial gray run.
 *  - Evolve acceptance: on the full fig1 LeNet factor grid (2400
 *    points per mode/batch config), evolve at the default pinned seed
 *    recovers >= 95% of the exhaustive Pareto front spending <= 10% of
 *    the points, and its neighbor-stepping proposals hit the warm
 *    node/schedule caches measurably more often than uniform random
 *    sampling (QorEstimator::cacheStats()).
 *  - Env parsing: an unknown HIDA_DSE_STRATEGY is a user error —
 *    exit kFatalExitCode (65), never a silent exhaustive fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/pareto.h"
#include "src/dse/strategy.h"
#include "src/estimator/qor.h"
#include "src/models/dnn_models.h"
#include "src/transforms/passes.h"

namespace hida {
namespace {

//===----------------------------------------------------------------------===//
// ParetoArchive
//===----------------------------------------------------------------------===//

/** Deterministic pseudo-random doubles for archive stress inputs. */
double
pseudo(uint64_t& state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((state >> 33) % 1000) / 100.0;
}

TEST(ParetoArchiveTest, MatchesBruteForceOracle)
{
    uint64_t state = 12345;
    std::vector<ParetoSample> samples;
    for (size_t i = 0; i < 400; ++i)
        // Coarse objective lattice so duplicates and ties occur often.
        samples.push_back({i, pseudo(state), pseudo(state)});

    ParetoArchive archive;
    for (const ParetoSample& s : samples)
        archive.insert(s);

    // Oracle: every sample no other sample dominates.
    std::vector<ParetoSample> oracle;
    for (const ParetoSample& s : samples) {
        bool dominated = false;
        for (const ParetoSample& o : samples)
            if (dominates(o, s)) {
                dominated = true;
                break;
            }
        if (!dominated)
            oracle.push_back(s);
    }

    // The archive holds exactly the non-dominated samples: exact
    // objective ties between distinct indices are all kept.
    ASSERT_EQ(archive.size(), oracle.size());
    std::set<size_t> archived;
    for (const ParetoSample& s : archive.samples())
        archived.insert(s.index);
    for (const ParetoSample& s : oracle)
        EXPECT_TRUE(archived.count(s.index))
            << "oracle front index " << s.index << " missing";

    // samples() is sorted by (cost, value, index) — deterministic
    // regardless of insertion order.
    for (size_t i = 1; i < archive.samples().size(); ++i) {
        const ParetoSample& a = archive.samples()[i - 1];
        const ParetoSample& b = archive.samples()[i];
        EXPECT_TRUE(a.cost < b.cost ||
                    (a.cost == b.cost && a.value < b.value) ||
                    (a.cost == b.cost && a.value == b.value &&
                     a.index < b.index));
    }

    // paretoFrontOf collapses exact duplicate objectives to the first
    // occurrence, so it is never larger than the tie-keeping archive.
    std::vector<ParetoSample> collapsed = paretoFrontOf(samples);
    EXPECT_LE(collapsed.size(), archive.size());
    for (const ParetoSample& s : collapsed)
        EXPECT_TRUE(archive.covers(s));
}

TEST(ParetoArchiveTest, TiesKeptDuplicatesRejectedDominatedPruned)
{
    ParetoArchive archive;
    EXPECT_TRUE(archive.insert({0, 1.0, 1.0}));
    // Exact objective tie at a distinct index joins the front.
    EXPECT_TRUE(archive.insert({1, 1.0, 1.0}));
    // Re-offering an archived point is rejected.
    EXPECT_FALSE(archive.insert({0, 1.0, 1.0}));
    EXPECT_EQ(archive.size(), 2u);
    // A strictly dominating newcomer prunes the whole tie group.
    EXPECT_TRUE(archive.insert({2, 0.5, 2.0}));
    ASSERT_EQ(archive.size(), 1u);
    EXPECT_EQ(archive.samples()[0].index, 2u);
    // A dominated offer never joins.
    EXPECT_FALSE(archive.insert({3, 0.6, 1.5}));
    // Incomparable points coexist.
    EXPECT_TRUE(archive.insert({4, 0.4, 1.0}));
    EXPECT_EQ(archive.size(), 2u);
    EXPECT_TRUE(archive.covers({5, 0.5, 2.0}));
    EXPECT_FALSE(archive.covers({5, 0.3, 2.0}));
}

//===----------------------------------------------------------------------===//
// Sampling strategies on a synthetic grid (no compiler in the loop)
//===----------------------------------------------------------------------===//

DesignPointGrid
syntheticGrid()
{
    DesignPointGrid grid;
    grid.addAxis("a", {1, 2, 3, 4});
    grid.addAxis("b", {1});  // Degenerate axis: nothing to stratify.
    grid.addAxis("c", {10, 20, 30});
    grid.addAxis("d", {0, 1, 2, 3, 4, 5});
    return grid;
}

/** Drain @p strategy without feedback; returns all proposed indices. */
std::vector<size_t>
drain(SearchStrategy& strategy)
{
    std::vector<size_t> all, batch;
    for (;;) {
        batch.clear();
        strategy.propose(batch);
        if (batch.empty())
            break;
        std::vector<StrategyResult> feedback;
        for (size_t i : batch)
            feedback.push_back({i, false, 0.0, 0.0});
        strategy.consume(feedback);
        all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
}

TEST(LhsTest, CoversEveryAxisValueProportionally)
{
    DesignPointGrid grid = syntheticGrid();
    StrategyOptions options;
    options.kind = StrategyKind::kLhs;
    options.seed = 9;
    options.budget = 36;  // A multiple of every axis size (4, 3, 6).
    std::unique_ptr<SearchStrategy> lhs = makeStrategy(grid, options);
    std::vector<size_t> proposed = drain(*lhs);
    ASSERT_EQ(proposed.size(), options.budget);

    // No repeats.
    std::set<size_t> unique(proposed.begin(), proposed.end());
    EXPECT_EQ(unique.size(), proposed.size());

    // Latin-hypercube stratification: over 36 rows every value of a
    // 4-value axis is drawn 9 times, of a 3-value axis 12 times, of a
    // 6-value axis 6 times. Collisions with already-visited points are
    // re-drawn uniformly, so allow a generous tolerance — the property
    // that matters is "no axis value is starved or flooded".
    std::vector<int64_t> vals;
    for (size_t axis = 0; axis < grid.numAxes(); ++axis) {
        const std::vector<int64_t>& values = grid.axis(axis).values;
        if (values.size() < 2)
            continue;
        std::map<int64_t, size_t> counts;
        for (size_t idx : proposed) {
            grid.decode(idx, vals);
            ++counts[vals[axis]];
        }
        const size_t expect = options.budget / values.size();
        for (int64_t v : values) {
            ASSERT_TRUE(counts.count(v))
                << "axis " << axis << " value " << v << " never sampled";
            EXPECT_GE(counts[v], expect / 2);
            EXPECT_LE(counts[v], expect * 2);
        }
    }
}

TEST(RandomTest, BudgetedUniqueInRange)
{
    DesignPointGrid grid = syntheticGrid();
    StrategyOptions options;
    options.kind = StrategyKind::kRandom;
    options.seed = 4;
    options.budget = 30;
    std::unique_ptr<SearchStrategy> random = makeStrategy(grid, options);
    std::vector<size_t> proposed = drain(*random);
    ASSERT_EQ(proposed.size(), 30u);
    std::set<size_t> unique(proposed.begin(), proposed.end());
    EXPECT_EQ(unique.size(), 30u);
    for (size_t i : proposed)
        EXPECT_LT(i, grid.size());

    // Same seed, same draw; different seed, different draw.
    std::unique_ptr<SearchStrategy> again = makeStrategy(grid, options);
    EXPECT_EQ(drain(*again), proposed);
    options.seed = 5;
    std::unique_ptr<SearchStrategy> other = makeStrategy(grid, options);
    EXPECT_NE(drain(*other), proposed);
}

TEST(ExhaustiveTest, ProposesWholeGridOnce)
{
    DesignPointGrid grid = syntheticGrid();
    StrategyOptions options;  // Defaults to exhaustive, gray order.
    std::unique_ptr<SearchStrategy> exhaustive = makeStrategy(grid, options);
    std::vector<size_t> proposed = drain(*exhaustive);
    ASSERT_EQ(proposed.size(), grid.size());
    for (size_t pos = 0; pos < proposed.size(); ++pos)
        EXPECT_EQ(proposed[pos],
                  grid.orderedIndex(pos, PointOrder::kGrayCode));

    // Explicit row-major reproduces the historical identity order.
    options.order = PointOrder::kRowMajor;
    std::unique_ptr<SearchStrategy> row_major = makeStrategy(grid, options);
    std::vector<size_t> row_proposed = drain(*row_major);
    ASSERT_EQ(row_proposed.size(), grid.size());
    for (size_t i = 0; i < row_proposed.size(); ++i)
        EXPECT_EQ(row_proposed[i], i);  // Grid order: shard-compatible.
}

//===----------------------------------------------------------------------===//
// StrategyWorkerPool: the driver is worker 0, helpers wake per grain
//===----------------------------------------------------------------------===//

/**
 * Hooks for a pool under test that record which thread ran them and
 * how often each position of the current round was evaluated. Init
 * throws on any thread @p initThrows selects.
 */
struct PoolProbe {
    std::mutex mutex;
    std::vector<std::thread::id> initThreads;
    std::set<std::thread::id> runThreads;  ///< Reset by round().
    std::vector<std::thread::id> finishThreads;
    std::vector<int> hits;  ///< Per position of the current round.
    std::function<bool(std::thread::id)> initThrows;

    WorkerInit
    init()
    {
        return [this]() {
            const std::thread::id self = std::this_thread::get_id();
            {
                std::lock_guard<std::mutex> lock(mutex);
                initThreads.push_back(self);
            }
            if (initThrows && initThrows(self))
                throw std::runtime_error("worker init failed");
            WorkerFns fns;
            fns.run = [this](size_t begin, size_t end) {
                std::lock_guard<std::mutex> lock(mutex);
                runThreads.insert(std::this_thread::get_id());
                for (size_t pos = begin; pos < end; ++pos)
                    ++hits[pos];
            };
            fns.finish = [this]() {
                std::lock_guard<std::mutex> lock(mutex);
                finishThreads.push_back(std::this_thread::get_id());
            };
            return fns;
        };
    }

    /** Run one round of @p count positions through @p pool. */
    void
    round(StrategyWorkerPool& pool, size_t count)
    {
        hits.assign(count, 0);
        runThreads.clear();
        pool.runRound(count);
    }

    size_t
    evaluated() const
    {
        size_t n = 0;
        for (int h : hits)
            n += h == 1 ? 1 : 0;
        return n;
    }
};

constexpr size_t kGrain = StrategyWorkerPool::kFanOutGrain;

/** Trace label of @p scheduler. */
const char*
schedulerName(SweepScheduler scheduler)
{
    return scheduler == SweepScheduler::kStatic ? "static" : "steal";
}

TEST(StrategyWorkerPoolTest, SmallRoundsRunInlineOnTheCallingThread)
{
    const std::thread::id self = std::this_thread::get_id();
    PoolProbe probe;
    {
        StrategyWorkerPool pool(4, probe.init(), SweepScheduler::kStealing);
        // Nothing is created before the first round.
        EXPECT_TRUE(probe.initThreads.empty());
        // Below two grains a round has one participant: the caller.
        for (size_t count : {size_t{1}, size_t{30}, kGrain, 2 * kGrain - 1}) {
            EXPECT_EQ(pool.participants(count), 1u) << count;
            probe.round(pool, count);
            EXPECT_EQ(probe.evaluated(), count);
            EXPECT_EQ(probe.runThreads, std::set<std::thread::id>{self});
        }
        pool.shutdown();
        EXPECT_TRUE(pool.workerFailures().empty());
    }
    // One worker, created and finished on the test thread: no helper
    // was ever spawned (a helper runs its init on its own thread).
    EXPECT_EQ(probe.initThreads, std::vector<std::thread::id>{self});
    EXPECT_EQ(probe.finishThreads, std::vector<std::thread::id>{self});
}

TEST(StrategyWorkerPoolTest, LargeRoundsFanOutToEveryWorker)
{
    const std::thread::id self = std::this_thread::get_id();
    PoolProbe probe;
    StrategyWorkerPool pool(4, probe.init(), SweepScheduler::kStatic);
    EXPECT_EQ(pool.participants(2 * kGrain), 2u);
    EXPECT_EQ(pool.participants(4 * kGrain), 4u);
    EXPECT_EQ(pool.participants(100 * kGrain), 4u);

    // Two grains wake exactly one helper, spawned for this round.
    probe.round(pool, 2 * kGrain);
    EXPECT_EQ(probe.evaluated(), 2 * kGrain);
    EXPECT_EQ(probe.runThreads.size(), 2u);
    EXPECT_EQ(probe.initThreads.size(), 2u);

    // W grains reach all W participants, the caller among them, each
    // with its own static slice; two more helpers spawn now.
    probe.round(pool, 4 * kGrain);
    EXPECT_EQ(probe.evaluated(), 4 * kGrain);
    EXPECT_EQ(probe.runThreads.size(), 4u);
    EXPECT_TRUE(probe.runThreads.count(self));
    ASSERT_EQ(probe.initThreads.size(), 4u);
    const std::set<std::thread::id> init_threads(probe.initThreads.begin(),
                                                 probe.initThreads.end());
    EXPECT_EQ(init_threads.size(), 4u);

    // A small round after a large one still runs inline; the parked
    // helpers sit it out.
    probe.round(pool, 10);
    EXPECT_EQ(probe.evaluated(), 10u);
    EXPECT_EQ(probe.runThreads, std::set<std::thread::id>{self});

    pool.shutdown();
    EXPECT_EQ(probe.finishThreads.size(), 4u);
    EXPECT_TRUE(pool.workerFailures().empty());
}

TEST(StrategyWorkerPoolTest, GrainOneGivesEveryPositionAWorker)
{
    // Figures 10 and 11 pass grain 1: each of their points is a full
    // compile, and their 20-25 points would run inline at the default
    // grain. A 5-point round on 4 workers then wakes 3 helpers, and
    // under static slicing every participant evaluates.
    const std::thread::id self = std::this_thread::get_id();
    PoolProbe per_point;
    StrategyWorkerPool fanned(4, per_point.init(), SweepScheduler::kStatic,
                              /*grain=*/1);
    EXPECT_EQ(fanned.participants(5), 4u);
    per_point.round(fanned, 5);
    EXPECT_EQ(per_point.evaluated(), 5u);
    EXPECT_EQ(per_point.initThreads.size(), 4u);
    EXPECT_EQ(per_point.runThreads.size(), 4u);
    EXPECT_TRUE(per_point.runThreads.count(self));
    fanned.shutdown();
    EXPECT_TRUE(fanned.workerFailures().empty());

    // The same round at the default grain runs inline on the caller.
    PoolProbe grained;
    StrategyWorkerPool pool(4, grained.init(), SweepScheduler::kStatic);
    EXPECT_EQ(pool.participants(5), 1u);
    grained.round(pool, 5);
    EXPECT_EQ(grained.evaluated(), 5u);
    EXPECT_EQ(grained.runThreads, std::set<std::thread::id>{self});
    pool.shutdown();
    EXPECT_EQ(grained.initThreads, std::vector<std::thread::id>{self});
}

TEST(StrategyWorkerPoolTest, DriverInitFailureAtOneWorkerIsOneDiagnostic)
{
    const std::thread::id self = std::this_thread::get_id();
    PoolProbe probe;
    probe.initThrows = [self](std::thread::id id) { return id == self; };
    StrategyWorkerPool pool(1, probe.init());
    probe.round(pool, 10);
    EXPECT_EQ(probe.evaluated(), 0u);
    probe.round(pool, 4 * kGrain);
    EXPECT_EQ(probe.evaluated(), 0u);
    pool.shutdown();
    // The dead driver is not re-initialized, and never aborts.
    EXPECT_EQ(probe.initThreads.size(), 1u);
    EXPECT_TRUE(probe.finishThreads.empty());
    ASSERT_EQ(pool.workerFailures().size(), 1u);
    EXPECT_EQ(pool.workerFailures()[0].code, ErrorCode::kWorkerFailed);
    EXPECT_EQ(pool.workerFailures()[0].opPath, "worker w0");
}

TEST(StrategyWorkerPoolTest, StealingHelpersDrainADeadDriversSlot)
{
    const std::thread::id self = std::this_thread::get_id();
    PoolProbe probe;
    probe.initThrows = [self](std::thread::id id) { return id == self; };
    StrategyWorkerPool pool(4, probe.init(), SweepScheduler::kStealing);

    // A fan-out round whose driver dies in its init: the helpers steal
    // slot 0, so every point still completes.
    probe.round(pool, 4 * kGrain);
    EXPECT_EQ(probe.evaluated(), 4 * kGrain);
    EXPECT_FALSE(probe.runThreads.count(self));

    // With the driver dead, even a round below the grain fans out to a
    // helper that can drain slot 0.
    EXPECT_EQ(pool.participants(10), 2u);
    probe.round(pool, 10);
    EXPECT_EQ(probe.evaluated(), 10u);
    EXPECT_FALSE(probe.runThreads.count(self));

    pool.shutdown();
    ASSERT_EQ(pool.workerFailures().size(), 1u);
    EXPECT_EQ(pool.workerFailures()[0].opPath, "worker w0");
}

TEST(StrategyWorkerPoolTest, DriverDeadInFirstInlineRoundStillCompletes)
{
    // The driver's first init happens in a round too small to fan out;
    // once it fails, that same round is handed to a helper.
    const std::thread::id self = std::this_thread::get_id();
    PoolProbe probe;
    probe.initThrows = [self](std::thread::id id) { return id == self; };
    StrategyWorkerPool pool(4, probe.init(), SweepScheduler::kStealing);
    probe.round(pool, 10);
    EXPECT_EQ(probe.evaluated(), 10u);
    pool.shutdown();
    EXPECT_EQ(pool.workerFailures().size(), 1u);
}

TEST(StrategyWorkerPoolTest, HelperInitFailure)
{
    // Two workers, the helper's init throws. Under stealing the driver
    // drains the helper's slot; under static exactly the helper's slice
    // [kGrain, 2 * kGrain) goes unevaluated.
    const std::thread::id self = std::this_thread::get_id();
    for (SweepScheduler scheduler :
         {SweepScheduler::kStealing, SweepScheduler::kStatic}) {
        SCOPED_TRACE(schedulerName(scheduler));
        PoolProbe probe;
        probe.initThrows = [self](std::thread::id id) { return id != self; };
        StrategyWorkerPool pool(2, probe.init(), scheduler);
        probe.round(pool, 2 * kGrain);
        if (scheduler == SweepScheduler::kStealing) {
            EXPECT_EQ(probe.evaluated(), 2 * kGrain);
        } else {
            for (size_t pos = 0; pos < 2 * kGrain; ++pos)
                EXPECT_EQ(probe.hits[pos], pos < kGrain ? 1 : 0) << pos;
        }
        EXPECT_EQ(probe.runThreads, std::set<std::thread::id>{self});
        pool.shutdown();
        ASSERT_EQ(pool.workerFailures().size(), 1u);
        EXPECT_EQ(pool.workerFailures()[0].code, ErrorCode::kWorkerFailed);
        EXPECT_EQ(pool.workerFailures()[0].opPath, "worker w1");
    }
}

//===----------------------------------------------------------------------===//
// Strategy sweeps through the real estimator pipeline
//===----------------------------------------------------------------------===//

/** One compiled LeNet prototype + small factor grid for sweep tests. */
struct LeNetStrategySweep {
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype;
    FlowOptions partitionOptions;
    DesignPointGrid grid;

    LeNetStrategySweep() : prototype(buildLeNet(1))
    {
        FlowOptions options = optionsFor(Flow::kHida);
        options.enableTiling = false;
        options.enableParallelization = false;
        compile(prototype.get(), options, device);
        partitionOptions = options;
        partitionOptions.enableParallelization = true;

        grid.addDirectiveAxis("kpf1", {1, 3}, 1, "kpf_loop");
        grid.addDirectiveAxis("kpf2", {1, 4, 16}, 2, "kpf_loop");
        grid.addDirectiveAxis("cpf2", {1, 6}, 2, "cpf_loop");
        grid.addDirectiveAxis("kpf3", {2, 8}, 3, "kpf_loop");
        grid.addDirectiveAxis("cpf3", {1, 16}, 3, "cpf_loop");
    }

    std::function<ResilientWorker<DesignQor>()>
    factory()
    {
        return [this]() {
            auto w = std::make_shared<CloneSweepWorker>(
                prototype.get(), createArrayPartitionPass(partitionOptions),
                device);
            ResilientWorker<DesignQor> worker;
            worker.evaluate =
                [w, this](size_t, const std::vector<int64_t>& vals)
                -> Result<DesignQor> {
                return w->evaluateChecked(grid, vals);
            };
            worker.recover = [w]() { w->rebuild(); };
            worker.cacheStats = [w]() { return w->estimator.cacheStats(); };
            return worker;
        };
    }

    SweepOutcome<DesignQor>
    run(StrategyKind kind, unsigned threads, uint64_t seed = 42,
        size_t budget = 0)
    {
        StrategyOptions options;
        options.kind = kind;
        options.seed = seed;
        options.budget = budget;
        options.costLimit = 1.05;
        std::unique_ptr<SearchStrategy> strategy =
            makeStrategy(grid, options);
        return runStrategySweep<DesignQor>(
            grid, *strategy, factory(),
            [this](size_t, const DesignQor& q) {
                return ParetoSample{0, q.res.utilization(device),
                                    q.throughput(device)};
            },
            threads);
    }
};

/** One compile for the whole suite; tests only read it. */
LeNetStrategySweep&
lenet()
{
    static LeNetStrategySweep sweep;
    return sweep;
}

/** The evaluated-point fingerprint a determinism check compares. */
std::vector<std::pair<size_t, double>>
completedLatencies(const SweepOutcome<DesignQor>& outcome)
{
    std::vector<std::pair<size_t, double>> out;
    for (size_t i = 0; i < outcome.results.size(); ++i)
        if (outcome.completed[i])
            out.emplace_back(i, outcome.results[i].intervalCycles);
    return out;
}

TEST(StrategySweepTest, EvolveSeedDeterministicAcrossThreadCounts)
{
    SweepOutcome<DesignQor> t1 =
        lenet().run(StrategyKind::kEvolve, 1, 7, 20);
    SweepOutcome<DesignQor> t2 =
        lenet().run(StrategyKind::kEvolve, 2, 7, 20);
    SweepOutcome<DesignQor> t4 =
        lenet().run(StrategyKind::kEvolve, 4, 7, 20);

    EXPECT_EQ(t1.stats.proposed, 20u);
    // Same seed at any worker count: identical points evaluated,
    // identical results (warm == cold, per the differential fuzzer).
    EXPECT_EQ(completedLatencies(t1), completedLatencies(t2));
    EXPECT_EQ(completedLatencies(t1), completedLatencies(t4));
    EXPECT_EQ(t1.completed, t2.completed);
    EXPECT_EQ(t1.completed, t4.completed);

    // A different seed explores a different trajectory.
    SweepOutcome<DesignQor> other =
        lenet().run(StrategyKind::kEvolve, 2, 8, 20);
    EXPECT_NE(completedLatencies(t1), completedLatencies(other));
}

TEST(StrategySweepTest, ExhaustiveRetiresEachWorkerOnItsOwnThread)
{
    // An exhaustive sweep fanned out one worker per point (grain 1) on 3
    // threads: the pool runs every worker's finish hook on the worker's
    // thread, so the retire hook the service uses to pool warm clones
    // must see the thread that created the worker, once per worker.
    std::mutex mutex;
    std::vector<std::thread::id> created;
    std::vector<std::pair<std::thread::id, std::thread::id>> retired;
    auto inner = lenet().factory();
    std::function<ResilientWorker<DesignQor>()> factory = [&]() {
        ResilientWorker<DesignQor> worker = inner();
        const std::thread::id self = std::this_thread::get_id();
        {
            std::lock_guard<std::mutex> lock(mutex);
            created.push_back(self);
        }
        worker.retire = [&, self]() {
            std::lock_guard<std::mutex> lock(mutex);
            retired.emplace_back(self, std::this_thread::get_id());
        };
        return worker;
    };
    std::unique_ptr<SearchStrategy> exhaustive =
        makeStrategy(lenet().grid, StrategyOptions());
    SweepSchedule schedule;
    schedule.grain = 1;
    SweepOutcome<DesignQor> outcome = runStrategySweep<DesignQor>(
        lenet().grid, *exhaustive, factory, nullptr, 3, SweepLimits(),
        schedule);
    EXPECT_TRUE(outcome.allCompleted());
    EXPECT_TRUE(outcome.failures.empty());
    // A whole-grid sweep is one batch of every point, and the stats sum
    // every worker's estimator counters.
    EXPECT_EQ(outcome.stats.batches, 1u);
    EXPECT_EQ(outcome.stats.proposed, lenet().grid.size());
    EXPECT_EQ(outcome.stats.evaluated, lenet().grid.size());
    EXPECT_GT(outcome.stats.cache.hits + outcome.stats.cache.misses, 0u);

    ASSERT_EQ(created.size(), 3u);
    EXPECT_EQ(std::set<std::thread::id>(created.begin(), created.end()).size(),
              3u);
    ASSERT_EQ(retired.size(), created.size());
    std::set<std::thread::id> retired_workers;
    for (const auto& [creator, retirer] : retired) {
        EXPECT_EQ(creator, retirer);
        retired_workers.insert(creator);
    }
    EXPECT_EQ(retired_workers.size(), created.size());
}

//===----------------------------------------------------------------------===//
// The full fig1 grid
//===----------------------------------------------------------------------===//

/**
 * The full fig1 LeNet factor grid (2400 points), batch 1, no dataflow —
 * the widest reference front of the bench's ten (mode, batch) configs.
 * One compile for the whole suite; tests only read it.
 */
struct FullLenetGrid {
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype;
    FlowOptions partition;
    DesignPointGrid grid;

    FullLenetGrid() : prototype(buildLeNet(1))
    {
        FlowOptions options = optionsFor(Flow::kVitis);
        options.enableTiling = false;
        options.enableParallelization = false;
        compile(prototype.get(), options, device);
        partition = options;
        partition.enableParallelization = true;

        grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
        grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
        grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
        grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
        grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
        grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    }

    std::function<ResilientWorker<DesignQor>()>
    factory()
    {
        return [this]() {
            auto w = std::make_shared<CloneSweepWorker>(
                prototype.get(), createArrayPartitionPass(partition), device);
            ResilientWorker<DesignQor> worker;
            worker.evaluate =
                [w, this](size_t, const std::vector<int64_t>& vals)
                -> Result<DesignQor> {
                return w->evaluateChecked(grid, vals);
            };
            worker.recover = [w]() { w->rebuild(); };
            worker.cacheStats = [w]() { return w->estimator.cacheStats(); };
            return worker;
        };
    }

    ParetoSample
    objective(size_t index, const DesignQor& q) const
    {
        return ParetoSample{index, q.res.utilization(device),
                            q.throughput(device)};
    }

    SweepOutcome<DesignQor>
    run(const StrategyOptions& options, unsigned threads,
        SweepScheduler scheduler,
        const std::function<ResilientWorker<DesignQor>()>& worker_factory)
    {
        std::unique_ptr<SearchStrategy> strategy = makeStrategy(grid, options);
        SweepSchedule schedule;
        schedule.scheduler = scheduler;
        return runStrategySweep<DesignQor>(
            grid, *strategy, worker_factory,
            [this](size_t index, const DesignQor& q) {
                return objective(index, q);
            },
            threads, SweepLimits(), schedule);
    }
};

FullLenetGrid&
fullLenet()
{
    static FullLenetGrid lenet;
    return lenet;
}

/** One full-grid sweep, plus how many workers it created and how many
 * of them evaluated a point. */
struct CountedSweep {
    SweepOutcome<DesignQor> outcome;
    size_t created = 0;
    size_t evaluating = 0;
};

CountedSweep
countedSweep(const StrategyOptions& options, unsigned threads,
             SweepScheduler scheduler)
{
    // One flag per worker, set by the worker's own thread when it
    // evaluates a point; read after the sweep joined its helpers.
    std::mutex mutex;
    std::vector<std::shared_ptr<bool>> flags;
    auto inner = fullLenet().factory();
    auto factory = [&]() {
        ResilientWorker<DesignQor> worker = inner();
        auto flag = std::make_shared<bool>(false);
        {
            std::lock_guard<std::mutex> lock(mutex);
            flags.push_back(flag);
        }
        auto evaluate = worker.evaluate;
        worker.evaluate = [evaluate, flag](size_t index, const auto& vals) {
            *flag = true;
            return evaluate(index, vals);
        };
        return worker;
    };
    CountedSweep sweep;
    sweep.outcome = fullLenet().run(options, threads, scheduler, factory);
    sweep.created = flags.size();
    for (const auto& flag : flags)
        sweep.evaluating += *flag ? 1 : 0;
    return sweep;
}

TEST(StrategySweepTest, FullGridBitIdenticalAcrossThreadsAndSchedulers)
{
    // The cross-thread determinism case whose rounds are large enough to
    // reach the helpers: an exhaustive sweep (one 2400-point round) and
    // random at a 1024-point budget (one round of 16 grains), each at
    // 1/2/4 threads under both schedulers, then the exhaustive sweep in
    // row-major order at 4 threads under both. Every run must match the
    // serial (gray, for exhaustive) one bit for bit, and every
    // multi-thread run must really have reached all its workers.
    ASSERT_EQ(fullLenet().grid.size(), 2400u);
    struct Leg {
        unsigned threads;
        SweepScheduler scheduler;
        PointOrder order;
    };
    for (StrategyKind kind :
         {StrategyKind::kExhaustive, StrategyKind::kRandom}) {
        SCOPED_TRACE(strategyKindName(kind));
        std::vector<Leg> legs;
        for (unsigned threads : {1u, 2u, 4u})
            for (SweepScheduler scheduler :
                 {SweepScheduler::kStatic, SweepScheduler::kStealing})
                legs.push_back({threads, scheduler, PointOrder::kGrayCode});
        if (kind == StrategyKind::kExhaustive)
            for (SweepScheduler scheduler :
                 {SweepScheduler::kStatic, SweepScheduler::kStealing})
                legs.push_back({4, scheduler, PointOrder::kRowMajor});
        const size_t points = kind == StrategyKind::kExhaustive ? 2400 : 1024;
        std::optional<SweepOutcome<DesignQor>> serial;
        for (const Leg& leg : legs) {
            SCOPED_TRACE(leg.threads);
            SCOPED_TRACE(schedulerName(leg.scheduler));
            SCOPED_TRACE(leg.order == PointOrder::kGrayCode ? "gray"
                                                            : "row-major");
            StrategyOptions options;
            options.kind = kind;
            options.budget = 1024;      // Ignored by exhaustive.
            options.order = leg.order;  // Ignored by random.
            CountedSweep run =
                countedSweep(options, leg.threads, leg.scheduler);
            EXPECT_TRUE(run.outcome.failures.empty());
            EXPECT_EQ(run.outcome.stats.evaluated, points);
            // Every round reaches all workers. Under static each one
            // evaluates its own slice; under stealing a helper still
            // cloning may find its slot already drained, so only its
            // creation is certain.
            EXPECT_EQ(run.created, leg.threads);
            if (leg.scheduler == SweepScheduler::kStatic) {
                EXPECT_EQ(run.evaluating, leg.threads);
            }
            if (!serial) {
                serial = std::move(run.outcome);
                continue;
            }
            ASSERT_EQ(run.outcome.completed, serial->completed);
            for (size_t i = 0; i < serial->results.size(); ++i) {
                if (!serial->completed[i])
                    continue;
                ASSERT_EQ(std::memcmp(&run.outcome.results[i],
                                      &serial->results[i], sizeof(DesignQor)),
                          0)
                    << "point " << i << " diverged";
            }
        }
    }
}

//===----------------------------------------------------------------------===//
// Evolve acceptance on the full fig1 grid
//===----------------------------------------------------------------------===//

TEST(EvolveAcceptanceTest, RecoversLenetParetoFrontAtTenPercentBudget)
{
    FullLenetGrid& lenet = fullLenet();
    const DesignPointGrid& grid = lenet.grid;
    ASSERT_EQ(grid.size(), 2400u);

    // Exhaustive reference front (feasible points only).
    SweepOutcome<DesignQor> reference = lenet.run(
        StrategyOptions(), 4, SweepScheduler::kStealing, lenet.factory());
    std::vector<ParetoSample> feasible;
    for (size_t i = 0; i < reference.results.size(); ++i) {
        if (!reference.completed[i])
            continue;
        ParetoSample s = lenet.objective(i, reference.results[i]);
        if (s.cost <= 1.05)
            feasible.push_back(s);
    }
    std::vector<ParetoSample> front = paretoFrontOf(std::move(feasible));
    ASSERT_GE(front.size(), 10u);

    auto sample = [&](StrategyKind kind) {
        StrategyOptions so;
        so.kind = kind;  // Pinned default seed 42, default 10% budget.
        so.costLimit = 1.05;
        // Static schedule: the memo-hit comparison below needs the
        // deterministic point-to-worker assignment — under kStealing
        // the assignment (and so each worker's cache history) depends
        // on timing. Results would be identical either way; the cache
        // *counters* would not be stable.
        return lenet.run(so, 4, SweepScheduler::kStatic, lenet.factory());
    };
    SweepOutcome<DesignQor> evolve = sample(StrategyKind::kEvolve);

    // <= 10% of the grid spent.
    EXPECT_LE(evolve.stats.proposed, grid.size() / 10);

    // >= 95% of the exhaustive front recovered (dominated-or-equaled).
    ParetoArchive found;
    for (size_t i = 0; i < evolve.results.size(); ++i) {
        if (!evolve.completed[i])
            continue;
        ParetoSample s = lenet.objective(i, evolve.results[i]);
        if (s.cost <= 1.05)
            found.insert(s);
    }
    size_t covered = 0;
    for (const ParetoSample& s : front)
        covered += found.covers(s) ? 1 : 0;
    EXPECT_GE(covered * 100, front.size() * 95)
        << "covered " << covered << " of " << front.size();

    // Warm-cache proof: evolve steps to grid neighbors, so consecutive
    // points share most directive fingerprints and hit the estimator's
    // memo caches more often than uniform random sampling of the same
    // budget (both runs are deterministic, so strict inequality is
    // stable).
    SweepOutcome<DesignQor> random = sample(StrategyKind::kRandom);
    EXPECT_EQ(random.stats.proposed, evolve.stats.proposed);
    EXPECT_GT(evolve.stats.cache.memoHitRate(),
              random.stats.cache.memoHitRate());
}

//===----------------------------------------------------------------------===//
// Gray-code ordering vs row-major on the full fig1 grid
//===----------------------------------------------------------------------===//

TEST(OrderingTest, GrayCodeOrderingCutsRehashTrafficOverRowMajor)
{
    // A Gray-code walk mutates exactly one directive per step, so each
    // point dirties (and re-hashes) strictly fewer subtrees than the
    // row-major walk, whose axis rollovers rewrite several directives
    // at once.
    FullLenetGrid& lenet = fullLenet();
    const DesignPointGrid& grid = lenet.grid;
    ASSERT_EQ(grid.size(), 2400u);

    // Serial exhaustive sweeps: one worker walking the whole grid in
    // each order, so the cache counters measure the ordering alone
    // (point-to-worker assignment and timing play no part). The worker
    // runs inline on this thread, which also compiled the prototype and
    // ran other suites; the estimator counts only its own hashing, so
    // no counter reset is needed.
    auto sweep = [&](PointOrder order) {
        StrategyOptions so;
        so.order = order;
        return lenet.run(so, 1, SweepScheduler::kStatic, lenet.factory());
    };
    SweepOutcome<DesignQor> gray = sweep(PointOrder::kGrayCode);
    SweepOutcome<DesignQor> row = sweep(PointOrder::kRowMajor);

    // The ordering never changes the output: every point completed and
    // bit-identical QoR per grid index.
    ASSERT_EQ(gray.completed, row.completed);
    EXPECT_TRUE(gray.failures.empty());
    for (size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(gray.completed[i]);
        ASSERT_EQ(std::memcmp(&gray.results[i], &row.results[i],
                              sizeof(DesignQor)),
                  0)
            << "point " << i << " diverged between orderings";
    }

    // The tentpole claim. The node-estimate memo never evicts, so its
    // hit *count* is order-independent (hits = lookups - distinct
    // subtree fingerprints) — assert that equality as the output-
    // invariance witness. Where the ordering pays off is invalidation
    // traffic: a Gray step rewrites exactly one directive, so strictly
    // fewer subtrees are dirtied and re-hashed than under row-major's
    // multi-axis rollovers (both sweeps are deterministic, so strict
    // inequality is stable).
    EXPECT_EQ(gray.stats.cache.hits + gray.stats.cache.misses,
              row.stats.cache.hits + row.stats.cache.misses);
    EXPECT_EQ(gray.stats.cache.hits, row.stats.cache.hits);
    EXPECT_LT(gray.stats.cache.hashRecomputes,
              row.stats.cache.hashRecomputes);

    // Exact serial counters. The per-point directive writers (applyPoint
    // and ArrayPartition) skip unchanged values and cache their walks,
    // but must leave the estimator exactly the work it had when they
    // rewrote every directive on every point: these are the counts a
    // full rewalk per point produces. The Vitis flow has no dataflow
    // schedule, so the schedule counters stay zero.
    const QorCacheStats& g = gray.stats.cache;
    const QorCacheStats& r = row.stats.cache;
    EXPECT_EQ(g.hashRecomputes, 10847u);
    EXPECT_EQ(r.hashRecomputes, 12505u);
    for (const QorCacheStats* stats : {&g, &r}) {
        EXPECT_EQ(stats->hits, 16742u);
        EXPECT_EQ(stats->misses, 58u);
        EXPECT_EQ(stats->scheduleBuilds, 0u);
        EXPECT_EQ(stats->simRuns, 0u);
        // Every point after the first is directive-only: each of the
        // prototype's nest and root plans is built once, by the first.
        EXPECT_EQ(stats->planBuilds, 14u);
    }
}

//===----------------------------------------------------------------------===//
// Environment parsing
//===----------------------------------------------------------------------===//

TEST(StrategyEnvTest, ParsesKindSeedAndBudget)
{
    EXPECT_EQ(parseStrategyKind("exhaustive"), StrategyKind::kExhaustive);
    EXPECT_EQ(parseStrategyKind("random"), StrategyKind::kRandom);
    EXPECT_EQ(parseStrategyKind("lhs"), StrategyKind::kLhs);
    EXPECT_EQ(parseStrategyKind("evolve"), StrategyKind::kEvolve);
    EXPECT_EQ(parseStrategyKind("anneal"), std::nullopt);
    EXPECT_EQ(strategyKindName(StrategyKind::kEvolve), "evolve");

    setenv("HIDA_DSE_STRATEGY", "lhs", 1);
    setenv("HIDA_DSE_SEED", "7", 1);
    setenv("HIDA_DSE_BUDGET", "123", 1);
    StrategyOptions options = strategyOptionsFromEnv();
    EXPECT_EQ(options.kind, StrategyKind::kLhs);
    EXPECT_EQ(options.seed, 7u);
    EXPECT_EQ(options.budget, 123u);
    unsetenv("HIDA_DSE_STRATEGY");
    unsetenv("HIDA_DSE_SEED");
    unsetenv("HIDA_DSE_BUDGET");

    // Defaults: exhaustive, seed 42, budget 0 (= 10% of the grid),
    // gray order.
    StrategyOptions defaults = strategyOptionsFromEnv();
    EXPECT_EQ(defaults.kind, StrategyKind::kExhaustive);
    EXPECT_EQ(defaults.seed, 42u);
    EXPECT_EQ(defaults.budget, 0u);
    EXPECT_EQ(defaults.order, PointOrder::kGrayCode);
}

TEST(StrategyEnvTest, UnknownStrategyIsFatalUserError)
{
    setenv("HIDA_DSE_STRATEGY", "simulated-annealing", 1);
    EXPECT_EXIT(strategyOptionsFromEnv(),
                ::testing::ExitedWithCode(kFatalExitCode),
                "unknown HIDA_DSE_STRATEGY");
    unsetenv("HIDA_DSE_STRATEGY");
}

} // namespace
} // namespace hida
