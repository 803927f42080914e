/**
 * @file
 * Concurrency tests for the thread-safe IR core and the parallel DSE
 * engine (src/dse/).
 *
 *  - Grid mechanics: deterministic row-major enumeration and decode, and
 *    a pool round that covers every position exactly once.
 *  - Parallel-vs-serial equivalence: a LeNet factor sweep through the
 *    exhaustive runStrategySweep at 1/2/4/8 workers, fanned out one
 *    worker per point, must produce per-point QoR vectors (latency,
 *    interval, every resource column) and Pareto fronts *identical* to a
 *    plain serial evaluateChecked loop — the invariant behind the
 *    benches' stable output_sha256 at any HIDA_BENCH_THREADS.
 *  - Interner / type-uniquer hammers: N threads interning overlapping
 *    key sets and building overlapping types, then cross-thread
 *    agreement checks (same string -> same id, same structure -> same
 *    uniqued storage, isa<> dispatch and hash equality across threads).
 *  - Per-module structure epochs: one tree's mutations never move
 *    another tree's epoch.
 *
 * Run under -DHIDA_SANITIZE=thread in CI: TSan turns any latent data
 * race in the shared tables into a hard failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/dialect/affine/affine_ops.h"
#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/dse/strategy.h"
#include "src/estimator/qor.h"
#include "src/ir/registry.h"
#include "src/ir/verifier.h"
#include "src/models/dnn_models.h"
#include "src/transforms/passes.h"

namespace hida {
namespace {

//===----------------------------------------------------------------------===//
// DesignPointGrid
//===----------------------------------------------------------------------===//

TEST(GridTest, RowMajorEnumerationMatchesNestedLoops)
{
    DesignPointGrid grid;
    grid.addAxis("a", {1, 2});
    grid.addAxis("b", {10, 20, 30});
    grid.addAxis("c", {7});
    ASSERT_EQ(grid.size(), 6u);
    ASSERT_EQ(grid.numAxes(), 3u);
    EXPECT_EQ(grid.axisIndex("b"), 1u);

    // Axis 0 slowest — exactly the order of `for a { for b { for c }}`.
    std::vector<std::vector<int64_t>> expected;
    for (int64_t a : {1, 2})
        for (int64_t b : {10, 20, 30})
            expected.push_back({a, b, 7});
    for (size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(grid.point(i), expected[i]) << "point " << i;
}

/** Trace label of @p scheduler. */
const char*
schedulerName(SweepScheduler scheduler)
{
    return scheduler == SweepScheduler::kStatic ? "static" : "steal";
}

TEST(GridTest, ShardBoundsCoverEveryPointOnce)
{
    // A pool round fanned out one participant per position must
    // partition [0, n) exactly, for any worker count — under both the
    // static and the work-stealing scheduler.
    for (SweepScheduler scheduler :
         {SweepScheduler::kStatic, SweepScheduler::kStealing}) {
        for (unsigned threads : {1u, 2u, 3u, 4u, 8u, 13u}) {
            std::vector<std::atomic<int>> seen(101);
            StrategyWorkerPool pool(
                threads,
                [&]() {
                    WorkerFns fns;
                    fns.run = [&](size_t begin, size_t end) {
                        for (size_t i = begin; i < end; ++i)
                            seen[i].fetch_add(1);
                    };
                    return fns;
                },
                scheduler, /*grain=*/1);
            EXPECT_EQ(pool.participants(seen.size()), threads);
            pool.runRound(seen.size());
            pool.shutdown();
            EXPECT_TRUE(pool.workerFailures().empty());
            for (size_t i = 0; i < seen.size(); ++i)
                EXPECT_EQ(seen[i].load(), 1)
                    << "threads=" << threads
                    << " scheduler=" << schedulerName(scheduler);
        }
    }
}

TEST(GridTest, GrayCodeOrderIsASingleStepBijection)
{
    // Mixed radices, including a degenerate axis: the reflected Gray
    // code must visit every index exactly once, and consecutive
    // positions must differ in exactly one axis by exactly one value
    // step — rollovers included (the row-major order fails this at
    // every rollover).
    DesignPointGrid grid;
    grid.addAxis("a", {1, 2});
    grid.addAxis("b", {10, 20, 30});
    grid.addAxis("c", {7});  // Degenerate: never steps.
    grid.addAxis("d", {0, 1, 2, 3});

    std::vector<uint8_t> seen(grid.size(), 0);
    std::vector<size_t> prev, cur;
    for (size_t pos = 0; pos < grid.size(); ++pos) {
        size_t index = grid.orderedIndex(pos, PointOrder::kGrayCode);
        ASSERT_LT(index, grid.size());
        EXPECT_FALSE(seen[index]) << "index " << index << " repeated";
        seen[index] = 1;

        grid.decodeValueIndices(index, cur);
        if (pos > 0) {
            size_t moved_axes = 0;
            size_t step = 0;
            for (size_t a = 0; a < grid.numAxes(); ++a)
                if (cur[a] != prev[a]) {
                    ++moved_axes;
                    step = std::max(cur[a], prev[a]) -
                           std::min(cur[a], prev[a]);
                }
            EXPECT_EQ(moved_axes, 1u) << "position " << pos;
            EXPECT_EQ(step, 1u) << "position " << pos;
        }
        prev = cur;

        // Row-major is the identity.
        EXPECT_EQ(grid.orderedIndex(pos, PointOrder::kRowMajor), pos);
    }
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_TRUE(seen[i]) << "index " << i << " never visited";
}

//===----------------------------------------------------------------------===//
// Parallel sweep == serial sweep
//===----------------------------------------------------------------------===//

bool
qorEq(const DesignQor& a, const DesignQor& b)
{
    return a.latencyCycles == b.latencyCycles &&
           a.intervalCycles == b.intervalCycles && a.res.dsp == b.res.dsp &&
           a.res.bram18k == b.res.bram18k && a.res.lut == b.res.lut &&
           a.res.ff == b.res.ff;
}

/** Pareto front over (utilization, throughput), as in the fig1 bench. */
std::vector<size_t>
paretoFront(const std::vector<DesignQor>& qors, const TargetDevice& device)
{
    std::vector<size_t> order(qors.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return qors[a].res.utilization(device) <
               qors[b].res.utilization(device);
    });
    std::vector<size_t> front;
    double best = 0.0;
    for (size_t i : order) {
        if (qors[i].throughput(device) > best) {
            best = qors[i].throughput(device);
            front.push_back(i);
        }
    }
    return front;
}

TEST(ParallelSweepTest, ThreadCountNeverChangesResults)
{
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype = buildLeNet(1);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableTiling = false;
    options.enableParallelization = false;
    compile(prototype.get(), options, device);
    FlowOptions partition_options = options;
    partition_options.enableParallelization = true;

    // A 48-point sub-grid of the Table 1 factors: big enough that every
    // worker both warms and reuses its estimator caches.
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 3}, 1, "kpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 4, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {2, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 16}, 3, "cpf_loop");
    ASSERT_EQ(grid.size(), 48u);

    // The reference: a plain serial evaluateChecked loop in grid order,
    // no sweep engine in it.
    std::vector<DesignQor> serial;
    {
        CloneSweepWorker worker(prototype.get(),
                                createArrayPartitionPass(partition_options),
                                device);
        std::vector<int64_t> vals;
        for (size_t i = 0; i < grid.size(); ++i) {
            grid.decode(i, vals);
            serial.push_back(worker.evaluateChecked(grid, vals).value());
        }
    }

    // The same CloneSweepWorker recipe the fig1 bench runs, through the
    // exhaustive strategy. Grain 1 fans the 48-point round out to every
    // worker; the default grain would run it inline on one.
    auto sweep = [&](unsigned threads, PointOrder order,
                     SweepScheduler scheduler) {
        StrategyOptions options;
        options.order = order;
        std::unique_ptr<SearchStrategy> exhaustive =
            makeStrategy(grid, options);
        SweepSchedule schedule;
        schedule.scheduler = scheduler;
        schedule.grain = 1;
        return runStrategySweep<DesignQor>(
            grid, *exhaustive,
            [&]() {
                auto w = std::make_shared<CloneSweepWorker>(
                    prototype.get(),
                    createArrayPartitionPass(partition_options), device);
                ResilientWorker<DesignQor> worker;
                worker.evaluate = [w, &grid](size_t,
                                             const std::vector<int64_t>& vals)
                    -> Result<DesignQor> {
                    return w->evaluateChecked(grid, vals);
                };
                return worker;
            },
            nullptr, threads, SweepLimits(), schedule);
    };

    // Every {order} x {scheduler} x {threads} combination must reproduce
    // it exactly: results merge by grid index, so neither the visit
    // order nor which worker lands on a point may leak into the output.
    for (PointOrder order : {PointOrder::kRowMajor, PointOrder::kGrayCode}) {
        for (SweepScheduler scheduler :
             {SweepScheduler::kStatic, SweepScheduler::kStealing}) {
            for (unsigned threads : {1u, 2u, 4u, 8u}) {
                SweepOutcome<DesignQor> parallel =
                    sweep(threads, order, scheduler);
                ASSERT_TRUE(parallel.allCompleted());
                ASSERT_EQ(parallel.results.size(), serial.size());
                for (size_t i = 0; i < serial.size(); ++i)
                    EXPECT_TRUE(qorEq(serial[i], parallel.results[i]))
                        << "point " << i << " diverged at threads=" << threads
                        << " order="
                        << (order == PointOrder::kGrayCode ? "gray"
                                                           : "row-major")
                        << " scheduler=" << schedulerName(scheduler);
                EXPECT_EQ(paretoFront(serial, device),
                          paretoFront(parallel.results, device))
                    << "Pareto front diverged at threads=" << threads;
            }
        }
    }
}

TEST(ParallelSweepTest, IndependentCompilesPerWorker)
{
    // fig10/fig11-style sweep: each point is a full compile on a module
    // the worker builds itself, fanned out one worker per point (grain
    // 1, as those benches pass). Serial and parallel runs must agree on
    // every reported metric.
    TargetDevice device = TargetDevice::vu9pSlr();
    DesignPointGrid grid;
    grid.addAxis("pf", {1, 16});
    grid.addAxis("tile", {4, 32});

    auto compile_point = [&device](const std::vector<int64_t>& vals) {
        OwnedModule module = buildDnnModel("ResNet-18", nullptr);
        FlowOptions options = optionsFor(Flow::kHida);
        options.maxParallelFactor = vals[0];
        options.tileSize = vals[1];
        return compile(module.get(), options, device);
    };

    // The reference: a plain serial loop of compiles.
    std::vector<CompileResult> serial;
    std::vector<int64_t> vals;
    for (size_t i = 0; i < grid.size(); ++i) {
        grid.decode(i, vals);
        serial.push_back(compile_point(vals));
    }

    std::unique_ptr<SearchStrategy> exhaustive =
        makeStrategy(grid, StrategyOptions());
    SweepSchedule schedule;
    schedule.grain = 1;
    SweepOutcome<CompileResult> parallel = runStrategySweep<CompileResult>(
        grid, *exhaustive,
        [&]() {
            ResilientWorker<CompileResult> worker;
            worker.evaluate = [&](size_t, const std::vector<int64_t>& v)
                -> Result<CompileResult> { return compile_point(v); };
            return worker;
        },
        nullptr, 4, SweepLimits(), schedule);
    ASSERT_TRUE(parallel.allCompleted());
    ASSERT_EQ(serial.size(), parallel.results.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const CompileResult& result = parallel.results[i];
        EXPECT_TRUE(qorEq(serial[i].qor, result.qor)) << "point " << i;
        EXPECT_EQ(serial[i].overload, result.overload) << "point " << i;
        EXPECT_EQ(serial[i].effectiveThroughput, result.effectiveThroughput)
            << "point " << i;
    }
}

//===----------------------------------------------------------------------===//
// Interner / type-uniquer hammers
//===----------------------------------------------------------------------===//

TEST(ConcurrencyHammerTest, InternerAgreesAcrossThreads)
{
    constexpr int kThreads = 8;
    constexpr int kKeys = 512;
    // Overlapping key sets: every thread interns the shared range plus a
    // thread-specific slice, in a thread-dependent order.
    std::vector<std::vector<Identifier>> ids(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t, &ids]() {
            std::vector<Identifier>& mine = ids[t];
            mine.resize(kKeys);
            for (int i = 0; i < kKeys; ++i) {
                int k = (t % 2) ? (kKeys - 1 - i) : i;
                mine[k] = Identifier::get("hammer" + std::to_string(t % 4) +
                                          ".key" + std::to_string(k));
            }
        });
    }
    for (std::thread& t : pool)
        t.join();

    for (int t = 0; t < kThreads; ++t) {
        for (int k = 0; k < kKeys; ++k) {
            // Same string -> same id, across every thread and vs. a fresh
            // main-thread intern; str() round-trips; dialect precomputed.
            std::string key = "hammer" + std::to_string(t % 4) + ".key" +
                              std::to_string(k);
            EXPECT_EQ(ids[t][k], Identifier::get(key));
            EXPECT_EQ(ids[t][k], ids[(t + 4) % kThreads][k]);
            EXPECT_EQ(ids[t][k].str(), key);
            EXPECT_EQ(ids[t][k].dialect(),
                      Identifier::get("hammer" + std::to_string(t % 4)));
        }
    }
}

TEST(ConcurrencyHammerTest, RegistryLookupsRaceRegistration)
{
    // Lookups are lock-free reads of a chunk table that registration
    // grows under a mutex. Threads register disjoint op names (enough to
    // publish fresh chunks) while they look up each other's names and
    // verify their own modules: a lookup sees nothing or a complete entry.
    registerAllDialects();
    constexpr int kThreads = 8;
    constexpr int kNames = 300;
    auto name = [](int t, int i) {
        return "regham" + std::to_string(t) + ".op" + std::to_string(i);
    };
    std::atomic<int> torn{0};
    std::vector<int> verify_errors(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t, &name, &torn, &verify_errors]() {
            OpRegistry& registry = OpRegistry::instance();
            OwnedModule module = buildLeNet(1);
            for (int i = 0; i < kNames; ++i) {
                registry.registerOp(name(t, i),
                                    OpInfo{.isolatedFromAbove = false,
                                           .isTerminator = i % 2 == 1,
                                           .verify = nullptr});
                const int other = (t + 1 + i) % kThreads;
                const OpInfo* info =
                    registry.lookup(Identifier::get(name(other, i)));
                if (info != nullptr && info->isTerminator != (i % 2 == 1))
                    ++torn;
                if (i % 100 == 0 && verify(module.get().op()))
                    ++verify_errors[t];
            }
        });
    }
    for (std::thread& t : pool)
        t.join();

    EXPECT_EQ(torn.load(), 0);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(verify_errors[t], 0) << "thread " << t;
        for (int i = 0; i < kNames; ++i) {
            const OpInfo* info =
                OpRegistry::instance().lookup(Identifier::get(name(t, i)));
            ASSERT_NE(info, nullptr) << name(t, i);
            EXPECT_EQ(info->isTerminator, i % 2 == 1) << name(t, i);
        }
    }
}

TEST(ConcurrencyHammerTest, TypeUniquingAgreesAcrossThreads)
{
    constexpr int kThreads = 8;
    constexpr int kShapes = 64;
    std::vector<std::vector<Type>> types(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t, &types]() {
            std::vector<Type>& mine = types[t];
            for (int i = 0; i < kShapes; ++i) {
                int64_t dim = 1 + (i % 16);
                mine.push_back(Type::memref(
                    {dim, 64}, (i % 2) ? Type::i8() : Type::f32(),
                    (i % 3) ? MemorySpace::kOnChip : MemorySpace::kExternal));
                mine.push_back(Type::stream(Type::i32(), dim));
            }
        });
    }
    for (std::thread& t : pool)
        t.join();

    for (int t = 1; t < kThreads; ++t) {
        ASSERT_EQ(types[t].size(), types[0].size());
        for (size_t i = 0; i < types[t].size(); ++i) {
            // Structural equality, hash equality, and — because storage
            // is uniqued — pointer-identical backing storage.
            EXPECT_TRUE(types[t][i] == types[0][i]);
            EXPECT_EQ(types[t][i].hash(), types[0][i].hash());
            EXPECT_EQ(types[t][i].storage(), types[0][i].storage());
        }
    }
}

TEST(ConcurrencyHammerTest, CrossThreadIsaDispatch)
{
    // Each thread builds its own module and walks it with isa<> — the
    // opNameId<OpT>() caches and the registry are the shared state.
    constexpr int kThreads = 8;
    std::vector<int> for_counts(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t, &for_counts]() {
            OwnedModule module = buildLeNet(1);
            int count = 0;
            module.get().op()->walk([&](Operation* op) {
                if (isa<ForOp>(op) && !dynCast<ForOp>(op).isPipelined())
                    ++count;
            });
            for_counts[t] = count;
        });
    }
    for (std::thread& t : pool)
        t.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(for_counts[t], for_counts[0]);
}

//===----------------------------------------------------------------------===//
// Per-module structure epochs
//===----------------------------------------------------------------------===//

TEST(StructureEpochTest, ModulesAreIsolated)
{
    OwnedModule a = buildLeNet(1);
    OwnedModule b = buildLeNet(1);
    uint64_t epoch_b = b.get().op()->structureEpoch();

    // Structural mutation in tree A: A's epoch moves, B's does not —
    // the property that keeps one worker's mutations from invalidating
    // another worker's schedule caches.
    uint64_t epoch_a = a.get().op()->structureEpoch();
    Operation* first = a.get().body()->front();
    OpBuilder builder;
    builder.setInsertionPointBefore(first);
    builder.create(Identifier::get("test.epoch_probe"));
    EXPECT_NE(a.get().op()->structureEpoch(), epoch_a);
    EXPECT_EQ(b.get().op()->structureEpoch(), epoch_b);

    // A clone is its own tree: mutating it leaves the prototype alone.
    OwnedModule c = OwnedModule::clone(b.get());
    uint64_t epoch_c = c.get().op()->structureEpoch();
    OpBuilder cb;
    cb.setInsertionPointBefore(c.get().body()->front());
    cb.create(Identifier::get("test.epoch_probe"));
    EXPECT_NE(c.get().op()->structureEpoch(), epoch_c);
    EXPECT_EQ(b.get().op()->structureEpoch(), epoch_b);
}

TEST(StructureEpochTest, CloneEstimatesMatchPrototype)
{
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype = buildLeNet(1);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableTiling = false;
    compile(prototype.get(), options, device);

    OwnedModule clone = OwnedModule::clone(prototype.get());
    QorEstimator proto_est(device), clone_est(device);
    DesignQor proto_qor = proto_est.estimateFunc(topFunc(prototype.get()));
    DesignQor clone_qor = clone_est.estimateFunc(topFunc(clone.get()));
    EXPECT_TRUE(qorEq(proto_qor, clone_qor));
}

} // namespace
} // namespace hida
