/**
 * @file
 * QoR estimator tests: device budgets, buffer resource modeling (BRAM vs
 * LUTRAM banks, ping-pong stages), loop-nest latency scaling under
 * unrolling, external bandwidth bounds, and the dataflow interval rules
 * (overlap vs multi-producer sequentialization).
 */

#include <gtest/gtest.h>

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/driver/driver.h"
#include "src/estimator/qor.h"
#include "src/frontend/loop_builder.h"
#include "src/models/polybench.h"

namespace hida {
namespace {

TEST(DeviceTest, BudgetsAndUtilization)
{
    TargetDevice device = TargetDevice::zu3eg();
    EXPECT_EQ(device.dsp, 360);
    Resources res{.lut = 7056, .ff = 0, .dsp = 36, .bram18k = 216};
    EXPECT_DOUBLE_EQ(res.utilization(device), 0.5);  // BRAM dominates
    EXPECT_TRUE(res.fits(device));
    Resources too_big{.lut = 0, .ff = 0, .dsp = 361, .bram18k = 0};
    EXPECT_FALSE(too_big.fits(device));
}

TEST(EstimatorTest, UnrollingScalesLatencyAndDsp)
{
    auto measure = [&](int64_t unroll) {
        KernelBuilder kb("k");
        Value* a = kb.local({64, 64}, "A");
        kb.nest({64, 64}, [&](OpBuilder& b, const std::vector<Value*>& iv) {
            Value* x = kb.load(b, a, {iv[0], iv[1]});
            kb.store(b, kb.mul(b, x, x), a, {iv[0], iv[1]});
        });
        OwnedModule module = kb.takeModule();
        FuncOp func(nullptr);
        for (Operation* op : module.get().body()->ops())
            if (auto f = dynCast<FuncOp>(op))
                func = f;
        ForOp outer = topLevelLoops(func.body())[0];
        perfectNest(outer)[1].setUnrollFactor(unroll);
        QorEstimator estimator(TargetDevice::zu3eg());
        return estimator.estimateLoop(outer);
    };
    DesignQor base = measure(1);
    DesignQor unrolled = measure(8);
    EXPECT_GT(base.latencyCycles, unrolled.latencyCycles * 4);
    EXPECT_GT(unrolled.res.dsp, base.res.dsp * 4);
}

TEST(EstimatorTest, AccumulationRecurrenceBoundsII)
{
    // Float accumulation: II >= adder latency on the reduction loop.
    KernelBuilder kb("acc");
    Value* a = kb.local({64}, "A");
    Value* s = kb.local({1}, "s");
    kb.nest({64}, [&](OpBuilder& b, const std::vector<Value*>& iv) {
        Value* zero = kb.constant(b, Type::index(), 0);
        Value* x = kb.load(b, a, {iv[0]});
        Value* acc = kb.load(b, s, {zero});
        kb.store(b, kb.add(b, acc, x), s, {zero});
    });
    OwnedModule module = kb.takeModule();
    FuncOp func(nullptr);
    for (Operation* op : module.get().body()->ops())
        if (auto f = dynCast<FuncOp>(op))
            func = f;
    ForOp loop = topLevelLoops(func.body())[0];
    QorEstimator estimator(TargetDevice::zu3eg());
    DesignQor qor = estimator.estimateLoop(loop);
    // f32 add latency is 5: 64 iterations at II=5.
    EXPECT_GE(qor.latencyCycles, 64 * 5);
}

TEST(EstimatorTest, BufferResourcesBramVsLutram)
{
    OwnedModule module = buildPolybenchKernel("2mm", 32);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::zu3eg());
    QorEstimator estimator(TargetDevice::zu3eg());
    // 32x32 f32 = 32Kb: a couple of BRAM18K per stage.
    int64_t total = estimator.bramOf(module.get().op());
    EXPECT_GE(total, 2);
    EXPECT_LE(total, 64);
}

TEST(EstimatorTest, ExternalBufferCostsNoBram)
{
    KernelBuilder kb("ext");
    Value* a = kb.local({1024}, "A");
    // Retype as external.
    a->setType(a->type().withMemorySpace(MemorySpace::kExternal));
    kb.nest({1024}, [&](OpBuilder& b, const std::vector<Value*>& iv) {
        Value* x = kb.load(b, a, {iv[0]});
        kb.store(b, x, a, {iv[0]});
    });
    OwnedModule module = kb.takeModule();
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::zu3eg());
    QorEstimator estimator(TargetDevice::zu3eg());
    EXPECT_EQ(estimator.bramOf(module.get().op()), 0);
}

TEST(EstimatorTest, DataflowOverlapBeatsSequential)
{
    // 3mm under HIDA overlaps; under ScaleHLS the multi-producer init
    // nests serialize the schedule (Section 6.4.1).
    OwnedModule hida_mod = buildPolybenchKernel("3mm", 32);
    OwnedModule scale_mod = buildPolybenchKernel("3mm", 32);
    FlowOptions hida_opts = optionsFor(Flow::kHida);
    hida_opts.enableParallelization = false;
    FlowOptions scale_opts = optionsFor(Flow::kScaleHls);
    scale_opts.enableParallelization = false;
    CompileResult hida =
        compile(hida_mod.get(), hida_opts, TargetDevice::zu3eg());
    CompileResult scalehls =
        compile(scale_mod.get(), scale_opts, TargetDevice::zu3eg());
    EXPECT_LT(hida.qor.intervalCycles, scalehls.qor.intervalCycles);
}

TEST(EstimatorTest, PartitioningRemovesPortConflicts)
{
    auto interval_at = [&](int64_t factor) {
        KernelBuilder kb("p");
        Value* a = kb.local({64, 64}, "A");
        kb.nest({64, 64}, [&](OpBuilder& b, const std::vector<Value*>& iv) {
            Value* x = kb.load(b, a, {iv[0], iv[1]});
            kb.store(b, kb.mul(b, x, x), a, {iv[0], iv[1]});
        });
        OwnedModule module = kb.takeModule();
        FlowOptions options = optionsFor(Flow::kHida);
        options.enableParallelization = false;
        compile(module.get(), options, TargetDevice::zu3eg());
        // Unroll the inner loop by 8 but partition by `factor`.
        ForOp outer(nullptr);
        module.get().op()->walk([&](Operation* op) {
            if (isa<ForOp>(op) && !op->parentOfName(opNameId<ForOp>()))
                outer = ForOp(op);
        });
        perfectNest(outer)[1].setUnrollFactor(8);
        module.get().op()->walk([&](Operation* op) {
            if (auto buffer = dynCast<BufferOp>(op))
                buffer.setPartition({0, 1},
                                    {1, factor});
        });
        QorEstimator estimator(TargetDevice::zu3eg());
        FuncOp func(nullptr);
        for (Operation* op : module.get().body()->ops())
            if (auto f = dynCast<FuncOp>(op))
                func = f;
        return estimator.estimateFunc(func).intervalCycles;
    };
    // Banked buffer sustains the unrolled accesses; unbanked conflicts.
    EXPECT_LT(interval_at(8), interval_at(1));
}

/**
 * Hand-built three-node pipeline schedule for pinning the schedule-level
 * cache counters exactly:
 *
 *   schedule { A = buffer; B = buffer;
 *              n1 { for: store A }  n2 { for: A -> B }  n3 { for: load B } }
 */
struct ScheduleCacheFixture {
    OwnedModule module;
    FuncOp func{nullptr};
    ScheduleOp schedule{nullptr};
    NodeOp n1{nullptr}, n2{nullptr}, n3{nullptr};
    BufferOp bufA{nullptr}, bufB{nullptr};
    ForOp loop2{nullptr};  ///< The nest inside n2 (directive target).

    ScheduleCacheFixture()
    {
        OpBuilder top(module.get().body());
        func = FuncOp::create(top, "sched", {});
        OpBuilder fb(func.body());
        schedule = ScheduleOp::create(fb, {});
        OpBuilder sb(schedule.body());
        Type mem = Type::memref({32}, Type::f32(), MemorySpace::kOnChip);
        bufA = BufferOp::create(sb, mem, /*stages=*/2, "A");
        bufB = BufferOp::create(sb, mem, /*stages=*/2, "B");

        n1 = NodeOp::create(sb, {bufA.op()->result(0)},
                            {MemoryEffect::kWrite}, "n1");
        {
            OpBuilder nb(n1.body());
            ForOp loop = ForOp::create(nb, 0, 32);
            OpBuilder lb(loop.body());
            Value* one =
                ConstantOp::create(lb, Type::f32(), 1.0).op()->result(0);
            StoreOp::create(lb, one, n1.innerArg(0), {loop.inductionVar()});
        }
        n2 = NodeOp::create(sb,
                            {bufA.op()->result(0), bufB.op()->result(0)},
                            {MemoryEffect::kRead, MemoryEffect::kWrite},
                            "n2");
        {
            OpBuilder nb(n2.body());
            loop2 = ForOp::create(nb, 0, 32);
            OpBuilder lb(loop2.body());
            Value* x = LoadOp::create(lb, n2.innerArg(0),
                                      {loop2.inductionVar()})
                           .op()
                           ->result(0);
            StoreOp::create(lb, x, n2.innerArg(1), {loop2.inductionVar()});
        }
        n3 = NodeOp::create(sb, {bufB.op()->result(0)},
                            {MemoryEffect::kRead}, "n3");
        {
            OpBuilder nb(n3.body());
            ForOp loop = ForOp::create(nb, 0, 32);
            OpBuilder lb(loop.body());
            LoadOp::create(lb, n3.innerArg(0), {loop.inductionVar()});
        }
    }

    /** Cold-estimator reference for the current directive state. */
    DesignQor
    cold()
    {
        QorEstimator estimator(TargetDevice::zu3eg());
        return estimator.estimateFunc(func);
    }
};

/** Warm results must equal a cold estimator's, field for field. */
void
expectEqualQor(const DesignQor& warm, const DesignQor& cold,
               const char* when)
{
    EXPECT_EQ(warm.latencyCycles, cold.latencyCycles) << when;
    EXPECT_EQ(warm.intervalCycles, cold.intervalCycles) << when;
    EXPECT_EQ(warm.res.lut, cold.res.lut) << when;
    EXPECT_EQ(warm.res.ff, cold.res.ff) << when;
    EXPECT_EQ(warm.res.dsp, cold.res.dsp) << when;
    EXPECT_EQ(warm.res.bram18k, cold.res.bram18k) << when;
}

TEST(ScheduleCacheTest, RepeatEstimateReusesSkeletonAndSimResult)
{
    ScheduleCacheFixture f;
    QorEstimator estimator(TargetDevice::zu3eg());
    DesignQor first = estimator.estimateFunc(f.func);
    QorCacheStats s1 = estimator.cacheStats();
    EXPECT_EQ(s1.scheduleBuilds, 1u);
    EXPECT_EQ(s1.scheduleReuses, 0u);
    EXPECT_EQ(s1.misses, 3u);  // one per node
    EXPECT_EQ(s1.hits, 0u);
    EXPECT_EQ(s1.simRuns, 1u);
    EXPECT_EQ(s1.simSkips, 0u);
    // One nest plan and one root plan per node.
    EXPECT_EQ(s1.planBuilds, 6u);

    // Unchanged directives: the skeleton, every node estimate AND the
    // cached SimResult are reused — no node memo lookup even happens.
    DesignQor second = estimator.estimateFunc(f.func);
    QorCacheStats s2 = estimator.cacheStats();
    EXPECT_EQ(s2.scheduleBuilds, 1u);
    EXPECT_EQ(s2.scheduleReuses, 1u);
    EXPECT_EQ(s2.misses, 3u);
    EXPECT_EQ(s2.hits, 0u);
    EXPECT_EQ(s2.simRuns, 1u);
    EXPECT_EQ(s2.simSkips, 1u);
    EXPECT_EQ(s2.planBuilds, 6u);
    expectEqualQor(second, first, "repeat pass");
}

TEST(ScheduleCacheTest, DirectiveEditReestimatesOnlyTheMutatedNode)
{
    ScheduleCacheFixture f;
    QorEstimator estimator(TargetDevice::zu3eg());
    estimator.estimateFunc(f.func);

    // Unrolling the nest inside n2 re-estimates exactly n2 (one new
    // miss, no hits), reuses the cached graph/sim skeleton, and
    // re-simulates because n2's per-frame latency moved.
    f.loop2.setUnrollFactor(2);
    DesignQor warm = estimator.estimateFunc(f.func);
    QorCacheStats s = estimator.cacheStats();
    EXPECT_EQ(s.scheduleBuilds, 1u);
    EXPECT_EQ(s.scheduleReuses, 1u);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.simRuns, 2u);
    // A directive-only point builds no plan: the miss reads n2's plans.
    EXPECT_EQ(s.planBuilds, 6u);
    expectEqualQor(warm, f.cold(), "after unroll");

    // Reverting the directive restores the original fingerprint: the
    // node comes back as a memo hit, never a recompute.
    f.loop2.op()->removeAttr(ForOp::unrollId());
    warm = estimator.estimateFunc(f.func);
    s = estimator.cacheStats();
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.simRuns, 3u);
    expectEqualQor(warm, f.cold(), "after revert");
}

TEST(ScheduleCacheTest, StructuralEditForcesSkeletonRebuild)
{
    ScheduleCacheFixture f;
    QorEstimator estimator(TargetDevice::zu3eg());
    estimator.estimateFunc(f.func);

    // A structural edit in the schedule body (moving an op) bumps the
    // structure epoch: the graph/sim skeleton is rebuilt and the frame
    // simulation re-runs. The node estimates themselves are untouched,
    // so all three come back as memo hits.
    f.bufB.op()->moveToFront(f.schedule.body());
    DesignQor warm = estimator.estimateFunc(f.func);
    QorCacheStats s = estimator.cacheStats();
    EXPECT_EQ(s.scheduleBuilds, 2u);
    EXPECT_EQ(s.scheduleReuses, 0u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.simRuns, 2u);
    // The hits read no nest plan; the rebuilt skeleton re-reads each
    // node's tile frames, whose root plan the epoch invalidated.
    EXPECT_EQ(s.planBuilds, 9u);
    expectEqualQor(warm, f.cold(), "after structural move");
}

TEST(ScheduleCacheTest, EffectEditForcesSkeletonRebuild)
{
    ScheduleCacheFixture f;
    QorEstimator estimator(TargetDevice::zu3eg());
    estimator.estimateFunc(f.func);

    // An effect flip is an attribute write, not an op insert or move,
    // yet it rewires the dataflow graph: with n2 only reading B, B has
    // no producer and n3 no longer waits on n2. "effects" is a
    // structural key, so the skeleton must be rebuilt, never reused.
    f.n2.setEffect(1, MemoryEffect::kRead);
    DesignQor warm = estimator.estimateFunc(f.func);
    QorCacheStats s = estimator.cacheStats();
    EXPECT_EQ(s.scheduleBuilds, 2u);
    EXPECT_EQ(s.scheduleReuses, 0u);
    expectEqualQor(warm, f.cold(), "after effect flip");
}

TEST(ScheduleCacheTest, ChannelDepthEditResimulatesWithoutNodeReestimates)
{
    ScheduleCacheFixture f;
    QorEstimator estimator(TargetDevice::zu3eg());
    estimator.estimateFunc(f.func);

    // "stages" feeds only the channel capacity (and the buffer's own
    // resources), not any node fingerprint: the warm pass re-simulates
    // with the new capacity but performs zero node memo lookups.
    f.bufB.setStages(4);
    DesignQor warm = estimator.estimateFunc(f.func);
    QorCacheStats s = estimator.cacheStats();
    EXPECT_EQ(s.scheduleBuilds, 1u);
    EXPECT_EQ(s.scheduleReuses, 1u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.simRuns, 2u);
    expectEqualQor(warm, f.cold(), "after stages edit");

    // Same contract for the balancing-written soft-FIFO depth.
    f.bufA.op()->setIntAttr(BufferOp::softFifoDepthId(), 6);
    warm = estimator.estimateFunc(f.func);
    s = estimator.cacheStats();
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.simRuns, 3u);
    expectEqualQor(warm, f.cold(), "after soft_fifo_depth edit");

    // And once the depths settle, the SimResult is served from cache.
    warm = estimator.estimateFunc(f.func);
    s = estimator.cacheStats();
    EXPECT_EQ(s.simRuns, 3u);
    EXPECT_EQ(s.simSkips, 1u);
    expectEqualQor(warm, f.cold(), "settled depths");
}

TEST(ScheduleCacheTest, StagesEditUpdatesBufferResourcesThroughTheMemo)
{
    ScheduleCacheFixture f;
    QorEstimator estimator(TargetDevice::zu3eg());
    DesignQor before = estimator.estimateFunc(f.func);
    QorCacheStats s1 = estimator.cacheStats();

    // B is a 1 Kb LUTRAM buffer, so its LUT/FF cost scales with its
    // ping-pong stages. The per-buffer memo revalidates on B's subtree
    // hash: the edit re-hashes B once (its two readers' fingerprints and
    // the resource read share that one recompute), the resources move,
    // and no node estimate is looked up.
    f.bufB.setStages(4);
    DesignQor after = estimator.estimateFunc(f.func);
    QorCacheStats s2 = estimator.cacheStats();
    EXPECT_GT(after.res.lut, before.res.lut);
    EXPECT_GT(after.res.ff, before.res.ff);
    EXPECT_EQ(s2.misses, s1.misses);
    EXPECT_EQ(s2.hits, s1.hits);
    EXPECT_EQ(s2.hashRecomputes, s1.hashRecomputes + 1);
    expectEqualQor(after, f.cold(), "after stages edit");

    // invalidateCache() drops the memo with the other caches; the
    // rebuilt entries give the same answer.
    estimator.invalidateCache();
    expectEqualQor(estimator.estimateFunc(f.func), after, "after invalidate");
}

TEST(ScheduleCacheTest, NestedScheduleDepthEditInvalidatesOuterNode)
{
    // Regression: a memoized *node* estimate can embed a nested
    // schedule's simulated interval, which depends on channel depths.
    // For such hierarchical subtrees the node fingerprint must fold the
    // full buffer hash (stages included) — the depth-exclusion
    // optimization only applies to leaf subtrees.
    OwnedModule module;
    OpBuilder top(module.get().body());
    FuncOp func = FuncOp::create(top, "nested", {});
    OpBuilder fb(func.body());
    ScheduleOp outer = ScheduleOp::create(fb, {});
    OpBuilder ob(outer.body());
    Type mem = Type::memref({32}, Type::f32(), MemorySpace::kOnChip);
    BufferOp bufC = BufferOp::create(ob, mem, /*stages=*/1, "C");
    NodeOp wrap = NodeOp::create(ob, {bufC.op()->result(0)},
                                 {MemoryEffect::kReadWrite}, "wrap");
    OpBuilder wb(wrap.body());
    ScheduleOp inner = ScheduleOp::create(wb, {wrap.innerArg(0)});
    OpBuilder ib(inner.body());
    Value* chan = inner.body()->argument(0);
    auto make_tiled_node = [&](MemoryEffect effect, bool writes) {
        NodeOp node = NodeOp::create(ib, {chan}, {effect},
                                     writes ? "p" : "q");
        OpBuilder nb(node.body());
        ForOp tile = ForOp::create(nb, 0, 4);
        tile.op()->setAttr(ForOp::tileLoopId(), Attribute::unit());
        OpBuilder tb(tile.body());
        ForOp loop = ForOp::create(tb, 0, 8);
        OpBuilder lb(loop.body());
        if (writes) {
            Value* one =
                ConstantOp::create(lb, Type::f32(), 1.0).op()->result(0);
            StoreOp::create(lb, one, node.innerArg(0),
                            {loop.inductionVar()});
        } else {
            LoadOp::create(lb, node.innerArg(0), {loop.inductionVar()});
        }
        return node;
    };
    make_tiled_node(MemoryEffect::kWrite, true);
    make_tiled_node(MemoryEffect::kRead, false);

    QorEstimator warm(TargetDevice::zu3eg());
    warm.estimateFunc(func);
    // Raising the channel depth relieves the nested back-pressure; the
    // warm estimator must not serve the capacity-1 node estimate.
    bufC.setStages(4);
    DesignQor after = warm.estimateFunc(func);
    QorEstimator cold(TargetDevice::zu3eg());
    DesignQor fresh = cold.estimateFunc(func);
    expectEqualQor(after, fresh, "nested schedule after stages edit");
}

TEST(EstimatorTest, CompileIsFast)
{
    // The headline productivity claim: full flows run in far under the
    // paper's 0.4-minute LeNet compile budget.
    OwnedModule module = buildPolybenchKernel("correlation");
    CompileResult result =
        compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
    EXPECT_LT(result.compileSeconds, 60.0);
}

} // namespace
} // namespace hida
