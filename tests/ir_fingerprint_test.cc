/**
 * @file
 * Incremental subtree-fingerprint tests: every IR mutation (attribute
 * set/erase, op insert/move/erase, value retyping, block growth) must dirty
 * the cached hash of the mutated op and its whole ancestor chain, while
 * untouched siblings keep serving their cached hash (observable through the
 * Operation::subtreeHashStats counters). The estimator-level tests pin the
 * correctness contract: after any directive mutation, a warm estimator's
 * results must equal a cold estimator's.
 */

#include <gtest/gtest.h>

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/driver/driver.h"
#include "src/estimator/qor.h"
#include "src/frontend/loop_builder.h"
#include "src/ir/builtin_ops.h"

namespace hida {
namespace {

/** module { func { for (outer) { for (inner) {} } for (sibling) {} } } */
struct NestFixture {
    OwnedModule module;
    FuncOp func{nullptr};
    ForOp outer{nullptr};
    ForOp inner{nullptr};
    ForOp sibling{nullptr};

    NestFixture()
    {
        OpBuilder builder(module.get().body());
        func = FuncOp::create(builder, "k", {});
        OpBuilder body(func.body());
        outer = ForOp::create(body, 0, 16);
        {
            OpBuilder inner_builder(outer.body());
            inner = ForOp::create(inner_builder, 0, 8);
        }
        sibling = ForOp::create(body, 0, 4);
    }

    /** Hash the whole module, making every op's cache valid. */
    uint64_t
    warm()
    {
        return module.get().op()->subtreeHash();
    }
};

TEST(FingerprintTest, AttrSetDirtiesAncestorChainOnly)
{
    NestFixture f;
    uint64_t before = f.warm();
    ASSERT_TRUE(f.inner.op()->subtreeHashCached());

    f.inner.setUnrollFactor(4);
    EXPECT_FALSE(f.inner.op()->subtreeHashCached());
    EXPECT_FALSE(f.outer.op()->subtreeHashCached());
    EXPECT_FALSE(f.func.op()->subtreeHashCached());
    EXPECT_FALSE(f.module.get().op()->subtreeHashCached());
    // The untouched sibling nest keeps its cached hash.
    EXPECT_TRUE(f.sibling.op()->subtreeHashCached());

    uint64_t after = f.warm();
    EXPECT_NE(before, after);

    // Equal-value re-application is a no-op: nothing is dirtied.
    f.inner.setUnrollFactor(4);
    EXPECT_TRUE(f.module.get().op()->subtreeHashCached());
    EXPECT_EQ(f.warm(), after);

    // Removing the directive restores the original structural hash.
    f.inner.op()->removeAttr(ForOp::unrollId());
    EXPECT_FALSE(f.module.get().op()->subtreeHashCached());
    EXPECT_EQ(f.warm(), before);
}

TEST(FingerprintTest, ExemptAttrWritesDoNotDirty)
{
    NestFixture f;
    uint64_t before = f.warm();
    // "ii" is the estimator-written output and is pre-registered as
    // hash-exempt: writing or erasing it must not invalidate anything.
    f.inner.op()->setIntAttr(ForOp::iiId(), 3);
    EXPECT_TRUE(f.module.get().op()->subtreeHashCached());
    EXPECT_EQ(f.warm(), before);
    f.inner.op()->removeAttr(ForOp::iiId());
    EXPECT_TRUE(f.module.get().op()->subtreeHashCached());
    EXPECT_EQ(f.warm(), before);
}

TEST(FingerprintTest, StructuralKeyWritesBumpTheEpoch)
{
    NestFixture f;
    Operation* root = f.module.get().op();
    Operation* loop = f.inner.op();
    uint64_t epoch = root->structureEpoch();

    // A directive write is not structural.
    loop->setIntAttr(ForOp::unrollId(), 4);
    EXPECT_EQ(root->structureEpoch(), epoch);

    // "layer_seq" is pre-registered: a changed value or a removal moves
    // the epoch, an unchanged write or a missing key does not.
    loop->setIntAttr(ForOp::layerSeqId(), 1);
    EXPECT_NE(root->structureEpoch(), epoch);
    epoch = root->structureEpoch();
    loop->setIntAttr(ForOp::layerSeqId(), 1);
    EXPECT_EQ(root->structureEpoch(), epoch);
    loop->removeAttr(ForOp::layerSeqId());
    EXPECT_NE(root->structureEpoch(), epoch);
    epoch = root->structureEpoch();
    loop->removeAttr(ForOp::layerSeqId());
    EXPECT_EQ(root->structureEpoch(), epoch);

    // A key registered later (a grid's loop tag) behaves the same from
    // then on, and the set grows without a fixed cap.
    Identifier tag = Identifier::get("structural_test_tag");
    loop->setAttr(tag, Attribute::unit());
    EXPECT_EQ(root->structureEpoch(), epoch);
    EXPECT_FALSE(Operation::isAttrStructural(tag));
    for (int i = 0; i < 40; ++i)
        Operation::addAttrStructural(
            Identifier::get("structural_test_tag_" + std::to_string(i)));
    Operation::addAttrStructural(tag);
    EXPECT_TRUE(Operation::isAttrStructural(tag));
    for (int i = 0; i < 40; ++i)
        EXPECT_TRUE(Operation::isAttrStructural(
            Identifier::get("structural_test_tag_" + std::to_string(i))));
    EXPECT_TRUE(Operation::isAttrStructural(Identifier::get("coeffs")));
    EXPECT_TRUE(Operation::isAttrStructural(NodeOp::effectsId()));
    EXPECT_FALSE(Operation::isAttrStructural(ForOp::unrollId()));
    loop->removeAttr(tag);
    EXPECT_NE(root->structureEpoch(), epoch);
}

TEST(FingerprintTest, InsertMoveEraseDirtyAncestorChain)
{
    NestFixture f;
    Operation* root = f.module.get().op();
    uint64_t epoch_before = root->structureEpoch();
    uint64_t before = f.warm();

    // Insert: new op in the inner body dirties inner/outer/func/module.
    OpBuilder builder(f.inner.body());
    Operation* leaf = builder.create(Identifier::get("test.leaf"));
    EXPECT_FALSE(f.inner.op()->subtreeHashCached());
    EXPECT_FALSE(f.module.get().op()->subtreeHashCached());
    EXPECT_TRUE(f.sibling.op()->subtreeHashCached());
    uint64_t with_leaf = f.warm();
    EXPECT_NE(before, with_leaf);

    // Move: both the source and destination chains are dirtied; the moved
    // op itself keeps its cached hash (its subtree did not change).
    leaf->moveToEnd(f.sibling.body());
    EXPECT_TRUE(leaf->subtreeHashCached());
    EXPECT_FALSE(f.inner.op()->subtreeHashCached());
    EXPECT_FALSE(f.sibling.op()->subtreeHashCached());
    uint64_t moved = f.warm();
    EXPECT_NE(with_leaf, moved);

    // Erase: the op's old chain is dirtied; the tree hash returns to the
    // pre-insert value.
    leaf->erase();
    EXPECT_FALSE(f.sibling.op()->subtreeHashCached());
    EXPECT_EQ(f.warm(), before);

    // Structural mutations (unlike attribute writes) move the tree's
    // epoch; epoch values are globally fresh, so "moved" reads as >.
    EXPECT_GT(root->structureEpoch(), epoch_before);
    uint64_t epoch_after = root->structureEpoch();
    f.inner.setUnrollFactor(2);
    EXPECT_EQ(root->structureEpoch(), epoch_after);
    // Any op of the tree reads the same (root-owned) epoch.
    EXPECT_EQ(f.inner.op()->structureEpoch(), epoch_after);
}

TEST(FingerprintTest, ValueRetypeDirtiesOwnerAndUsers)
{
    KernelBuilder kb("retype");
    Value* a = kb.local({32}, "A");
    kb.nest({32}, [&](OpBuilder& b, const std::vector<Value*>& iv) {
        Value* x = kb.load(b, a, {iv[0]});
        kb.store(b, x, a, {iv[0]});
    });
    OwnedModule module = kb.takeModule();
    Operation* root = module.get().op();
    uint64_t before = root->subtreeHash();

    a->setType(a->type().withMemorySpace(MemorySpace::kExternal));
    // Both the defining buffer op and the load/store users are dirtied.
    EXPECT_FALSE(a->definingOp()->subtreeHashCached());
    for (Operation* user : a->users())
        EXPECT_FALSE(user->subtreeHashCached());
    EXPECT_FALSE(root->subtreeHashCached());
    EXPECT_NE(root->subtreeHash(), before);
}

TEST(FingerprintTest, CleanSiblingsAreNotRehashed)
{
    NestFixture f;
    f.warm();

    // Re-hashing after one directive change recomputes exactly the dirty
    // path (module -> func -> outer -> inner) and serves everything else
    // from the cache.
    f.inner.setUnrollFactor(2);
    Operation::resetSubtreeHashStats();
    f.warm();
    const SubtreeHashStats& stats = Operation::subtreeHashStats();
    EXPECT_EQ(stats.recomputes, 4u);
    // At least the sibling nest must have been a cache hit.
    EXPECT_GE(stats.cacheHits, 1u);
    EXPECT_TRUE(f.sibling.op()->subtreeHashCached());

    // A fully clean tree is one cached read at the root.
    Operation::resetSubtreeHashStats();
    f.warm();
    EXPECT_EQ(Operation::subtreeHashStats().recomputes, 0u);
    EXPECT_EQ(Operation::subtreeHashStats().cacheHits, 1u);
}

/** DSE-style mutate/estimate helper over one compiled kernel module. */
struct EstimatorFixture {
    OwnedModule module;
    FuncOp func{nullptr};
    ForOp outer{nullptr};
    TargetDevice device = TargetDevice::zu3eg();

    EstimatorFixture()
    {
        KernelBuilder kb("k");
        Value* a = kb.local({64, 64}, "A");
        kb.nest({64, 64}, [&](OpBuilder& b, const std::vector<Value*>& iv) {
            Value* x = kb.load(b, a, {iv[0], iv[1]});
            kb.store(b, kb.mul(b, x, x), a, {iv[0], iv[1]});
        });
        module = kb.takeModule();
        FlowOptions options = optionsFor(Flow::kHida);
        options.enableParallelization = false;
        compile(module.get(), options, device);
        for (Operation* op : module.get().body()->ops())
            if (auto fn = dynCast<FuncOp>(op))
                func = fn;
        module.get().op()->walk([&](Operation* op) {
            if (isa<ForOp>(op) && !op->parentOfName(opNameId<ForOp>()))
                outer = ForOp(op);
        });
    }
};

TEST(FingerprintTest, WarmEstimatesEqualColdAfterMutation)
{
    EstimatorFixture f;
    QorEstimator warm(f.device);
    // Prime the memo at the default directive point.
    warm.estimateFunc(f.func);

    // Sweep a few directive points, interleaving repeats: the warm
    // estimator (internally memoized + incremental hashes) must agree
    // with a cold estimator at every point.
    for (int64_t factor : {4, 8, 1, 4, 16, 8}) {
        perfectNest(f.outer)[1].setUnrollFactor(factor);
        DesignQor incremental = warm.estimateFunc(f.func);
        QorEstimator cold(f.device);
        DesignQor scratch = cold.estimateFunc(f.func);
        EXPECT_EQ(incremental.latencyCycles, scratch.latencyCycles)
            << "factor " << factor;
        EXPECT_DOUBLE_EQ(incremental.intervalCycles, scratch.intervalCycles);
        EXPECT_EQ(incremental.res.dsp, scratch.res.dsp);
        EXPECT_EQ(incremental.res.lut, scratch.res.lut);
        EXPECT_EQ(incremental.res.bram18k, scratch.res.bram18k);
    }
}

TEST(FingerprintTest, BufferPartitionChangeInvalidatesDependentEstimates)
{
    EstimatorFixture f;
    perfectNest(f.outer)[1].setUnrollFactor(8);
    QorEstimator warm(f.device);

    // Mutating the buffer's partition directives lives *outside* the
    // estimated loop subtree; the fingerprint must still change via the
    // buffer-op hash contribution, so the warm estimator may not reuse
    // the factor=1 estimate.
    for (int64_t factor : {1, 8, 1}) {
        f.module.get().op()->walk([&](Operation* op) {
            if (auto buffer = dynCast<BufferOp>(op))
                buffer.setPartition({0, 1}, {1, factor});
        });
        DesignQor incremental = warm.estimateFunc(f.func);
        QorEstimator cold(f.device);
        DesignQor scratch = cold.estimateFunc(f.func);
        EXPECT_EQ(incremental.latencyCycles, scratch.latencyCycles)
            << "partition factor " << factor;
        EXPECT_DOUBLE_EQ(incremental.intervalCycles, scratch.intervalCycles);
    }
}

TEST(FingerprintTest, RepeatedPointsHitTheMemo)
{
    EstimatorFixture f;
    QorEstimator estimator(f.device);
    perfectNest(f.outer)[1].setUnrollFactor(4);
    estimator.estimateFunc(f.func);
    QorCacheStats first = estimator.cacheStats();
    // Re-estimating the same directive point must be all memo hits.
    estimator.estimateFunc(f.func);
    QorCacheStats second = estimator.cacheStats();
    EXPECT_EQ(second.misses, first.misses);
    EXPECT_GT(second.hits, first.hits);
    // And it must not re-hash anything: the tree is clean.
    EXPECT_EQ(second.hashRecomputes, first.hashRecomputes);
    EXPECT_GT(second.hashCacheHits, first.hashCacheHits);
}

TEST(FingerprintTest, HashCountersCountOnlyTheEstimatorsOwnWork)
{
    // The per-thread subtree-hash counters are cumulative over all the
    // thread ran (here: the fixture's compile). An estimator reports
    // only the hashing its own fingerprints did.
    EstimatorFixture f;
    perfectNest(f.outer)[1].setUnrollFactor(4);
    QorEstimator first(f.device);
    first.estimateFunc(f.func);
    const QorCacheStats warm = first.cacheStats();
    EXPECT_GT(warm.hashRecomputes, 0u);
    EXPECT_LT(warm.hashRecomputes, Operation::subtreeHashStats().recomputes);

    // A second estimator over the now-clean tree re-hashes nothing.
    QorEstimator second(f.device);
    second.estimateFunc(f.func);
    EXPECT_EQ(second.cacheStats().hashRecomputes, 0u);
    EXPECT_GT(second.cacheStats().hashCacheHits, 0u);

    // Hashing outside both estimators is counted by neither.
    perfectNest(f.outer)[1].setUnrollFactor(2);
    f.module.get().op()->subtreeHash();
    EXPECT_EQ(first.cacheStats().hashRecomputes, warm.hashRecomputes);
    EXPECT_EQ(second.cacheStats().hashRecomputes, 0u);
}

} // namespace
} // namespace hida
