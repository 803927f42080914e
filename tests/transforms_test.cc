/**
 * @file
 * Per-pass transform tests: Algorithm 1 (construction), Algorithm 2
 * (fusion), Algorithm 3 (multi-producer elimination, both cases),
 * data-path balancing, structural lowering invariants and the
 * directive strip between parallel-factor trials — plus parameterized
 * property sweeps over workload families.
 */

#include <gtest/gtest.h>

#include "src/analysis/dataflow_graph.h"
#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/dialect/nn/nn_ops.h"
#include "src/driver/driver.h"
#include "src/frontend/loop_builder.h"
#include "src/frontend/torch_builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/models/dnn_models.h"
#include "src/models/polybench.h"

namespace hida {
namespace {

int
countOps(Operation* root, const std::string& name)
{
    int count = 0;
    root->walk([&](Operation* op) {
        if (op->name() == name)
            ++count;
    });
    return count;
}

TEST(ConstructionTest, WrapsLoopsIntoDispatchAndTasks)
{
    OwnedModule module = buildPolybenchKernel("3mm", 16);
    PassManager pm;
    pm.addPass(createFuncDataflowConstructPass());
    pm.run(module.get());
    // 3mm: six loop nests -> one dispatch with six tasks.
    EXPECT_EQ(countOps(module.get().op(), "hida.dispatch"), 1);
    EXPECT_EQ(countOps(module.get().op(), "hida.task"), 6);
}

TEST(ConstructionTest, SingleNestIsNotDispatchable)
{
    OwnedModule module = buildPolybenchKernel("symm", 16);
    PassManager pm;
    pm.addPass(createFuncDataflowConstructPass());
    pm.run(module.get());
    EXPECT_EQ(countOps(module.get().op(), "hida.dispatch"), 0);
}

TEST(ConstructionTest, NestedLoopDispatch)
{
    // jacobi-2d: the two sweeps live inside the time loop, so the dispatch
    // nests there (hierarchy of Section 5.1).
    OwnedModule module = buildPolybenchKernel("jacobi-2d", 16);
    PassManager pm;
    pm.addPass(createFuncDataflowConstructPass());
    pm.run(module.get());
    bool dispatch_in_loop = false;
    module.get().op()->walk([&](Operation* op) {
        if (op->name() == "hida.dispatch" &&
            op->parentOfName(opNameId<ForOp>()) != nullptr)
            dispatch_in_loop = true;
    });
    EXPECT_TRUE(dispatch_in_loop);
}

TEST(FusionTest, ReluFusedIntoProducer)
{
    int64_t macs = 0;
    OwnedModule module = buildTinyCnn(&macs);
    PassManager pm;
    FlowOptions options = optionsFor(Flow::kHida);
    pm.addPass(createFuncDataflowConstructPass());
    pm.addPass(createTaskFusionPass(options));
    pm.run(module.get());
    // Every standalone relu was absorbed into its producer's task.
    int relu_only_tasks = 0;
    module.get().op()->walk([&](Operation* op) {
        if (op->name() != "hida.task")
            return;
        int nn_ops = 0, relus = 0;
        op->walk([&](Operation* nested) {
            if (isNnOp(nested) && !isa<NnWeightOp>(nested)) {
                ++nn_ops;
                if (isa<ReluOp>(nested))
                    ++relus;
            }
        });
        if (nn_ops == 1 && relus == 1)
            ++relu_only_tasks;
    });
    EXPECT_EQ(relu_only_tasks, 0);
}

TEST(FusionTest, FusionPreservesVerification)
{
    OwnedModule module = buildLeNet(2);
    PassManager pm;
    pm.addPass(createFuncDataflowConstructPass());
    pm.addPass(createTaskFusionPass(optionsFor(Flow::kHida)));
    pm.run(module.get());
    EXPECT_FALSE(verify(module.get().op()).has_value());
}

/** Multi-producer elimination property over all multi-nest kernels. */
class MultiProducerProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(MultiProducerProperty, EveryChannelHasAtMostOneProducer)
{
    OwnedModule module = buildPolybenchKernel(GetParam(), 16);
    compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
    module.get().op()->walk([&](Operation* op) {
        if (!isa<ScheduleOp>(op))
            return;
        DataflowGraph graph{ScheduleOp(op)};
        std::vector<Value*> channels = graph.internalChannels();
        auto ext = graph.externalChannels();
        channels.insert(channels.end(), ext.begin(), ext.end());
        for (Value* channel : channels)
            EXPECT_LE(graph.producersOf(channel).size(), 1u)
                << GetParam() << ": " << channel->nameHint();
    });
    EXPECT_FALSE(verify(module.get().op()).has_value());
}

INSTANTIATE_TEST_SUITE_P(PolyBench, MultiProducerProperty,
                         ::testing::Values("2mm", "3mm", "atax", "bicg",
                                           "correlation", "gesummv",
                                           "jacobi-2d", "mvt", "syr2k"));

TEST(MultiProducerTest, InternalBufferDuplicatedWithCopy)
{
    // 2mm's tmp: init + accumulate -> duplication + explicit copy.
    OwnedModule module = buildPolybenchKernel("2mm", 16);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableBalancing = false;
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::zu3eg());
    EXPECT_GE(countOps(module.get().op(), "memref.copy"), 1);
    // The duplicate buffer exists.
    int dups = 0;
    module.get().op()->walk([&](Operation* op) {
        if (op->numResults() == 1 &&
            op->result(0)->nameHint().find("_dup") != std::string::npos)
            ++dups;
    });
    EXPECT_GE(dups, 1);
}

TEST(MultiProducerTest, ExternalProducersMerged)
{
    // syr2k writes C (a function argument) from two nests: they fuse.
    OwnedModule module = buildPolybenchKernel("syr2k", 16);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::zu3eg());
    module.get().op()->walk([&](Operation* op) {
        if (!isa<ScheduleOp>(op))
            return;
        DataflowGraph graph{ScheduleOp(op)};
        // Both nests ended up in a single node.
        EXPECT_EQ(graph.nodes().size(), 1u);
    });
}

TEST(BalanceTest, ResidualShortcutsGetTokensOrCopies)
{
    OwnedModule module = buildTinyCnn();
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::zu3eg());
    int tokens = 0, copies = 0, soft_fifos = 0;
    module.get().op()->walk([&](Operation* op) {
        if (isa<StreamOp>(op) && StreamOp(op).isToken())
            ++tokens;
        if (op->name() == "memref.copy")
            ++copies;
        if (op->hasAttr(BufferOp::softFifoDepthId()))
            ++soft_fifos;
    });
    // The shortcut around the two convs needs balancing somewhere.
    EXPECT_GE(tokens + copies + soft_fifos, 1);
    EXPECT_FALSE(verify(module.get().op()).has_value());
}

TEST(BalanceTest, DisablingBalancingLeavesPathsUnbalanced)
{
    auto interval_with = [&](bool balancing) {
        OwnedModule module = buildTinyCnn();
        FlowOptions options = optionsFor(Flow::kHida);
        options.enableBalancing = balancing;
        CompileResult result =
            compile(module.get(), options, TargetDevice::zu3eg());
        return result.qor.intervalCycles;
    };
    EXPECT_LE(interval_with(true), interval_with(false) * 1.01);
}

TEST(LoweringTest, StructuralNodesAreIsolated)
{
    OwnedModule module = buildPolybenchKernel("atax", 16);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::zu3eg());
    // Verifier enforces isolation; also check effects exist per operand.
    module.get().op()->walk([&](Operation* op) {
        if (auto node = dynCast<NodeOp>(op)) {
            EXPECT_EQ(node.effects().size(), op->numOperands());
            // At least one written channel per node.
            EXPECT_GE(node.writtenOperandIndices().size(), 1u)
                << node.label();
        }
    });
    EXPECT_FALSE(verify(module.get().op()).has_value());
}

TEST(LoweringTest, TiledConvProducesFourSubNodes)
{
    OwnedModule module = buildTinyCnn();
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::zu3eg());
    int inner_schedules_with_four = 0;
    module.get().op()->walk([&](Operation* op) {
        if (isa<ScheduleOp>(op) &&
            op->parentOfName(opNameId<ScheduleOp>()) != nullptr) {
            if (ScheduleOp(op).nodes().size() == 4)
                ++inner_schedules_with_four;
        }
    });
    EXPECT_GE(inner_schedules_with_four, 3);  // three convs + linear
}

/** ArrayPartition property: banks never exceed the dimension extent and
 * factors divide or are divided by the access-required factor. */
class PartitionProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(PartitionProperty, FactorsBoundedByShape)
{
    FlowOptions options = optionsFor(Flow::kHida);
    options.maxParallelFactor = GetParam();
    OwnedModule module = buildPolybenchKernel("2mm", 32);
    compile(module.get(), options, TargetDevice::zu3eg());
    module.get().op()->walk([&](Operation* op) {
        if (auto buffer = dynCast<BufferOp>(op)) {
            auto factors = buffer.partitionFactors();
            const auto& shape = buffer.type().shape();
            for (size_t d = 0; d < factors.size(); ++d) {
                EXPECT_GE(factors[d], 1);
                EXPECT_LE(factors[d], shape[d]);
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Budgets, PartitionProperty,
                         ::testing::Values(1, 2, 8, 32, 128));

/**
 * stripSuffixDirectives undoes a suffix run exactly: after each trial's
 * suffix and estimate, the strip must bring the printed IR back to the
 * post-prefix print. A printed comparison cannot collide the way the
 * trial evaluator's hash check can. The suffix and the strip share one
 * site plan, as in a TrialEvaluator.
 */
void
expectStripRestoresPrefix(OwnedModule module, Flow flow,
                          const TargetDevice& device)
{
    FlowOptions options = optionsFor(flow);
    PassManager prefix;
    addPrefixPasses(prefix, options);
    prefix.run(module.get());
    const std::string after_prefix = toString(module.get().op());
    SitePlan sites;
    for (int64_t pf : {1, 16, 512}) {
        SCOPED_TRACE(flowName(flow) + " pf=" + std::to_string(pf));
        options.maxParallelFactor = pf;
        PassManager suffix;
        addSuffixPasses(suffix, options, nullptr, &sites);
        suffix.run(module.get());
        QorEstimator(device).estimateFunc(topFunc(module.get()));
        // Compare without printing: a mismatch would dump the whole IR.
        EXPECT_FALSE(toString(module.get().op()) == after_prefix)
            << "the suffix wrote nothing";
        stripSuffixDirectives(module.get(), sites);
        EXPECT_TRUE(toString(module.get().op()) == after_prefix)
            << "the strip left a suffix directive behind";
    }
}

TEST(StripSuffixTest, RestoresPostPrefixIr)
{
    expectStripRestoresPrefix(buildDnnModel("ResNet-18"), Flow::kHida,
                              TargetDevice::vu9pSlr());
    expectStripRestoresPrefix(buildPolybenchKernel("2mm"), Flow::kScaleHls,
                              TargetDevice::zu3eg());
}

/** Full-flow property: every flow on every kernel verifies and yields a
 * positive throughput. */
class FlowProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FlowProperty, CompilesVerifiesEstimates)
{
    auto [kernel, flow_index] = GetParam();
    Flow flow = static_cast<Flow>(flow_index);
    OwnedModule module = buildPolybenchKernel(kernel, 16);
    CompileResult result =
        compile(module.get(), flow, TargetDevice::zu3eg());
    EXPECT_FALSE(verify(module.get().op()).has_value())
        << kernel << " " << flowName(flow);
    EXPECT_GT(result.qor.throughput(TargetDevice::zu3eg()), 0.0);
    EXPECT_GE(result.qor.latencyCycles, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllFlows, FlowProperty,
    ::testing::Combine(::testing::Values("2mm", "3mm", "atax", "bicg",
                                         "correlation", "gesummv",
                                         "jacobi-2d", "mvt", "seidel-2d",
                                         "symm", "syr2k"),
                       ::testing::Values(0, 1, 2)));

/**
 * The site plan's innermost loops, found in its one pre-order walk, are
 * what the per-loop definition gives: each loop whose own subtree walk
 * finds no other loop, in walk order. The definition is kept here as the
 * reference.
 */
std::vector<Operation*>
referenceInnermostLoops(Operation* root)
{
    std::vector<Operation*> result;
    root->walk([&](Operation* op) {
        if (!isa<ForOp>(op))
            return;
        bool has_nested_loop = false;
        op->walk([&](Operation* nested) {
            if (nested != op && isa<ForOp>(nested))
                has_nested_loop = true;
        });
        if (!has_nested_loop)
            result.push_back(op);
    });
    return result;
}

/** Ops of kind @p OpT in pre-order. */
template <typename OpT>
std::vector<Operation*>
preOrder(Operation* root)
{
    std::vector<Operation*> ops;
    root->walk([&](Operation* op) {
        if (isa<OpT>(op))
            ops.push_back(op);
    }, WalkOrder::kPreOrder);
    return ops;
}

TEST(SitePlanTest, MatchesPerKindWalksOnZooAfterPrefix)
{
    for (const char* name :
         {"ResNet-18", "MobileNet", "ZFNet", "VGG-16", "YOLO", "MLP"}) {
        SCOPED_TRACE(name);
        OwnedModule module = buildDnnModel(name);
        PassManager prefix;
        addPrefixPasses(prefix, optionsFor(Flow::kHida));
        prefix.run(module.get());
        Operation* root = module.get().op();
        SitePlan plan;
        plan.refresh(module.get());
        const std::vector<Operation*> innermost =
            referenceInnermostLoops(root);
        ASSERT_FALSE(innermost.empty());
        EXPECT_TRUE(plan.innermostLoops() == innermost);
        EXPECT_TRUE(plan.schedules() == preOrder<ScheduleOp>(root));
        EXPECT_TRUE(plan.loops() == preOrder<ForOp>(root));
        EXPECT_TRUE(plan.nodes() == preOrder<NodeOp>(root));
        EXPECT_TRUE(plan.buffers() == preOrder<BufferOp>(root));
        // Directive writes leave it alone; a structural edit rebuilds it.
        plan.refresh(module.get());
        ForOp(innermost.front()).setPipelined();
        plan.refresh(module.get());
        EXPECT_EQ(plan.builds(), 1u);
        OpBuilder builder;
        builder.setInsertionPointToStart(ForOp(innermost.front()).body());
        ConstantOp::create(builder, Type::f32(), 1.0);
        plan.refresh(module.get());
        EXPECT_EQ(plan.builds(), 2u);
    }
}

} // namespace
} // namespace hida
