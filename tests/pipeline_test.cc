/**
 * @file
 * End-to-end pipeline tests: every flow on representative workloads, IR
 * validity after each stage, and the structural properties the paper's
 * transforms guarantee (single producers, balanced paths, constraint-
 * respecting parallelization).
 */

#include <gtest/gtest.h>

#include "src/analysis/dataflow_graph.h"
#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/driver/driver.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/models/dnn_models.h"
#include "src/models/polybench.h"

namespace hida {
namespace {

/** All schedules under @p root. */
std::vector<ScheduleOp>
allSchedules(Operation* root)
{
    std::vector<ScheduleOp> result;
    root->walk([&](Operation* op) {
        if (isa<ScheduleOp>(op))
            result.push_back(ScheduleOp(op));
    });
    return result;
}

TEST(PipelineTest, HidaOnPolybench2mm)
{
    OwnedModule module = buildPolybenchKernel("2mm", 32);
    CompileResult result =
        compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
    EXPECT_FALSE(verify(module.get().op()).has_value());
    EXPECT_GT(result.qor.throughput(TargetDevice::zu3eg()), 0.0);
    EXPECT_GT(result.qor.res.dsp, 0);

    // Multi-producer elimination: every channel has at most one producer.
    for (ScheduleOp schedule : allSchedules(module.get().op())) {
        DataflowGraph graph(schedule);
        std::vector<Value*> channels = graph.internalChannels();
        auto ext = graph.externalChannels();
        channels.insert(channels.end(), ext.begin(), ext.end());
        for (Value* channel : channels)
            EXPECT_LE(graph.producersOf(channel).size(), 1u)
                << "multi-producer channel survived on "
                << channel->nameHint();
    }
}

TEST(PipelineTest, ScaleHlsKeepsMultiProducers)
{
    OwnedModule module = buildPolybenchKernel("2mm", 32);
    compile(module.get(), Flow::kScaleHls, TargetDevice::zu3eg());
    // Without Algorithm 3 the init/update producers survive...
    bool has_multi_producer = false;
    for (ScheduleOp schedule : allSchedules(module.get().op())) {
        DataflowGraph graph(schedule);
        std::vector<Value*> channels = graph.internalChannels();
        auto ext = graph.externalChannels();
        channels.insert(channels.end(), ext.begin(), ext.end());
        for (Value* channel : channels)
            if (graph.producersOf(channel).size() > 1)
                has_multi_producer = true;
    }
    EXPECT_TRUE(has_multi_producer);
}

TEST(PipelineTest, HidaBeatsBaselinesOn2mm)
{
    TargetDevice device = TargetDevice::zu3eg();
    OwnedModule hida_mod = buildPolybenchKernel("2mm", 32);
    OwnedModule scale_mod = buildPolybenchKernel("2mm", 32);
    OwnedModule vitis_mod = buildPolybenchKernel("2mm", 32);
    double hida = compile(hida_mod.get(), Flow::kHida, device)
                      .effectiveThroughput;
    double scalehls = compile(scale_mod.get(), Flow::kScaleHls, device)
                          .effectiveThroughput;
    double vitis = compile(vitis_mod.get(), Flow::kVitis, device)
                       .effectiveThroughput;
    EXPECT_GE(hida, scalehls * 0.99);
    EXPECT_GT(hida, vitis);
    EXPECT_GE(scalehls, vitis * 0.99);
}

TEST(PipelineTest, HidaOnTinyCnn)
{
    OwnedModule module = buildTinyCnn();
    CompileResult result =
        compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
    EXPECT_FALSE(verify(module.get().op()).has_value());
    EXPECT_GT(result.effectiveThroughput, 0.0);

    // The tiled lowering creates hierarchical schedules (Figure 3).
    EXPECT_GE(allSchedules(module.get().op()).size(), 2u);
}

TEST(PipelineTest, VitisFlowHasNoDataflow)
{
    OwnedModule module = buildTinyCnn();
    compile(module.get(), Flow::kVitis, TargetDevice::zu3eg());
    EXPECT_TRUE(allSchedules(module.get().op()).empty());
    EXPECT_FALSE(verify(module.get().op()).has_value());
}

TEST(PipelineTest, LeNetCompilesUnderEveryFlow)
{
    for (Flow flow : {Flow::kHida, Flow::kScaleHls, Flow::kVitis}) {
        OwnedModule module = buildLeNet(1);
        CompileResult result =
            compile(module.get(), flow, TargetDevice::pynqZ2());
        EXPECT_FALSE(verify(module.get().op()).has_value())
            << flowName(flow);
        EXPECT_GT(result.effectiveThroughput, 0.0) << flowName(flow);
    }
}

TEST(PipelineTest, ParallelizationRespectsBudget)
{
    FlowOptions options = optionsFor(Flow::kHida);
    options.maxParallelFactor = 16;
    OwnedModule module = buildPolybenchKernel("3mm", 32);
    compile(module.get(), options, TargetDevice::zu3eg());
    module.get().op()->walk([&](Operation* op) {
        if (auto node = dynCast<NodeOp>(op)) {
            if (!op->hasAttr(NodeOp::parallelFactorId()))
                return;
            int64_t pf = op->intAttrOr(NodeOp::parallelFactorId(), 1);
            EXPECT_LE(pf, 16);
            // Every perfect nest in the node respects the node budget.
            for (ForOp top : topLevelLoops(node.body())) {
                int64_t product = 1;
                for (ForOp loop : perfectNest(top))
                    product *= loop.unrollFactor();
                EXPECT_LE(product, pf) << "node " << node.label();
            }
        }
    });
}

} // namespace
} // namespace hida
