/**
 * @file
 * Analysis tests: memory effects, live-ins, the dataflow graph, and the
 * intensity/connection analysis — checked against the paper's Listing 1
 * ground truth (Tables 4 and 5's intensity column).
 */

#include <gtest/gtest.h>

#include "src/analysis/connection.h"
#include "src/analysis/dataflow_graph.h"
#include "src/analysis/memory_effects.h"
#include "src/driver/driver.h"
#include "src/ir/verifier.h"
#include "src/models/polybench.h"

namespace hida {
namespace {

/** Lower Listing 1 to Structural dataflow without parallelizing. */
OwnedModule
structuralListing1()
{
    OwnedModule module = buildListing1();
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableTiling = false;
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::zu3eg());
    return module;
}

ScheduleOp
onlySchedule(ModuleOp module)
{
    ScheduleOp result(nullptr);
    module.op()->walk([&](Operation* op) {
        if (isa<ScheduleOp>(op))
            result = ScheduleOp(op);
    });
    EXPECT_TRUE(result);
    return result;
}

TEST(AnalysisTest, MemoryEffectsOfLoadsAndStores)
{
    OwnedModule module = buildListing1();
    FuncOp func(nullptr);
    for (Operation* op : module.get().body()->ops())
        if (auto f = dynCast<FuncOp>(op))
            func = f;
    auto accesses = collectAccesses(func.op());
    // A: written by nest 1, read by nest 3.
    int read_write_both = 0, write_only = 0;
    for (const auto& [value, summary] : accesses) {
        if (summary.reads() && summary.writes())
            ++read_write_both;
        else if (summary.writes())
            ++write_only;
    }
    EXPECT_EQ(read_write_both, 2);  // A and B
    EXPECT_EQ(write_only, 1);       // C
}

TEST(AnalysisTest, DataflowGraphStructure)
{
    OwnedModule module = structuralListing1();
    DataflowGraph graph(onlySchedule(module.get()));
    EXPECT_EQ(graph.nodes().size(), 3u);
    EXPECT_EQ(graph.edges().size(), 2u);  // A: n0->n2, B: n1->n2

    NodeOp node2 = graph.nodes()[2];
    EXPECT_EQ(graph.predecessors(node2).size(), 2u);
    EXPECT_EQ(graph.successors(node2).size(), 0u);
    EXPECT_EQ(graph.connectionCount(node2), 2);
    EXPECT_EQ(graph.connectionCount(graph.nodes()[0]), 1);

    auto depth = graph.longestPathTo();
    EXPECT_EQ(depth[graph.nodes()[0].op()], 1);
    EXPECT_EQ(depth[node2.op()], 2);
}

TEST(AnalysisTest, IntensityMatchesTable5)
{
    OwnedModule module = structuralListing1();
    DataflowGraph graph(onlySchedule(module.get()));
    // Paper Table 5: Node0 = 512, Node1 = 256, Node2 = 4096.
    EXPECT_EQ(nodeIntensity(graph.nodes()[0]), 512);
    EXPECT_EQ(nodeIntensity(graph.nodes()[1]), 256);
    EXPECT_EQ(nodeIntensity(graph.nodes()[2]), 4096);
}

TEST(AnalysisTest, ConnectionMapsMatchTable4)
{
    OwnedModule module = structuralListing1();
    DataflowGraph graph(onlySchedule(module.get()));
    std::vector<Connection> connections = analyzeConnections(graph);
    ASSERT_EQ(connections.size(), 2u);

    // Node0 -> Node2 via A (Table 4 row 1).
    const Connection& a = connections[0];
    EXPECT_EQ(a.permSToT, (std::vector<int64_t>{0, kEmptyLevel, 1}));
    EXPECT_EQ(a.permTToS, (std::vector<int64_t>{0, 2}));
    ASSERT_EQ(a.scaleSToT.size(), 2u);
    EXPECT_DOUBLE_EQ(a.scaleSToT[0], 0.5);
    EXPECT_DOUBLE_EQ(a.scaleSToT[1], 1.0);
    ASSERT_EQ(a.scaleTToS.size(), 3u);
    EXPECT_DOUBLE_EQ(a.scaleTToS[0], 2.0);
    EXPECT_DOUBLE_EQ(a.scaleTToS[1], 0.0);  // empty
    EXPECT_DOUBLE_EQ(a.scaleTToS[2], 1.0);

    // Node1 -> Node2 via B (Table 4 row 2).
    const Connection& b = connections[1];
    EXPECT_EQ(b.permSToT, (std::vector<int64_t>{kEmptyLevel, 1, 0}));
    EXPECT_EQ(b.permTToS, (std::vector<int64_t>{2, 1}));
    ASSERT_EQ(b.scaleSToT.size(), 2u);
    EXPECT_DOUBLE_EQ(b.scaleSToT[0], 1.0);
    EXPECT_DOUBLE_EQ(b.scaleSToT[1], 1.0);
}

TEST(AnalysisTest, LiveInsAreDeterministic)
{
    OwnedModule module = buildListing1();
    FuncOp func(nullptr);
    for (Operation* op : module.get().body()->ops())
        if (auto f = dynCast<FuncOp>(op))
            func = f;
    // Live-ins of each loop nest: the arrays it touches (ivs are local).
    std::vector<ForOp> loops = topLevelLoops(func.body());
    ASSERT_EQ(loops.size(), 3u);
    EXPECT_EQ(liveInValues(loops[0].op()).size(), 1u);  // A
    EXPECT_EQ(liveInValues(loops[2].op()).size(), 3u);  // A, B, C
}

TEST(AnalysisTest, NodeBandSkipsTileLoops)
{
    OwnedModule module = structuralListing1();
    DataflowGraph graph(onlySchedule(module.get()));
    NodeOp node2 = graph.nodes()[2];
    std::vector<ForOp> band = nodeBand(node2);
    ASSERT_EQ(band.size(), 3u);
    // Tag the outermost loop as a tile loop: the band must shrink.
    band[0].op()->setAttr(ForOp::tileLoopId(), Attribute::unit());
    EXPECT_EQ(nodeBand(node2).size(), 2u);
}

TEST(AnalysisTest, AccessPatternExtraction)
{
    OwnedModule module = structuralListing1();
    DataflowGraph graph(onlySchedule(module.get()));
    NodeOp node2 = graph.nodes()[2];
    Value* a_channel = graph.edges()[0].channel;
    auto pattern = accessPattern(node2, a_channel, /*want_store=*/false);
    ASSERT_EQ(pattern.size(), 2u);
    EXPECT_EQ(pattern[0].bandLevel, 0);  // i indexes dim 0
    EXPECT_EQ(pattern[0].coeff, 2);      // with stride 2
    EXPECT_EQ(pattern[1].bandLevel, 2);  // k indexes dim 1
    EXPECT_EQ(pattern[1].coeff, 1);
}

} // namespace
} // namespace hida
