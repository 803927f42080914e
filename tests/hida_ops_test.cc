/**
 * @file
 * HIDA dialect op mechanics (Table 3 / Figure 4): node effect tracking,
 * argument append/remove, buffer partition/vectorization attributes,
 * schedule isolation enforcement, and stream/token helpers.
 */

#include <gtest/gtest.h>

#include "src/dialect/hida/hida_ops.h"
#include "src/dialect/memref/memref_ops.h"
#include "src/ir/builtin_ops.h"
#include "src/ir/printer.h"
#include "src/ir/registry.h"
#include "src/ir/verifier.h"

namespace hida {
namespace {

class HidaOpsTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        registerAllDialects();
        builder_.setInsertionPointToEnd(module_.get().body());
        func_ = FuncOp::create(builder_, "t", {});
        builder_.setInsertionPointToEnd(func_.body());
    }

    OwnedModule module_;
    FuncOp func_;
    OpBuilder builder_;
};

TEST_F(HidaOpsTest, NodeEffectsRoundTrip)
{
    BufferOp a = BufferOp::create(
        builder_, Type::memref({8}, Type::i8(), MemorySpace::kOnChip));
    BufferOp b = BufferOp::create(
        builder_, Type::memref({8}, Type::i8(), MemorySpace::kOnChip));
    NodeOp node = NodeOp::create(
        builder_, {a.op()->result(0), b.op()->result(0)},
        {MemoryEffect::kRead, MemoryEffect::kWrite}, "n");

    EXPECT_TRUE(node.reads(0));
    EXPECT_FALSE(node.writes(0));
    EXPECT_TRUE(node.writes(1));
    EXPECT_EQ(node.readOperandIndices(), (std::vector<unsigned>{0}));
    EXPECT_EQ(node.writtenOperandIndices(), (std::vector<unsigned>{1}));

    node.setEffect(0, MemoryEffect::kReadWrite);
    EXPECT_TRUE(node.reads(0));
    EXPECT_TRUE(node.writes(0));
    EXPECT_EQ(node.label(), "n");
    EXPECT_FALSE(verify(module_.get().op()).has_value());
}

TEST_F(HidaOpsTest, NodeAppendAndRemoveArguments)
{
    BufferOp a = BufferOp::create(
        builder_, Type::memref({8}, Type::i8(), MemorySpace::kOnChip));
    NodeOp node = NodeOp::create(builder_, {}, {}, "n");
    Value* arg = node.appendArgument(a.op()->result(0), MemoryEffect::kWrite);
    EXPECT_EQ(node.op()->numOperands(), 1u);
    EXPECT_EQ(node.body()->numArguments(), 1u);
    EXPECT_EQ(arg->type(), a.op()->result(0)->type());
    EXPECT_TRUE(node.writes(0));
    EXPECT_FALSE(verify(module_.get().op()).has_value());

    node.removeArgument(0);
    EXPECT_EQ(node.op()->numOperands(), 0u);
    EXPECT_EQ(node.body()->numArguments(), 0u);
    EXPECT_FALSE(verify(module_.get().op()).has_value());
}

TEST_F(HidaOpsTest, BufferAttributes)
{
    BufferOp buffer = BufferOp::create(
        builder_, Type::memref({64, 64}, Type::i8(), MemorySpace::kOnChip),
        /*stages=*/3);
    EXPECT_EQ(buffer.stages(), 3);
    EXPECT_EQ(buffer.bankCount(), 1);
    EXPECT_EQ(buffer.vectorFactor(), 1);
    EXPECT_FALSE(buffer.isExternal());
    EXPECT_EQ(buffer.memKind(), "bram_t2p");

    buffer.setPartition({static_cast<int64_t>(PartitionFashion::kCyclic),
                         static_cast<int64_t>(PartitionFashion::kBlock)},
                        {4, 2});
    EXPECT_EQ(buffer.bankCount(), 8);
    buffer.setMemKind("uram");
    EXPECT_EQ(buffer.memKind(), "uram");
    buffer.setTileFactors({8, 8});
    EXPECT_EQ(buffer.tileFactors(), (std::vector<int64_t>{8, 8}));
    EXPECT_FALSE(verify(module_.get().op()).has_value());
}

TEST_F(HidaOpsTest, VerifierRejectsBadPartition)
{
    BufferOp buffer = BufferOp::create(
        builder_, Type::memref({4}, Type::i8(), MemorySpace::kOnChip));
    buffer.op()->setAttr(BufferOp::partitionFashionsId(),
                         Attribute::i64Array({1}));
    buffer.op()->setAttr(BufferOp::partitionFactorsId(),
                         Attribute::i64Array({9}));
    auto error = verify(module_.get().op());
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("partition factor"), std::string::npos);
}

TEST_F(HidaOpsTest, ScheduleIsolationEnforced)
{
    BufferOp buffer = BufferOp::create(
        builder_, Type::memref({8}, Type::i8(), MemorySpace::kOnChip));
    ScheduleOp schedule = ScheduleOp::create(builder_, {});
    // A node inside the schedule referencing the outer buffer directly
    // (not through a schedule argument) breaks isolation.
    OpBuilder inner(schedule.body());
    NodeOp::create(inner, {buffer.op()->result(0)}, {MemoryEffect::kRead},
                   "bad");
    auto error = verify(module_.get().op());
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("isolation"), std::string::npos);
}

TEST_F(HidaOpsTest, ScheduleArgsMirrorOperands)
{
    BufferOp buffer = BufferOp::create(
        builder_, Type::memref({8}, Type::i8(), MemorySpace::kOnChip));
    ScheduleOp schedule =
        ScheduleOp::create(builder_, {buffer.op()->result(0)});
    EXPECT_EQ(schedule.body()->numArguments(), 1u);
    EXPECT_EQ(schedule.body()->argument(0)->type(),
              buffer.op()->result(0)->type());
    EXPECT_FALSE(verify(module_.get().op()).has_value());

    // Dropping the mirror arg must be flagged.
    schedule.body()->eraseArgument(0);
    auto error = verify(module_.get().op());
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("mirror"), std::string::npos);
}

TEST_F(HidaOpsTest, TokenStreams)
{
    StreamOp token = StreamOp::create(builder_, Type::token(), 4);
    EXPECT_TRUE(token.isToken());
    EXPECT_EQ(token.depth(), 4);
    StreamOp data = StreamOp::create(builder_, Type::i16(), 2);
    EXPECT_FALSE(data.isToken());

    NodeOp node = NodeOp::create(builder_, {token.op()->result(0)},
                                 {MemoryEffect::kRead}, "consumer");
    OpBuilder body(node.body());
    StreamReadOp read = StreamReadOp::create(body, node.innerArg(0));
    EXPECT_TRUE(read.op()->result(0)->type().isToken());
    EXPECT_FALSE(verify(module_.get().op()).has_value());
}

TEST_F(HidaOpsTest, DispatchTaskHierarchy)
{
    DispatchOp dispatch = DispatchOp::create(builder_);
    OpBuilder inner(dispatch.body());
    TaskOp t0 = TaskOp::create(inner);
    TaskOp t1 = TaskOp::create(inner);
    EXPECT_EQ(dispatch.tasks().size(), 2u);
    EXPECT_EQ(t0.parentDispatch().op(), dispatch.op());
    EXPECT_EQ(t1.parentDispatch().op(), dispatch.op());

    // Tasks are transparent: a nested task may reference outer values.
    BufferOp buffer = BufferOp::create(
        builder_, Type::memref({8}, Type::i8(), MemorySpace::kOnChip));
    buffer.op()->moveToFront(func_.body());
    OpBuilder task_body(t0.body());
    CopyOp::create(task_body, buffer.op()->result(0),
                   buffer.op()->result(0));
    EXPECT_FALSE(verify(module_.get().op()).has_value());
}

TEST_F(HidaOpsTest, PortBundlePack)
{
    Type ext = Type::memref({16}, Type::i8(), MemorySpace::kExternal);
    BufferOp buffer = BufferOp::create(builder_, ext);
    PortOp port = PortOp::create(builder_, ext, "memory", 64);
    PackOp::create(builder_, buffer.op()->result(0), port.op()->result(0));
    BundleOp::create(builder_, "gmem0", {port.op()->result(0)});
    EXPECT_EQ(port.kind(), "memory");
    EXPECT_EQ(port.latency(), 64);
    EXPECT_FALSE(verify(module_.get().op()).has_value());

    std::string text = toString(module_.get().op());
    EXPECT_NE(text.find("hida.port"), std::string::npos);
    EXPECT_NE(text.find("hida.bundle"), std::string::npos);
    EXPECT_NE(text.find("hida.pack"), std::string::npos);
}

} // namespace
} // namespace hida
