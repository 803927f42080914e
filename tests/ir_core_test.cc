/**
 * @file
 * Unit tests for the IR kernel: values, use-def chains, blocks, regions,
 * builders, cloning, walking, verification and printing.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/dialect/memref/memref_ops.h"
#include "src/ir/builder.h"
#include "src/ir/builtin_ops.h"
#include "src/ir/printer.h"
#include "src/ir/registry.h"
#include "src/ir/verifier.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace hida {
namespace {

class IrCoreTest : public ::testing::Test {
  protected:
    void SetUp() override { registerAllDialects(); }
};

TEST_F(IrCoreTest, TypeConstructionAndEquality)
{
    EXPECT_EQ(Type::i8(), Type::integer(8));
    EXPECT_NE(Type::i8(), Type::i16());
    EXPECT_NE(Type::i8(), Type::f32());

    Type memref = Type::memref({4, 8}, Type::f32());
    EXPECT_TRUE(memref.isMemRef());
    EXPECT_EQ(memref.numElements(), 32);
    EXPECT_EQ(memref.elementType(), Type::f32());
    EXPECT_EQ(memref.shape(), (std::vector<int64_t>{4, 8}));
    EXPECT_EQ(memref, Type::memref({4, 8}, Type::f32()));
    EXPECT_NE(memref,
              Type::memref({4, 8}, Type::f32(), MemorySpace::kExternal));
    EXPECT_EQ(memref.withMemorySpace(MemorySpace::kExternal).memorySpace(),
              MemorySpace::kExternal);

    Type tensor = Type::tensor({2, 3}, Type::i8());
    EXPECT_EQ(tensor.toMemRef().kind(), TypeKind::kMemRef);
    EXPECT_EQ(tensor.str(), "tensor<2x3xi8>");

    Type stream = Type::stream(Type::token(), 4);
    EXPECT_EQ(stream.streamDepth(), 4);
    EXPECT_TRUE(stream.elementType().isToken());
}

TEST_F(IrCoreTest, AttributeRoundTrip)
{
    EXPECT_EQ(Attribute::integer(42).asInt(), 42);
    EXPECT_EQ(Attribute::string("hello").asString(), "hello");
    EXPECT_EQ(Attribute::i64Array({1, 2, 3}).asI64Array(),
              (std::vector<int64_t>{1, 2, 3}));
    EXPECT_EQ(Attribute::integer(1), Attribute::integer(1));
    EXPECT_NE(Attribute::integer(1), Attribute::integer(2));
    EXPECT_NE(Attribute::integer(1), Attribute::string("1"));

    SemiAffineMap map{{0, SemiAffineMap::kEmpty, 1}, {0.5, 1.0, 1.0}};
    Attribute attr = Attribute::affineMap(map);
    EXPECT_EQ(attr.asAffineMap().permutation,
              (std::vector<int64_t>{0, SemiAffineMap::kEmpty, 1}));
    EXPECT_EQ(attr.str(), "[0*0.5, _, 1]");
}

TEST_F(IrCoreTest, UseDefChains)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    ConstantOp a = ConstantOp::createIndex(builder, 1);
    ConstantOp b = ConstantOp::createIndex(builder, 2);
    BinaryOp add =
        BinaryOp::create(builder, BinaryKind::kAdd, a.op()->result(0),
                         b.op()->result(0));

    EXPECT_EQ(a.op()->result(0)->uses().size(), 1u);
    EXPECT_EQ(add.lhs(), a.op()->result(0));

    // RAUW a -> b: add now uses b twice.
    a.op()->result(0)->replaceAllUsesWith(b.op()->result(0));
    EXPECT_FALSE(a.op()->result(0)->hasUses());
    EXPECT_EQ(b.op()->result(0)->uses().size(), 2u);
    EXPECT_EQ(add.lhs(), b.op()->result(0));
    EXPECT_EQ(b.op()->result(0)->users().size(), 1u);

    // Erase the add; b's uses drop to zero.
    add.op()->erase();
    EXPECT_FALSE(b.op()->result(0)->hasUses());
    a.op()->erase();
    b.op()->erase();
    EXPECT_TRUE(module.get().body()->empty());
}

TEST_F(IrCoreTest, LoopNestAndTripCounts)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());

    ForOp outer = ForOp::create(builder, 0, 16);
    builder.setInsertionPointToEnd(outer.body());
    ForOp inner = ForOp::create(builder, 0, 8, 2);

    EXPECT_EQ(outer.tripCount(), 16);
    EXPECT_EQ(inner.tripCount(), 4);
    EXPECT_EQ(totalTripCount(func.op()), 64);

    auto nest = perfectNest(outer);
    ASSERT_EQ(nest.size(), 2u);
    EXPECT_EQ(nest[1].op(), inner.op());

    SitePlan sites;
    const std::vector<Operation*>& innermost =
        sites.refresh(module.get()).innermostLoops();
    ASSERT_EQ(innermost.size(), 1u);
    EXPECT_EQ(innermost[0], inner.op());

    auto enclosing = enclosingLoops(inner.op());
    ASSERT_EQ(enclosing.size(), 1u);
    EXPECT_EQ(enclosing[0].op(), outer.op());

    EXPECT_FALSE(verify(module.get().op()).has_value());
}

TEST_F(IrCoreTest, AffineAccessDecomposition)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());

    AllocOp buf = AllocOp::create(builder, Type::memref({32, 16}, Type::f32()));
    ForOp loop_i = ForOp::create(builder, 0, 16);
    builder.setInsertionPointToEnd(loop_i.body());
    ForOp loop_k = ForOp::create(builder, 0, 16);
    builder.setInsertionPointToEnd(loop_k.body());

    // A[i * 2][k] as in Listing 1, Node2.
    ApplyOp scaled = ApplyOp::create(builder, {loop_i.inductionVar()}, {2}, 0);
    LoadOp load = LoadOp::create(
        builder, buf.op()->result(0),
        {scaled.op()->result(0), loop_k.inductionVar()});

    auto dim0 = decomposeIndex(load.index(0));
    ASSERT_TRUE(dim0.has_value());
    ASSERT_EQ(dim0->terms.size(), 1u);
    EXPECT_EQ(dim0->terms[0].iv, loop_i.inductionVar());
    EXPECT_EQ(dim0->terms[0].coeff, 2);

    auto dim1 = decomposeIndex(load.index(1));
    ASSERT_TRUE(dim1.has_value());
    EXPECT_EQ(dim1->singleIv(), loop_k.inductionVar());
    EXPECT_EQ(dim1->coeffOf(loop_k.inductionVar()), 1);
    EXPECT_EQ(dim1->coeffOf(loop_i.inductionVar()), 0);

    EXPECT_FALSE(verify(module.get().op()).has_value());
}

TEST_F(IrCoreTest, MalformedAffineApplyIsADiagnosticNotAnAbort)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());
    AllocOp buf = AllocOp::create(builder, Type::memref({32}, Type::f32()));
    ForOp loop_i = ForOp::create(builder, 0, 8);
    builder.setInsertionPointToEnd(loop_i.body());
    ForOp loop_k = ForOp::create(builder, 0, 4);
    builder.setInsertionPointToEnd(loop_k.body());
    ApplyOp apply = ApplyOp::create(
        builder, {loop_i.inductionVar(), loop_k.inductionVar()}, {4, 1}, 0);
    LoadOp load =
        LoadOp::create(builder, buf.op()->result(0), {apply.op()->result(0)});
    Operation* op = apply.op();
    ASSERT_FALSE(verifyToDiagnostic(module.get().op()).has_value());

    // Each malformed map, as a parsed or hand-built input could carry
    // it: the verifier reports it and index analysis declines it,
    // instead of an assert or a read past the coefficient list.
    auto expect_rejected = [&](const char* what, const char* message) {
        auto diag = verifyToDiagnostic(module.get().op());
        ASSERT_TRUE(diag.has_value()) << what;
        EXPECT_EQ(diag->code, ErrorCode::kVerifyFailed) << what;
        EXPECT_NE(diag->message.find(message), std::string::npos)
            << what << ": " << diag->message;
        EXPECT_FALSE(decomposeIndex(load.index(0)).has_value()) << what;
    };
    op->setAttr(ApplyOp::coeffsId(), Attribute::i64Array({4}));
    expect_rejected("short coeffs", "2 operands but 1 coeffs");
    op->removeAttr(ApplyOp::coeffsId());
    expect_rejected("missing coeffs", "integer array 'coeffs'");
    op->setAttr(ApplyOp::coeffsId(),
                Attribute::array({Attribute::integer(4), Attribute::real(1)}));
    expect_rejected("float coeff", "'coeffs' must hold integers");
    op->setAttr(ApplyOp::coeffsId(), Attribute::i64Array({4, 1}));
    op->setAttr(ApplyOp::offsetId(), Attribute::string("1"));
    expect_rejected("string offset", "'offset' must be an integer");

    op->setIntAttr(ApplyOp::offsetId(), 1);
    EXPECT_FALSE(verifyToDiagnostic(module.get().op()).has_value());
    auto expr = decomposeIndex(load.index(0));
    ASSERT_TRUE(expr.has_value());
    EXPECT_EQ(expr->coeffOf(loop_i.inductionVar()), 4);
    EXPECT_EQ(expr->offset, 1);
}

TEST_F(IrCoreTest, CloneRemapsNestedValues)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());

    AllocOp buf = AllocOp::create(builder, Type::memref({8}, Type::f32()));
    ForOp loop = ForOp::create(builder, 0, 8);
    builder.setInsertionPointToEnd(loop.body());
    ConstantOp zero = ConstantOp::create(builder, Type::f32(), 0.0);
    StoreOp::create(builder, zero.op()->result(0), buf.op()->result(0),
                    {loop.inductionVar()});

    ValueMapping mapping;
    Operation* cloned = loop.op()->clone(mapping);
    builder.setInsertionPointToEnd(func.body());
    builder.insert(cloned);

    // The cloned store must use the *cloned* induction variable but the
    // *original* buffer (transparent capture).
    ForOp cloned_loop(cloned);
    Operation* cloned_store = nullptr;
    cloned->walk([&](Operation* op) {
        if (isa<StoreOp>(op))
            cloned_store = op;
    });
    ASSERT_NE(cloned_store, nullptr);
    StoreOp store(cloned_store);
    EXPECT_EQ(store.memref(), buf.op()->result(0));
    EXPECT_EQ(store.index(0), cloned_loop.inductionVar());
    EXPECT_NE(store.index(0), loop.inductionVar());

    EXPECT_FALSE(verify(module.get().op()).has_value());
    EXPECT_EQ(buf.op()->result(0)->uses().size(), 2u);
}

TEST_F(IrCoreTest, VerifierCatchesDominanceViolation)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());

    ConstantOp a = ConstantOp::createIndex(builder, 1);
    ConstantOp b = ConstantOp::createIndex(builder, 2);
    BinaryOp add = BinaryOp::create(builder, BinaryKind::kAdd,
                                    a.op()->result(0), b.op()->result(0));
    EXPECT_FALSE(verify(module.get().op()).has_value());

    // Move the add before its operands: dominance violation.
    add.op()->moveBefore(a.op());
    auto error = verify(module.get().op());
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("dominate"), std::string::npos);
}

TEST_F(IrCoreTest, WalkOrdersAndCollect)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());
    ForOp outer = ForOp::create(builder, 0, 4);
    builder.setInsertionPointToEnd(outer.body());
    ForOp::create(builder, 0, 4);

    std::vector<std::string> pre;
    module.get().op()->walk(
        [&](Operation* op) { pre.push_back(op->name()); },
        WalkOrder::kPreOrder);
    ASSERT_EQ(pre.size(), 4u);
    EXPECT_EQ(pre[0], "builtin.module");
    EXPECT_EQ(pre[1], "func.func");

    std::vector<std::string> post;
    module.get().op()->walk(
        [&](Operation* op) { post.push_back(op->name()); },
        WalkOrder::kPostOrder);
    EXPECT_EQ(post.back(), "builtin.module");

    auto loops = module.get().op()->collect(
        [](Operation* op) { return isa<ForOp>(op); });
    EXPECT_EQ(loops.size(), 2u);
}

TEST_F(IrCoreTest, PrinterProducesStableNames)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());
    ConstantOp c = ConstantOp::createIndex(builder, 7);
    (void)c;

    std::string text = toString(module.get().op());
    EXPECT_NE(text.find("builtin.module"), std::string::npos);
    EXPECT_NE(text.find("func.func"), std::string::npos);
    EXPECT_NE(text.find("arith.constant"), std::string::npos);
    EXPECT_NE(text.find("sym_name = \"kernel\""), std::string::npos);
}

TEST_F(IrCoreTest, MoveOperationsBetweenBlocks)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());
    ForOp loop = ForOp::create(builder, 0, 4);
    ConstantOp c = ConstantOp::createIndex(builder, 7);

    EXPECT_EQ(func.body()->size(), 2u);
    c.op()->moveToFront(loop.body());
    EXPECT_EQ(func.body()->size(), 1u);
    EXPECT_EQ(loop.body()->size(), 1u);
    EXPECT_EQ(c.op()->block(), loop.body());
    EXPECT_EQ(c.op()->parentOp(), loop.op());

    c.op()->moveToEnd(func.body());
    EXPECT_EQ(func.body()->size(), 2u);
    EXPECT_TRUE(loop.body()->empty());
    EXPECT_TRUE(loop.op()->isBeforeInBlock(c.op()));
    EXPECT_EQ(c.op()->prevInBlock(), loop.op());
    EXPECT_EQ(loop.op()->nextInBlock(), c.op());
}

TEST_F(IrCoreTest, IsBeforeInBlockTracksEveryReorder)
{
    // isBeforeInBlock answers from cached order indices that a block
    // renumbers lazily. Random builder inserts (front, middle, end), the
    // four moves within and across blocks, and erases must each leave it
    // agreeing with positions taken by a linear walk.
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());
    ForOp outer = ForOp::create(builder, 0, 4);
    builder.setInsertionPointToEnd(outer.body());
    ForOp inner = ForOp::create(builder, 0, 4);
    const std::vector<Block*> blocks = {func.body(), outer.body(),
                                        inner.body()};
    // Constants are leaves: any of them may move anywhere or be erased.
    std::vector<Operation*> leaves;
    for (Block* block : blocks) {
        builder.setInsertionPointToEnd(block);
        for (int i = 0; i < 4; ++i)
            leaves.push_back(ConstantOp::createIndex(builder, i).op());
    }

    uint64_t state = 0x0DDC0FFEEULL;  // xorshift64*, fixed seed
    auto below = [&state](size_t n) -> size_t {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return n == 0 ? 0 : (state * 0x2545F4914F6CDD1DULL) % n;
    };
    auto nth = [](Block* block, size_t n) {
        for (Operation* op : *block)
            if (n-- == 0)
                return op;
        return static_cast<Operation*>(nullptr);
    };

    for (int step = 0; step < 3000 && !HasFailure(); ++step) {
        Block* block = blocks[below(blocks.size())];
        Operation* leaf = leaves[below(leaves.size())];
        Operation* other = block->empty() ? nullptr
                                          : nth(block, below(block->size()));
        const size_t action = below(8);
        const std::string what = strCat("step ", step, ": action ", action,
                                        " on a block of ", block->size());
        switch (action) {
        case 0: {  // builder insert at the front, the middle or the end
            OpBuilder at;
            const size_t where = below(3);
            if (where == 0 || other == nullptr)
                at.setInsertionPointToStart(block);
            else if (where == 1)
                at.setInsertionPointBefore(other);
            else
                at.setInsertionPointToEnd(block);
            leaves.push_back(ConstantOp::createIndex(at, step).op());
            break;
        }
        case 1:
            if (other != nullptr && other != leaf)
                leaf->moveBefore(other);
            break;
        case 2:
            if (other != nullptr && other != leaf)
                leaf->moveAfter(other);
            break;
        case 3:
            leaf->moveToEnd(block);
            break;
        case 4:
            leaf->moveToFront(block);
            break;
        case 5:
            if (leaves.size() > 4) {
                leaves.erase(std::find(leaves.begin(), leaves.end(), leaf));
                leaf->erase();
            }
            break;
        default:  // a query-only step
            break;
        }
        for (Block* b : blocks) {
            const std::vector<Operation*> order = b->ops();
            const size_t n = order.size();
            auto check = [&](size_t i, size_t j) {
                EXPECT_EQ(order[i]->isBeforeInBlock(order[j]), i <= j)
                    << "positions " << i << " and " << j << " of " << n
                    << " after " << what;
            };
            if (n <= 12) {
                for (size_t i = 0; i < n; ++i)
                    for (size_t j = 0; j < n; ++j)
                        check(i, j);
            } else {
                for (int k = 0; k < 32; ++k)
                    check(below(n), below(n));
            }
        }
    }
    EXPECT_FALSE(verify(module.get().op()).has_value());
}

TEST(UtilsTest, LargestDivisorUpToMatchesTheDivisorList)
{
    for (int64_t n = -2; n <= 256; ++n) {
        const std::vector<int64_t> divisors = divisorsOf(n);
        for (int64_t bound = -1; bound <= 300; ++bound) {
            int64_t expected = 1;
            for (int64_t d : divisors)
                if (d <= bound)
                    expected = std::max(expected, d);
            ASSERT_EQ(largestDivisorUpTo(n, bound), expected)
                << "n=" << n << " bound=" << bound;
        }
    }
}

} // namespace
} // namespace hida
