/**
 * @file
 * Unit tests for the interned-identifier IR core: the global string
 * interner, the flat id-sorted attribute storage, and the allocation-free
 * in-place walk (including the op-erasure-mid-traversal contract).
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/ir/builder.h"
#include "src/ir/builtin_ops.h"
#include "src/ir/identifier.h"
#include "src/ir/registry.h"

namespace hida {
namespace {

class IrInternTest : public ::testing::Test {
  protected:
    void SetUp() override { registerAllDialects(); }
};

TEST_F(IrInternTest, InternerRoundTripAndUniqueness)
{
    Identifier a = Identifier::get("affine.for");
    Identifier b = Identifier::get("affine.for");
    Identifier c = Identifier::get("affine.load");

    // Same string -> same id; distinct strings -> distinct ids.
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.raw(), b.raw());
    EXPECT_NE(a, c);
    EXPECT_NE(a.raw(), c.raw());

    // Round trip back to the exact spelling.
    EXPECT_EQ(a.str(), "affine.for");
    EXPECT_EQ(c.str(), "affine.load");

    // Null identifier.
    Identifier null;
    EXPECT_FALSE(null);
    EXPECT_TRUE(a);
    EXPECT_NE(null, a);

    // A freshly built std::string interns to the same id as the literal.
    std::string spelled = std::string("affine.") + "for";
    EXPECT_EQ(Identifier::get(spelled), a);
}

TEST_F(IrInternTest, DialectPrefixInterning)
{
    EXPECT_EQ(Identifier::get("affine.for").dialect(),
              Identifier::get("affine"));
    EXPECT_EQ(Identifier::get("hida.node").dialect(),
              Identifier::get("hida"));
    // No '.' -> the identifier is its own dialect.
    EXPECT_EQ(Identifier::get("affine").dialect(), Identifier::get("affine"));
}

TEST_F(IrInternTest, OpNameIsInterned)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());
    ForOp loop = ForOp::create(builder, 0, 4);

    EXPECT_EQ(loop.op()->nameId(), Identifier::get("affine.for"));
    EXPECT_EQ(loop.op()->nameId(), opNameId<ForOp>());
    EXPECT_EQ(loop.op()->name(), "affine.for");
    EXPECT_EQ(loop.op()->dialect(), "affine");
    EXPECT_EQ(loop.op()->dialectId(), Identifier::get("affine"));
    EXPECT_TRUE(isa<ForOp>(loop.op()));
    EXPECT_FALSE(isa<FuncOp>(loop.op()));
}

TEST_F(IrInternTest, AttrSetOverwriteErase)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    Operation* op = func.op();
    const Identifier alpha = Identifier::get("alpha");
    const Identifier beta = Identifier::get("beta");
    const Identifier gamma = Identifier::get("gamma");

    op->setIntAttr(alpha, 1);
    op->setIntAttr(beta, 2);
    EXPECT_TRUE(op->hasAttr(alpha));
    EXPECT_EQ(op->intAttrOr(alpha, -1), 1);
    EXPECT_EQ(op->intAttrOr(beta, -1), 2);
    EXPECT_EQ(op->intAttrOr(gamma, -1), -1);

    // Overwrite: same key keeps a single entry, new value wins.
    size_t size_before = op->attrs().size();
    op->setIntAttr(alpha, 42);
    EXPECT_EQ(op->attrs().size(), size_before);
    EXPECT_EQ(op->intAttrOr(alpha, -1), 42);

    // Erase removes exactly the keyed entry.
    op->removeAttr(alpha);
    EXPECT_FALSE(op->hasAttr(alpha));
    EXPECT_TRUE(op->hasAttr(beta));
    // Erasing a missing key is a no-op.
    op->removeAttr(alpha);
    EXPECT_FALSE(op->hasAttr(alpha));
}

TEST_F(IrInternTest, AttrStorageSortedByInternId)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    Operation* op = func.op();
    const Identifier late = Identifier::get("zz_late");
    const Identifier early = Identifier::get("aa_early");
    const Identifier mid = Identifier::get("mm_mid");

    // Insert in an order unrelated to intern order; storage must stay
    // sorted by raw id regardless of insertion sequence.
    op->setIntAttr(late, 1);
    op->setIntAttr(early, 2);
    op->setIntAttr(mid, 3);
    uint32_t prev = 0;
    for (const auto& [key, value] : op->attrs()) {
        EXPECT_GT(key.raw(), prev) << "attr list not sorted by intern id";
        prev = key.raw();
    }
    // Lookups find every entry despite arbitrary insertion order.
    EXPECT_EQ(op->intAttrOr(late, -1), 1);
    EXPECT_EQ(op->intAttrOr(early, -1), 2);
    EXPECT_EQ(op->intAttrOr(mid, -1), 3);
}

// One way to name a key or an op: every IR entry point takes an
// Identifier and none takes a string, so no lookup or create interns.
// Each concept holds when its entry point accepts a K.
template <typename K>
concept HasAttrTakes = requires(const Operation* op, K k) { op->hasAttr(k); };
template <typename K>
concept AttrTakes = requires(const Operation* op, K k) { op->attr(k); };
template <typename K>
concept IntAttrOrTakes =
    requires(const Operation* op, K k) { op->intAttrOr(k, 0); };
template <typename K>
concept SetAttrTakes =
    requires(Operation* op, K k) { op->setAttr(k, Attribute::unit()); };
template <typename K>
concept SetIntAttrTakes =
    requires(Operation* op, K k) { op->setIntAttr(k, 0); };
template <typename K>
concept RemoveAttrTakes = requires(Operation* op, K k) { op->removeAttr(k); };
template <typename K>
concept ParentOfNameTakes =
    requires(const Operation* op, K k) { op->parentOfName(k); };
template <typename K>
concept CreateTakes = requires(K k) { Operation::create(k, {}, {}); };
template <typename K>
concept BuilderCreateTakes = requires(OpBuilder& b, K k) { b.create(k); };

using Literal = decltype("affine.for");

static_assert(!HasAttrTakes<Literal> && !HasAttrTakes<std::string_view>);
static_assert(!AttrTakes<Literal> && !AttrTakes<std::string_view>);
static_assert(!IntAttrOrTakes<Literal> && !IntAttrOrTakes<std::string_view>);
static_assert(!SetAttrTakes<Literal> && !SetAttrTakes<std::string_view>);
static_assert(!SetIntAttrTakes<Literal> &&
              !SetIntAttrTakes<std::string_view>);
static_assert(!RemoveAttrTakes<Literal> &&
              !RemoveAttrTakes<std::string_view>);
static_assert(!ParentOfNameTakes<Literal> &&
              !ParentOfNameTakes<std::string_view>);
static_assert(!CreateTakes<Literal> && !CreateTakes<std::string_view>);
static_assert(!BuilderCreateTakes<Literal> &&
              !BuilderCreateTakes<std::string_view>);
// The Identifier-keyed forms are the one way.
static_assert(HasAttrTakes<Identifier> && AttrTakes<Identifier> &&
              IntAttrOrTakes<Identifier> && SetAttrTakes<Identifier> &&
              SetIntAttrTakes<Identifier> && RemoveAttrTakes<Identifier> &&
              ParentOfNameTakes<Identifier> && CreateTakes<Identifier> &&
              BuilderCreateTakes<Identifier>);

TEST_F(IrInternTest, AttributeStructuralHash)
{
    EXPECT_EQ(Attribute::integer(5).hash(), Attribute::integer(5).hash());
    EXPECT_NE(Attribute::integer(5).hash(), Attribute::integer(6).hash());
    EXPECT_EQ(Attribute::i64Array({1, 2}).hash(),
              Attribute::i64Array({1, 2}).hash());
    EXPECT_NE(Attribute::i64Array({1, 2}).hash(),
              Attribute::i64Array({2, 1}).hash());
    EXPECT_EQ(Type::memref({4, 8}, Type::i8()).hash(),
              Type::memref({4, 8}, Type::i8()).hash());
    EXPECT_NE(Type::memref({4, 8}, Type::i8()).hash(),
              Type::memref({8, 4}, Type::i8()).hash());
}

TEST_F(IrInternTest, MutatingWalkVisitsEachOpExactlyOnce)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());
    ForOp loop = ForOp::create(builder, 0, 4);
    builder.setInsertionPointToEnd(loop.body());
    // Unused constants both at loop depth and at function depth: legal to
    // erase mid-walk.
    for (int i = 0; i < 3; ++i)
        ConstantOp::createIndex(builder, i);
    builder.setInsertionPointToEnd(func.body());
    for (int i = 0; i < 3; ++i)
        ConstantOp::createIndex(builder, 10 + i);

    std::unordered_map<Operation*, int> visits;
    int erased = 0;
    module.get().op()->walk([&](Operation* op) {
        ++visits[op];
        if (isa<ConstantOp>(op)) {
            op->erase();  // erase the visited op itself mid-traversal
            ++erased;
        }
    });
    EXPECT_EQ(erased, 6);
    // module + func + for + 6 constants, each exactly once.
    EXPECT_EQ(visits.size(), 9u);
    for (const auto& [op, count] : visits)
        EXPECT_EQ(count, 1);
    // The constants are really gone.
    int remaining = 0;
    module.get().op()->walk([&](Operation*) { ++remaining; });
    EXPECT_EQ(remaining, 3);  // module + func + for
}

TEST_F(IrInternTest, WalkSafeToleratesStructuralRewrites)
{
    OwnedModule module;
    OpBuilder builder(module.get().body());
    FuncOp func = FuncOp::create(builder, "kernel", {});
    builder.setInsertionPointToEnd(func.body());
    for (int i = 0; i < 4; ++i)
        ConstantOp::createIndex(builder, i);

    // Insert an op next to every visited constant; the snapshot walk must
    // not visit the newly inserted ops.
    int visited_constants = 0;
    func.op()->walkSafe([&](Operation* op) {
        if (!isa<ConstantOp>(op))
            return;
        if (ConstantOp(op).intValue() >= 100)
            FAIL() << "walkSafe visited an op inserted mid-walk";
        ++visited_constants;
        OpBuilder b;
        b.setInsertionPointAfter(op);
        ConstantOp::createIndex(b, 100);
    });
    EXPECT_EQ(visited_constants, 4);
    EXPECT_EQ(func.body()->size(), 8u);
}

} // namespace
} // namespace hida
