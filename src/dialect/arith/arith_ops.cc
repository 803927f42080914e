#include "src/dialect/arith/arith_ops.h"

#include <array>

#include "src/ir/registry.h"
#include "src/support/diagnostics.h"

namespace hida {

namespace {

constexpr std::array<const char*, 6> kBinaryNames = {
    "arith.add", "arith.sub", "arith.mul",
    "arith.div", "arith.max", "arith.min",
};

/** Interned ids of kBinaryNames, cached once. */
const std::array<Identifier, 6>&
binaryIds()
{
    static const std::array<Identifier, 6> ids = [] {
        std::array<Identifier, 6> result;
        for (size_t i = 0; i < kBinaryNames.size(); ++i)
            result[i] = Identifier::get(kBinaryNames[i]);
        return result;
    }();
    return ids;
}

} // namespace

ConstantOp
ConstantOp::create(OpBuilder& builder, Type type, double value)
{
    Operation* op = builder.create(opNameId<ConstantOp>(), {}, {type});
    op->setAttr(valueId(), Attribute::real(value));
    op->result(0)->setNameHint("c");
    return ConstantOp(op);
}

ConstantOp
ConstantOp::createIndex(OpBuilder& builder, int64_t value)
{
    return create(builder, Type::index(), static_cast<double>(value));
}

BinaryOp
BinaryOp::create(OpBuilder& builder, BinaryKind kind, Value* lhs, Value* rhs)
{
    Operation* op = builder.create(binaryIds().at(static_cast<size_t>(kind)),
                                   {lhs, rhs}, {lhs->type()});
    return BinaryOp(op);
}

bool
BinaryOp::matches(const Operation* op)
{
    for (Identifier id : binaryIds())
        if (op->nameId() == id)
            return true;
    return false;
}

BinaryKind
BinaryOp::kind() const
{
    const auto& ids = binaryIds();
    for (size_t i = 0; i < ids.size(); ++i)
        if (op_->nameId() == ids[i])
            return static_cast<BinaryKind>(i);
    HIDA_PANIC("not a binary op: ", op_->name());
}

CastOp
CastOp::create(OpBuilder& builder, Value* input, Type result_type)
{
    return CastOp(builder.create(opNameId<CastOp>(), {input}, {result_type}));
}

OpHwCost
scalarOpCost(Identifier op_name, Type type)
{
    const bool is_float = type.isFloat();
    const unsigned width = type.bitWidth();
    const auto& ids = binaryIds();

    if (op_name == ids[static_cast<size_t>(BinaryKind::kMul)]) {
        if (is_float)
            return {.dsp = 3, .lut = 100, .ff = 150, .latency = 4};
        if (width <= 8)
            return {.dsp = 1, .lut = 20, .ff = 20, .latency = 1};
        if (width <= 18)
            return {.dsp = 1, .lut = 40, .ff = 40, .latency = 2};
        return {.dsp = 3, .lut = 80, .ff = 80, .latency = 3};
    }
    if (op_name == ids[static_cast<size_t>(BinaryKind::kAdd)] ||
        op_name == ids[static_cast<size_t>(BinaryKind::kSub)]) {
        if (is_float)
            return {.dsp = 2, .lut = 200, .ff = 220, .latency = 5};
        return {.dsp = 0, .lut = static_cast<int>(width), .ff = 0,
                .latency = 1};
    }
    if (op_name == ids[static_cast<size_t>(BinaryKind::kDiv)]) {
        if (is_float)
            return {.dsp = 0, .lut = 800, .ff = 900, .latency = 12};
        return {.dsp = 0, .lut = 1000, .ff = 1100,
                .latency = static_cast<int>(width)};
    }
    if (op_name == ids[static_cast<size_t>(BinaryKind::kMax)] ||
        op_name == ids[static_cast<size_t>(BinaryKind::kMin)]) {
        return {.dsp = 0, .lut = static_cast<int>(width) * 2, .ff = 0,
                .latency = 1};
    }
    // Constants, casts, affine.apply address arithmetic, etc.
    return {.dsp = 0, .lut = 8, .ff = 8, .latency = 0};
}

void
registerArithDialect()
{
    auto& registry = OpRegistry::instance();
    registry.registerOp(ConstantOp::kOpName, OpInfo{});
    registry.registerOp(CastOp::kOpName, OpInfo{});
    for (const char* name : kBinaryNames) {
        registry.registerOp(
            name,
            OpInfo{.verify = [](Operation* op) -> std::optional<std::string> {
                if (op->numOperands() != 2)
                    return "binary op requires exactly two operands";
                return std::nullopt;
            }});
    }
}

} // namespace hida
