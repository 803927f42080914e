#include "src/dialect/memref/memref_ops.h"

#include "src/ir/registry.h"
#include "src/support/diagnostics.h"

namespace hida {

AllocOp
AllocOp::create(OpBuilder& builder, Type memref_type, const std::string& hint)
{
    HIDA_ASSERT(memref_type.isMemRef(), "memref.alloc requires a memref type");
    Operation* op = builder.create(opNameId<AllocOp>(), {}, {memref_type});
    op->result(0)->setNameHint(hint);
    return AllocOp(op);
}

WeightOp
WeightOp::create(OpBuilder& builder, Type memref_type, int64_t seed,
                 const std::string& hint)
{
    HIDA_ASSERT(memref_type.isMemRef(), "memref.weight requires a memref type");
    Operation* op = builder.create(opNameId<WeightOp>(), {}, {memref_type});
    op->setIntAttr(seedId(), seed);
    op->result(0)->setNameHint(hint);
    return WeightOp(op);
}

CopyOp
CopyOp::create(OpBuilder& builder, Value* source, Value* dest)
{
    HIDA_ASSERT(source->type().isMemRef() && dest->type().isMemRef(),
                "memref.copy requires memref operands");
    return CopyOp(builder.create(opNameId<CopyOp>(), {source, dest}));
}

void
registerMemRefDialect()
{
    auto& registry = OpRegistry::instance();
    registry.registerOp(AllocOp::kOpName, OpInfo{});
    registry.registerOp(WeightOp::kOpName, OpInfo{});
    registry.registerOp(
        CopyOp::kOpName,
        OpInfo{.verify = [](Operation* op) -> std::optional<std::string> {
            if (op->numOperands() != 2)
                return "memref.copy requires two operands";
            if (op->operand(0)->type().shape() !=
                op->operand(1)->type().shape())
                return "memref.copy shape mismatch";
            return std::nullopt;
        }});
}

} // namespace hida
