#include "src/dialect/hida/hida_ops.h"

#include "src/ir/registry.h"
#include "src/support/diagnostics.h"
#include "src/support/utils.h"

namespace hida {

//===----------------------------------------------------------------------===//
// Functional dataflow
//===----------------------------------------------------------------------===//

YieldOp
YieldOp::create(OpBuilder& builder, std::vector<Value*> operands)
{
    return YieldOp(builder.create(opNameId<YieldOp>(), std::move(operands)));
}

DispatchOp
DispatchOp::create(OpBuilder& builder, const std::vector<Type>& result_types)
{
    Operation* op = builder.create(opNameId<DispatchOp>(), {}, result_types, 1);
    op->body();
    return DispatchOp(op);
}

std::vector<TaskOp>
DispatchOp::tasks() const
{
    std::vector<TaskOp> result;
    for (Operation* op : *body())
        if (auto task = dynCast<TaskOp>(op))
            result.push_back(task);
    return result;
}

TaskOp
TaskOp::create(OpBuilder& builder, const std::vector<Type>& result_types)
{
    Operation* op = builder.create(opNameId<TaskOp>(), {}, result_types, 1);
    op->body();
    return TaskOp(op);
}

DispatchOp
TaskOp::parentDispatch() const
{
    return DispatchOp(op_->parentOfName(opNameId<DispatchOp>()));
}

//===----------------------------------------------------------------------===//
// Structural dataflow
//===----------------------------------------------------------------------===//

ScheduleOp
ScheduleOp::create(OpBuilder& builder, std::vector<Value*> live_ins)
{
    Operation* op = builder.create(opNameId<ScheduleOp>(), live_ins, {}, 1);
    Block* body = op->body();
    for (Value* v : live_ins)
        body->addArgument(v->type(), v->nameHint());
    return ScheduleOp(op);
}

std::vector<NodeOp>
ScheduleOp::nodes() const
{
    std::vector<NodeOp> result;
    for (Operation* op : *body())
        if (auto node = dynCast<NodeOp>(op))
            result.push_back(node);
    return result;
}

NodeOp
NodeOp::create(OpBuilder& builder, std::vector<Value*> operands,
               const std::vector<MemoryEffect>& effects,
               const std::string& label)
{
    HIDA_ASSERT(operands.size() == effects.size(),
                "hida.node operand/effect count mismatch");
    Operation* op = builder.create(opNameId<NodeOp>(), operands, {}, 1);
    Block* body = op->body();
    std::vector<int64_t> encoded;
    for (unsigned i = 0; i < operands.size(); ++i) {
        body->addArgument(operands[i]->type(), operands[i]->nameHint());
        encoded.push_back(static_cast<int64_t>(effects[i]));
    }
    op->setAttr(NodeOp::effectsId(), Attribute::i64Array(encoded));
    op->setAttr(NodeOp::labelId(), Attribute::string(label));
    return NodeOp(op);
}

std::string
NodeOp::label() const
{
    const Attribute* label = op_->findAttr(labelId());
    return label != nullptr ? label->asString() : "node";
}

MemoryEffect
NodeOp::effect(unsigned operand_index) const
{
    // Index the array attribute in place: no i64 vector materialization.
    return static_cast<MemoryEffect>(
        op_->attr(effectsId()).asArray().at(operand_index).asInt());
}

void
NodeOp::setEffect(unsigned operand_index, MemoryEffect effect)
{
    std::vector<int64_t> encoded = op_->attr(effectsId()).asI64Array();
    encoded.at(operand_index) = static_cast<int64_t>(effect);
    op_->setAttr(effectsId(), Attribute::i64Array(encoded));
}

std::vector<MemoryEffect>
NodeOp::effects() const
{
    std::vector<MemoryEffect> result;
    for (int64_t e : op_->attr(effectsId()).asI64Array())
        result.push_back(static_cast<MemoryEffect>(e));
    return result;
}

Value*
NodeOp::appendArgument(Value* operand, MemoryEffect effect)
{
    op_->appendOperand(operand);
    std::vector<int64_t> encoded = op_->attr(effectsId()).asI64Array();
    encoded.push_back(static_cast<int64_t>(effect));
    op_->setAttr(effectsId(), Attribute::i64Array(encoded));
    return op_->body()->addArgument(operand->type(), operand->nameHint());
}

void
NodeOp::removeArgument(unsigned i)
{
    HIDA_ASSERT(!innerArg(i)->hasUses(), "removing a used node argument");
    std::vector<int64_t> encoded = op_->attr(effectsId()).asI64Array();
    encoded.erase(encoded.begin() + i);
    op_->setAttr(effectsId(), Attribute::i64Array(encoded));
    op_->eraseOperand(i);
    op_->body()->eraseArgument(i);
}

bool
NodeOp::reads(unsigned i) const
{
    MemoryEffect e = effect(i);
    return e == MemoryEffect::kRead || e == MemoryEffect::kReadWrite;
}

bool
NodeOp::writes(unsigned i) const
{
    MemoryEffect e = effect(i);
    return e == MemoryEffect::kWrite || e == MemoryEffect::kReadWrite;
}

std::vector<unsigned>
NodeOp::writtenOperandIndices() const
{
    std::vector<unsigned> result;
    for (unsigned i = 0; i < op_->numOperands(); ++i)
        if (writes(i))
            result.push_back(i);
    return result;
}

std::vector<unsigned>
NodeOp::readOperandIndices() const
{
    std::vector<unsigned> result;
    for (unsigned i = 0; i < op_->numOperands(); ++i)
        if (reads(i))
            result.push_back(i);
    return result;
}

BufferOp
BufferOp::create(OpBuilder& builder, Type memref_type, int64_t stages,
                 const std::string& hint)
{
    HIDA_ASSERT(memref_type.isMemRef(), "hida.buffer requires a memref type");
    Operation* op = builder.create(opNameId<BufferOp>(), {}, {memref_type});
    op->setIntAttr(stagesId(), stages);
    op->result(0)->setNameHint(hint);
    return BufferOp(op);
}

std::vector<int64_t>
BufferOp::partitionFactors() const
{
    if (op_->hasAttr(partitionFactorsId()))
        return op_->attr(partitionFactorsId()).asI64Array();
    return std::vector<int64_t>(type().shape().size(), 1);
}

std::vector<int64_t>
BufferOp::partitionFashions() const
{
    if (op_->hasAttr(partitionFashionsId()))
        return op_->attr(partitionFashionsId()).asI64Array();
    return std::vector<int64_t>(type().shape().size(),
                                static_cast<int64_t>(PartitionFashion::kNone));
}

void
BufferOp::setPartition(const std::vector<int64_t>& fashions,
                       const std::vector<int64_t>& factors)
{
    HIDA_ASSERT(fashions.size() == type().shape().size() &&
                    factors.size() == type().shape().size(),
                "partition rank mismatch");
    op_->setAttr(partitionFashionsId(), Attribute::i64Array(fashions));
    op_->setAttr(partitionFactorsId(), Attribute::i64Array(factors));
}

const std::vector<Attribute>*
BufferOp::partitionFactorList() const
{
    const Attribute* factors = op_->findAttr(partitionFactorsId());
    return factors != nullptr ? &factors->asArray() : nullptr;
}

int64_t
BufferOp::bankCount() const
{
    int64_t banks = 1;
    if (const std::vector<Attribute>* factors = partitionFactorList())
        for (const Attribute& factor : *factors)
            banks *= factor.asInt();
    return banks;
}

std::vector<int64_t>
BufferOp::tileFactors() const
{
    if (op_->hasAttr(tileFactorsId()))
        return op_->attr(tileFactorsId()).asI64Array();
    return std::vector<int64_t>(type().shape().size(), 1);
}

void
BufferOp::setTileFactors(const std::vector<int64_t>& factors)
{
    op_->setAttr(tileFactorsId(), Attribute::i64Array(factors));
}

std::string
BufferOp::memKind() const
{
    return op_->hasAttr(memKindId()) ? op_->attr(memKindId()).asString()
                                    : "bram_t2p";
}

void
BufferOp::setMemKind(const std::string& kind)
{
    op_->setAttr(memKindId(), Attribute::string(kind));
}

StreamOp
StreamOp::create(OpBuilder& builder, Type element, int64_t depth,
                 const std::string& hint)
{
    Operation* op = builder.create(opNameId<StreamOp>(), {},
                                   {Type::stream(element, depth)});
    op->result(0)->setNameHint(hint);
    return StreamOp(op);
}

StreamReadOp
StreamReadOp::create(OpBuilder& builder, Value* stream)
{
    HIDA_ASSERT(stream->type().isStream(), "stream_read requires a stream");
    return StreamReadOp(builder.create(opNameId<StreamReadOp>(), {stream},
                                       {stream->type().elementType()}));
}

StreamWriteOp
StreamWriteOp::create(OpBuilder& builder, Value* value, Value* stream)
{
    HIDA_ASSERT(stream->type().isStream(), "stream_write requires a stream");
    return StreamWriteOp(builder.create(opNameId<StreamWriteOp>(),
                                        {value, stream}));
}

PortOp
PortOp::create(OpBuilder& builder, Type type, const std::string& kind,
               int64_t latency_cycles)
{
    Operation* op = builder.create(opNameId<PortOp>(), {}, {type});
    op->setAttr(kindId(), Attribute::string(kind));
    op->setIntAttr(latencyId(), latency_cycles);
    op->result(0)->setNameHint("port");
    return PortOp(op);
}

BundleOp
BundleOp::create(OpBuilder& builder, const std::string& name,
                 std::vector<Value*> ports)
{
    Operation* op = builder.create(opNameId<BundleOp>(), std::move(ports));
    op->setAttr(bundleNameId(), Attribute::string(name));
    return BundleOp(op);
}

PackOp
PackOp::create(OpBuilder& builder, Value* memref, Value* port)
{
    return PackOp(builder.create(opNameId<PackOp>(), {memref, port}));
}

//===----------------------------------------------------------------------===//
// Registration
//===----------------------------------------------------------------------===//

namespace {

/** True when @p attr is present and an array of integers. */
bool
isIntArray(const Attribute* attr)
{
    if (attr == nullptr || !attr->is(AttrKind::kArray))
        return false;
    for (const Attribute& element : attr->asArray())
        if (!element.is(AttrKind::kInt))
            return false;
    return true;
}

} // namespace

void
registerHidaDialect()
{
    auto& registry = OpRegistry::instance();

    registry.registerOp(YieldOp::kOpName,
                        OpInfo{.isolatedFromAbove = false,
                               .isTerminator = true,
                               .verify = nullptr});
    registry.registerOp(DispatchOp::kOpName, OpInfo{});
    registry.registerOp(TaskOp::kOpName, OpInfo{});

    registry.registerOp(
        ScheduleOp::kOpName,
        OpInfo{.isolatedFromAbove = true,
               .isTerminator = false,
               .verify = [](Operation* op) -> std::optional<std::string> {
                   if (!op->hasBody() ||
                       op->body()->numArguments() != op->numOperands())
                       return "hida.schedule args must mirror operands";
                   return std::nullopt;
               }});
    registry.registerOp(
        NodeOp::kOpName,
        OpInfo{.isolatedFromAbove = true,
               .isTerminator = false,
               .verify = [](Operation* op) -> std::optional<std::string> {
                   if (!op->hasBody() ||
                       op->body()->numArguments() != op->numOperands())
                       return "hida.node args must mirror operands";
                   const Attribute* effects =
                       op->findAttr(NodeOp::effectsId());
                   if (effects == nullptr)
                       return "hida.node requires one effect per operand";
                   if (!isIntArray(effects))
                       return "hida.node 'effects' must be an integer array";
                   if (effects->asArray().size() != op->numOperands())
                       return "hida.node requires one effect per operand";
                   return std::nullopt;
               }});
    registry.registerOp(
        BufferOp::kOpName,
        OpInfo{.verify = [](Operation* op) -> std::optional<std::string> {
            const Attribute* stages = op->findAttr(BufferOp::stagesId());
            if (stages != nullptr && !stages->is(AttrKind::kInt))
                return "hida.buffer 'stages' must be an integer";
            // An absent stages attribute reads as BufferOp's default (1).
            if (stages != nullptr && stages->asInt() < 1)
                return "hida.buffer requires stages >= 1";
            if (op->numResults() == 0)
                return "hida.buffer requires a result";
            const auto& shape = op->result(0)->type().shape();
            const Attribute* factors =
                op->findAttr(BufferOp::partitionFactorsId());
            if (factors == nullptr) {
                // Unpartitioned: every dimension's factor is 1.
                for (int64_t dim : shape)
                    if (dim < 1)
                        return "hida.buffer partition factor out of range";
                return std::nullopt;
            }
            if (!isIntArray(factors))
                return "hida.buffer 'partition_factors' must be an integer "
                       "array";
            const std::vector<Attribute>& list = factors->asArray();
            if (list.size() > shape.size())
                return strCat("hida.buffer has ", list.size(),
                              " partition factors for rank ", shape.size());
            for (size_t i = 0; i < list.size(); ++i)
                if (list[i].asInt() < 1 || list[i].asInt() > shape[i])
                    return "hida.buffer partition factor out of range";
            return std::nullopt;
        }});
    registry.registerOp(StreamOp::kOpName, OpInfo{});
    registry.registerOp(StreamReadOp::kOpName, OpInfo{});
    registry.registerOp(StreamWriteOp::kOpName, OpInfo{});
    registry.registerOp(PortOp::kOpName, OpInfo{});
    registry.registerOp(BundleOp::kOpName, OpInfo{});
    registry.registerOp(PackOp::kOpName, OpInfo{});
}

} // namespace hida
