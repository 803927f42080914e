#include "src/dialect/nn/nn_ops.h"

#include <array>
#include <limits>
#include <utility>

#include "src/ir/registry.h"
#include "src/support/diagnostics.h"

namespace hida {

namespace {

/** Output spatial size of a windowed op. */
int64_t
convOut(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

constexpr int kAnyRank = -1;
/** The operand must have the result's rank (elementwise ops index their
 * operands with the result's loops). */
constexpr int kResultRank = -2;

/**
 * What the nn lowering and the interpreter read of one op: its operand
 * count, the rank of each tensor operand and of its one tensor result,
 * and the integer attributes it divides or loops by, each with its least
 * legal value.
 */
struct NnSignature {
    unsigned minOperands = 0;
    unsigned maxOperands = 0;
    std::array<int, 3> operandRanks = {};
    int resultRank = kAnyRank;
    std::array<std::pair<Identifier, int64_t>, 2> ints = {};
};

NnSignature
signatureOf(const Operation* op)
{
    if (isa<Conv2dOp>(op) || isa<DwConv2dOp>(op)) {
        // input NCHW, weight OIHW (depthwise C1HW), optional bias O.
        return {2, isa<Conv2dOp>(op) ? 3u : 2u, {4, 4, 1}, 4,
                {{{NnWindowKeys::strideId(), 1}, {NnWindowKeys::padId(), 0}}}};
    }
    if (isa<MaxPoolOp>(op) || isa<AvgPoolOp>(op))
        return {1, 1, {4}, 4,
                {{{NnWindowKeys::kernelId(), 1},
                  {NnWindowKeys::strideId(), 1}}}};
    if (isa<LinearOp>(op))
        return {2, 3, {2, 2, 1}, 2, {}};
    if (isa<UpsampleOp>(op))
        return {1, 1, {4}, 4, {{{UpsampleOp::scaleId(), 1}}}};
    if (isa<ConcatOp>(op))
        return {2, 2, {4, 4}, 4, {}};
    if (isa<ReluOp>(op))
        return {1, 1, {kResultRank}, kAnyRank, {}};
    if (isa<NnAddOp>(op))
        return {2, 2, {kResultRank, kResultRank}, kAnyRank, {}};
    if (isa<FlattenOp>(op))  // its input rank is checked below
        return {1, 1, {kAnyRank}, 2, {}};
    // nn.weight, the one op left.
    return {0, 0, {}, kAnyRank,
            {{{WeightOp::seedId(), std::numeric_limits<int64_t>::min()}}}};
}

/** The hook of every nn op: checks signatureOf(op). */
std::optional<std::string>
verifyNnOp(Operation* op)
{
    const NnSignature sig = signatureOf(op);
    const unsigned count = op->numOperands();
    if (count < sig.minOperands || count > sig.maxOperands) {
        if (sig.minOperands == sig.maxOperands)
            return strCat(op->name(), " requires ", sig.minOperands,
                          sig.minOperands == 1 ? " operand" : " operands");
        return strCat(op->name(), " requires ", sig.minOperands, " or ",
                      sig.maxOperands, " operands");
    }
    if (op->numResults() != 1 || !op->result(0)->type().isTensor())
        return strCat(op->name(), " requires one tensor result");
    const int result_rank =
        static_cast<int>(op->result(0)->type().shape().size());
    if (sig.resultRank != kAnyRank && result_rank != sig.resultRank)
        return strCat(op->name(), " result must have rank ", sig.resultRank);
    for (unsigned i = 0; i < count; ++i) {
        Type type = op->operand(i)->type();
        if (!type.isTensor())
            return strCat(op->name(), " operand #", i, " must be a tensor");
        const int rank = static_cast<int>(type.shape().size());
        const int want = sig.operandRanks[i] == kResultRank
                             ? result_rank
                             : sig.operandRanks[i];
        if (want != kAnyRank && rank != want)
            return strCat(op->name(), " operand #", i, " must have rank ",
                          want);
        if (isa<FlattenOp>(op) && rank != 2 && rank != 4)
            return strCat(op->name(), " operand must have rank 2 or 4");
    }
    for (const auto& [key, least] : sig.ints) {
        const Attribute* attr = key ? op->findAttr(key) : nullptr;
        if (attr == nullptr)
            continue;
        if (!attr->is(AttrKind::kInt))
            return strCat(op->name(), " '", key.str(), "' must be an integer");
        if (attr->asInt() < least)
            return strCat(op->name(), " requires ", key.str(), " >= ", least);
    }
    return std::nullopt;
}

} // namespace

NnWeightOp
NnWeightOp::create(OpBuilder& builder, std::vector<int64_t> shape, Type element,
                   int64_t seed)
{
    Operation* op = builder.create(opNameId<NnWeightOp>(), {},
                                   {Type::tensor(std::move(shape), element)});
    op->setIntAttr(WeightOp::seedId(), seed);
    op->result(0)->setNameHint("w");
    return NnWeightOp(op);
}

Conv2dOp
Conv2dOp::create(OpBuilder& builder, Value* input, Value* weight, Value* bias,
                 int64_t stride, int64_t pad)
{
    const auto& in = input->type().shape();   // N, C, H, W
    const auto& wt = weight->type().shape();  // O, I, KH, KW
    HIDA_ASSERT(in.size() == 4 && wt.size() == 4, "conv2d rank mismatch");
    HIDA_ASSERT(in[1] == wt[1], "conv2d channel mismatch: input C=", in[1],
                " weight I=", wt[1]);
    std::vector<int64_t> out = {in[0], wt[0],
                                convOut(in[2], wt[2], stride, pad),
                                convOut(in[3], wt[3], stride, pad)};
    std::vector<Value*> operands = {input, weight};
    if (bias != nullptr)
        operands.push_back(bias);
    Operation* op =
        builder.create(opNameId<Conv2dOp>(), std::move(operands),
                       {Type::tensor(out, input->type().elementType())});
    op->setIntAttr(strideId(), stride);
    op->setIntAttr(padId(), pad);
    return Conv2dOp(op);
}

DwConv2dOp
DwConv2dOp::create(OpBuilder& builder, Value* input, Value* weight,
                   int64_t stride, int64_t pad)
{
    const auto& in = input->type().shape();   // N, C, H, W
    const auto& wt = weight->type().shape();  // C, 1, KH, KW
    HIDA_ASSERT(in.size() == 4 && wt.size() == 4 && in[1] == wt[0],
                "dwconv2d shape mismatch");
    std::vector<int64_t> out = {in[0], in[1],
                                convOut(in[2], wt[2], stride, pad),
                                convOut(in[3], wt[3], stride, pad)};
    Operation* op =
        builder.create(opNameId<DwConv2dOp>(), {input, weight},
                       {Type::tensor(out, input->type().elementType())});
    op->setIntAttr(strideId(), stride);
    op->setIntAttr(padId(), pad);
    return DwConv2dOp(op);
}

MaxPoolOp
MaxPoolOp::create(OpBuilder& builder, Value* input, int64_t kernel,
                  int64_t stride)
{
    const auto& in = input->type().shape();
    HIDA_ASSERT(in.size() == 4, "maxpool rank mismatch");
    std::vector<int64_t> out = {in[0], in[1], convOut(in[2], kernel, stride, 0),
                                convOut(in[3], kernel, stride, 0)};
    Operation* op =
        builder.create(opNameId<MaxPoolOp>(), {input},
                       {Type::tensor(out, input->type().elementType())});
    op->setIntAttr(kernelId(), kernel);
    op->setIntAttr(strideId(), stride);
    return MaxPoolOp(op);
}

AvgPoolOp
AvgPoolOp::create(OpBuilder& builder, Value* input, int64_t kernel,
                  int64_t stride)
{
    const auto& in = input->type().shape();
    HIDA_ASSERT(in.size() == 4, "avgpool rank mismatch");
    std::vector<int64_t> out = {in[0], in[1], convOut(in[2], kernel, stride, 0),
                                convOut(in[3], kernel, stride, 0)};
    Operation* op =
        builder.create(opNameId<AvgPoolOp>(), {input},
                       {Type::tensor(out, input->type().elementType())});
    op->setIntAttr(kernelId(), kernel);
    op->setIntAttr(strideId(), stride);
    return AvgPoolOp(op);
}

LinearOp
LinearOp::create(OpBuilder& builder, Value* input, Value* weight, Value* bias)
{
    const auto& in = input->type().shape();   // N, F
    const auto& wt = weight->type().shape();  // O, F
    HIDA_ASSERT(in.size() == 2 && wt.size() == 2 && in[1] == wt[1],
                "linear shape mismatch: in F=", in.size() == 2 ? in[1] : -1,
                " weight F=", wt.size() == 2 ? wt[1] : -1);
    std::vector<Value*> operands = {input, weight};
    if (bias != nullptr)
        operands.push_back(bias);
    Operation* op = builder.create(
        opNameId<LinearOp>(), std::move(operands),
        {Type::tensor({in[0], wt[0]}, input->type().elementType())});
    return LinearOp(op);
}

ReluOp
ReluOp::create(OpBuilder& builder, Value* input)
{
    return ReluOp(builder.create(opNameId<ReluOp>(), {input},
                                 {input->type()}));
}

NnAddOp
NnAddOp::create(OpBuilder& builder, Value* lhs, Value* rhs)
{
    HIDA_ASSERT(lhs->type().shape() == rhs->type().shape(),
                "nn.add shape mismatch");
    return NnAddOp(builder.create(opNameId<NnAddOp>(), {lhs, rhs},
                                  {lhs->type()}));
}

FlattenOp
FlattenOp::create(OpBuilder& builder, Value* input)
{
    const auto& in = input->type().shape();
    int64_t features = 1;
    for (size_t i = 1; i < in.size(); ++i)
        features *= in[i];
    return FlattenOp(builder.create(
        opNameId<FlattenOp>(), {input},
        {Type::tensor({in[0], features}, input->type().elementType())}));
}

ConcatOp
ConcatOp::create(OpBuilder& builder, Value* lhs, Value* rhs)
{
    const auto& a = lhs->type().shape();
    const auto& b = rhs->type().shape();
    HIDA_ASSERT(a.size() == 4 && b.size() == 4 && a[2] == b[2] && a[3] == b[3],
                "nn.concat shape mismatch");
    return ConcatOp(builder.create(
        opNameId<ConcatOp>(), {lhs, rhs},
        {Type::tensor({a[0], a[1] + b[1], a[2], a[3]},
                      lhs->type().elementType())}));
}

UpsampleOp
UpsampleOp::create(OpBuilder& builder, Value* input, int64_t scale)
{
    const auto& in = input->type().shape();
    HIDA_ASSERT(in.size() == 4, "upsample rank mismatch");
    Operation* op = builder.create(
        opNameId<UpsampleOp>(), {input},
        {Type::tensor({in[0], in[1], in[2] * scale, in[3] * scale},
                      input->type().elementType())});
    op->setIntAttr(scaleId(), scale);
    return UpsampleOp(op);
}

bool
isNnOp(const Operation* op)
{
    static const Identifier nn_dialect = Identifier::get("nn");
    return op->dialectId() == nn_dialect;
}

int64_t
nnOpMacs(const Operation* op)
{
    auto out_elems = [&]() {
        return const_cast<Operation*>(op)->result(0)->type().numElements();
    };
    if (auto conv = dynCast<Conv2dOp>(const_cast<Operation*>(op))) {
        const auto& wt = conv.weight()->type().shape();
        return out_elems() * wt[1] * wt[2] * wt[3];
    }
    if (auto dw = dynCast<DwConv2dOp>(const_cast<Operation*>(op))) {
        const auto& wt = dw.weight()->type().shape();
        return out_elems() * wt[2] * wt[3];
    }
    if (auto linear = dynCast<LinearOp>(const_cast<Operation*>(op)))
        return out_elems() * linear.weight()->type().shape()[1];
    return 0;
}

int64_t
nnOpIntensity(const Operation* op)
{
    int64_t macs = nnOpMacs(op);
    if (macs > 0)
        return 2 * macs;
    auto* mutable_op = const_cast<Operation*>(op);
    if (mutable_op->numResults() == 0)
        return 0;
    int64_t out = mutable_op->result(0)->type().numElements();
    if (auto pool = dynCast<MaxPoolOp>(mutable_op))
        return out * pool.kernel() * pool.kernel();
    if (auto pool = dynCast<AvgPoolOp>(mutable_op))
        return out * pool.kernel() * pool.kernel();
    // relu / add / flatten / concat / upsample: one op per output element.
    return out;
}

void
registerNnDialect()
{
    auto& registry = OpRegistry::instance();
    for (const char* name :
         {NnWeightOp::kOpName, Conv2dOp::kOpName, DwConv2dOp::kOpName,
          MaxPoolOp::kOpName, AvgPoolOp::kOpName, LinearOp::kOpName,
          ReluOp::kOpName, NnAddOp::kOpName, FlattenOp::kOpName,
          ConcatOp::kOpName, UpsampleOp::kOpName})
        registry.registerOp(name, OpInfo{.verify = verifyNnOp});
}

} // namespace hida
