#include "src/dialect/nn/nn_ops.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

#include "src/ir/registry.h"
#include "src/support/diagnostics.h"

namespace hida {

namespace {

using Shape = std::vector<int64_t>;

/**
 * The result shape an op's operand shapes and integer attributes give,
 * or the reason they give none (static text). One derivation per op
 * kind, shared by its create, which asserts on it, and verifyNnOp, which
 * reports it. Allocation-free, like the hooks. Ranks are checked before.
 */
struct DerivedShape {
    std::array<int64_t, 4> dims = {};
    size_t rank = 0;
    /** Elementwise ops: the result has this operand's shape. */
    const Shape* like = nullptr;
    const char* error = nullptr;

    bool
    matches(const Shape& shape) const
    {
        if (like != nullptr)
            return shape == *like;
        return shape.size() == rank &&
               std::equal(shape.begin(), shape.end(), dims.begin());
    }

    Shape
    vec() const
    {
        return like != nullptr ? *like
                               : Shape(dims.begin(), dims.begin() + rank);
    }
};

DerivedShape
failed(const char* reason)
{
    DerivedShape shape;
    shape.error = reason;
    return shape;
}

DerivedShape
shapeOf(std::initializer_list<int64_t> dims)
{
    DerivedShape shape;
    std::copy(dims.begin(), dims.end(), shape.dims.begin());
    shape.rank = dims.size();
    return shape;
}

/** Output spatial size of a windowed op. */
int64_t
convOut(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

/** Input NCHW, weight OIHW (depthwise: C1HW). */
DerivedShape
convShape(const Shape& in, const Shape& wt, int64_t stride, int64_t pad,
          bool depthwise)
{
    if (in[1] != wt[depthwise ? 0 : 1])
        return failed("weight channels differ from the input's");
    if (in[2] + 2 * pad < wt[2] || in[3] + 2 * pad < wt[3])
        return failed("window is larger than the padded input");
    return shapeOf({in[0], depthwise ? in[1] : wt[0],
                    convOut(in[2], wt[2], stride, pad),
                    convOut(in[3], wt[3], stride, pad)});
}

DerivedShape
poolShape(const Shape& in, int64_t kernel, int64_t stride)
{
    if (in[2] < kernel || in[3] < kernel)
        return failed("window is larger than the padded input");
    return shapeOf({in[0], in[1], convOut(in[2], kernel, stride, 0),
                    convOut(in[3], kernel, stride, 0)});
}

/** Input NF, weight OF. */
DerivedShape
linearShape(const Shape& in, const Shape& wt)
{
    if (in[1] != wt[1])
        return failed("weight features differ from the input's");
    return shapeOf({in[0], wt[0]});
}

DerivedShape
elementwiseShape(const Shape& lhs, const Shape* rhs)
{
    if (rhs != nullptr && *rhs != lhs)
        return failed("operands differ in shape");
    DerivedShape shape;
    shape.like = &lhs;
    return shape;
}

DerivedShape
flattenShape(const Shape& in)
{
    int64_t features = 1;
    for (size_t i = 1; i < in.size(); ++i)
        features *= in[i];
    return shapeOf({in[0], features});
}

DerivedShape
concatShape(const Shape& a, const Shape& b)
{
    if (a[2] != b[2] || a[3] != b[3])
        return failed("operands differ in spatial size");
    return shapeOf({a[0], a[1] + b[1], a[2], a[3]});
}

DerivedShape
upsampleShape(const Shape& in, int64_t scale)
{
    return shapeOf({in[0], in[1], in[2] * scale, in[3] * scale});
}

/** The derivation of @p op, which is no nn.weight. */
DerivedShape
derivedShape(Operation* op)
{
    const Shape& in = op->operand(0)->type().shape();
    auto other = [&]() -> const Shape& {
        return op->operand(1)->type().shape();
    };
    if (auto conv = dynCast<Conv2dOp>(op))
        return convShape(in, other(), conv.stride(), conv.pad(), false);
    if (auto conv = dynCast<DwConv2dOp>(op))
        return convShape(in, other(), conv.stride(), conv.pad(), true);
    if (auto pool = dynCast<MaxPoolOp>(op))
        return poolShape(in, pool.kernel(), pool.stride());
    if (auto pool = dynCast<AvgPoolOp>(op))
        return poolShape(in, pool.kernel(), pool.stride());
    if (isa<LinearOp>(op))
        return linearShape(in, other());
    if (isa<NnAddOp>(op))
        return elementwiseShape(in, &other());
    if (isa<FlattenOp>(op))
        return flattenShape(in);
    if (isa<ConcatOp>(op))
        return concatShape(in, other());
    if (auto upsample = dynCast<UpsampleOp>(op))
        return upsampleShape(in, upsample.scale());
    return elementwiseShape(in, nullptr);  // nn.relu
}

bool
hasDimBelowOne(const Shape& shape)
{
    return std::any_of(shape.begin(), shape.end(),
                       [](int64_t dim) { return dim < 1; });
}

int64_t
elementCount(const Shape& shape)
{
    int64_t count = 1;
    for (int64_t dim : shape)
        count *= dim;
    return count;
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
        if (hasDimBelowOne(type.shape()))
            return strCat(op->name(), " operand #", i,
                          " has a dimension below 1");
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
    // The result: no dimension below 1, and the shape the operands give.
    const Shape& result = op->result(0)->type().shape();
    if (hasDimBelowOne(result))
        return strCat(op->name(), " result has a dimension below 1");
    if (isa<NnWeightOp>(op))
        return std::nullopt;
    const DerivedShape derived = derivedShape(op);
    if (derived.error != nullptr)
        return strCat(op->name(), " ", derived.error);
    if (derived.matches(result))
        return std::nullopt;
    if (isa<FlattenOp>(op) &&
        elementCount(result) != elementCount(op->operand(0)->type().shape()))
        return strCat(op->name(), " changes the element count");
    return strCat(op->name(), " result shape differs from the one its "
                              "operands give");
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
    const auto& in = input->type().shape();
    const auto& wt = weight->type().shape();
    HIDA_ASSERT(in.size() == 4 && wt.size() == 4, "conv2d rank mismatch");
    const DerivedShape out = convShape(in, wt, stride, pad, false);
    HIDA_ASSERT(out.error == nullptr, "nn.conv2d ", out.error);
    std::vector<Value*> operands = {input, weight};
    if (bias != nullptr)
        operands.push_back(bias);
    Operation* op =
        builder.create(opNameId<Conv2dOp>(), std::move(operands),
                       {Type::tensor(out.vec(), input->type().elementType())});
    op->setIntAttr(strideId(), stride);
    op->setIntAttr(padId(), pad);
    return Conv2dOp(op);
}

DwConv2dOp
DwConv2dOp::create(OpBuilder& builder, Value* input, Value* weight,
                   int64_t stride, int64_t pad)
{
    const auto& in = input->type().shape();
    const auto& wt = weight->type().shape();
    HIDA_ASSERT(in.size() == 4 && wt.size() == 4, "dwconv2d rank mismatch");
    const DerivedShape out = convShape(in, wt, stride, pad, true);
    HIDA_ASSERT(out.error == nullptr, "nn.dwconv2d ", out.error);
    Operation* op =
        builder.create(opNameId<DwConv2dOp>(), {input, weight},
                       {Type::tensor(out.vec(), input->type().elementType())});
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
    const DerivedShape out = poolShape(in, kernel, stride);
    HIDA_ASSERT(out.error == nullptr, "nn.maxpool ", out.error);
    Operation* op =
        builder.create(opNameId<MaxPoolOp>(), {input},
                       {Type::tensor(out.vec(), input->type().elementType())});
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
    const DerivedShape out = poolShape(in, kernel, stride);
    HIDA_ASSERT(out.error == nullptr, "nn.avgpool ", out.error);
    Operation* op =
        builder.create(opNameId<AvgPoolOp>(), {input},
                       {Type::tensor(out.vec(), input->type().elementType())});
    op->setIntAttr(kernelId(), kernel);
    op->setIntAttr(strideId(), stride);
    return AvgPoolOp(op);
}

LinearOp
LinearOp::create(OpBuilder& builder, Value* input, Value* weight, Value* bias)
{
    const auto& in = input->type().shape();
    const auto& wt = weight->type().shape();
    HIDA_ASSERT(in.size() == 2 && wt.size() == 2, "linear rank mismatch");
    const DerivedShape out = linearShape(in, wt);
    HIDA_ASSERT(out.error == nullptr, "nn.linear ", out.error);
    std::vector<Value*> operands = {input, weight};
    if (bias != nullptr)
        operands.push_back(bias);
    Operation* op = builder.create(
        opNameId<LinearOp>(), std::move(operands),
        {Type::tensor(out.vec(), input->type().elementType())});
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
    const DerivedShape out =
        elementwiseShape(lhs->type().shape(), &rhs->type().shape());
    HIDA_ASSERT(out.error == nullptr, "nn.add ", out.error);
    return NnAddOp(builder.create(opNameId<NnAddOp>(), {lhs, rhs},
                                  {lhs->type()}));
}

FlattenOp
FlattenOp::create(OpBuilder& builder, Value* input)
{
    return FlattenOp(builder.create(
        opNameId<FlattenOp>(), {input},
        {Type::tensor(flattenShape(input->type().shape()).vec(),
                      input->type().elementType())}));
}

ConcatOp
ConcatOp::create(OpBuilder& builder, Value* lhs, Value* rhs)
{
    const auto& a = lhs->type().shape();
    const auto& b = rhs->type().shape();
    HIDA_ASSERT(a.size() == 4 && b.size() == 4, "nn.concat rank mismatch");
    const DerivedShape out = concatShape(a, b);
    HIDA_ASSERT(out.error == nullptr, "nn.concat ", out.error);
    return ConcatOp(builder.create(
        opNameId<ConcatOp>(), {lhs, rhs},
        {Type::tensor(out.vec(), lhs->type().elementType())}));
}

UpsampleOp
UpsampleOp::create(OpBuilder& builder, Value* input, int64_t scale)
{
    const auto& in = input->type().shape();
    HIDA_ASSERT(in.size() == 4, "upsample rank mismatch");
    Operation* op = builder.create(
        opNameId<UpsampleOp>(), {input},
        {Type::tensor(upsampleShape(in, scale).vec(),
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
