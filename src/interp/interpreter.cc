#include "src/interp/interpreter.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/analysis/memory_effects.h"
#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/dialect/memref/memref_ops.h"
#include "src/dialect/nn/nn_ops.h"
#include "src/support/diagnostics.h"

namespace hida {

std::vector<double>
weightData(int64_t num_elements, int64_t seed)
{
    std::vector<double> data(num_elements);
    uint64_t state =
        static_cast<uint64_t>(seed) * 6364136223846793005ull + 1ull;
    for (int64_t i = 0; i < num_elements; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        data[i] = static_cast<double>(
            static_cast<int64_t>((state >> 33) % 7) - 3);
    }
    return data;
}

namespace {

//===----------------------------------------------------------------------===//
// Tensor-level reference executor
//===----------------------------------------------------------------------===//

using Tensor = std::vector<double>;

int64_t
flatten4(const std::vector<int64_t>& s, int64_t a, int64_t b, int64_t c,
         int64_t d)
{
    return ((a * s[1] + b) * s[2] + c) * s[3] + d;
}

class NnExecutor {
  public:
    Tensor
    run(FuncOp func, const Tensor& input, Value* output)
    {
        values_[func.argument(0)] = input;
        // Pre-order so ops inside dispatch/task regions run in order.
        func.op()->walk([&](Operation* op) { execute(op); },
                        WalkOrder::kPreOrder);
        HIDA_ASSERT(values_.count(output), "output tensor never produced");
        return values_[output];
    }

  private:
    const Tensor&
    value(Value* v)
    {
        // Task/dispatch results alias their yielded values.
        while (!values_.count(v)) {
            Operation* def = v->definingOp();
            HIDA_ASSERT(def != nullptr &&
                            (isa<TaskOp>(def) || isa<DispatchOp>(def)),
                        "tensor not computed");
            Operation* yield = def->body()->back();
            v = yield->operand(v->index());
        }
        return values_[v];
    }

    void
    execute(Operation* op)
    {
        if (auto weight = dynCast<NnWeightOp>(op)) {
            values_[op->result(0)] = weightData(
                op->result(0)->type().numElements(), weight.seed());
            return;
        }
        if (!isNnOp(op))
            return;
        const auto out_shape = op->result(0)->type().shape();
        Tensor out(op->result(0)->type().numElements(), 0.0);

        if (auto conv = dynCast<Conv2dOp>(op)) {
            const auto in_s = conv.input()->type().shape();
            const auto w_s = conv.weight()->type().shape();
            const Tensor& in = value(conv.input());
            const Tensor& wt = value(conv.weight());
            const Tensor* bias =
                conv.bias() != nullptr ? &value(conv.bias()) : nullptr;
            int64_t stride = conv.stride(), pad = conv.pad();
            for (int64_t n = 0; n < out_shape[0]; ++n)
                for (int64_t o = 0; o < out_shape[1]; ++o)
                    for (int64_t y = 0; y < out_shape[2]; ++y)
                        for (int64_t x = 0; x < out_shape[3]; ++x) {
                            double acc = bias != nullptr ? (*bias)[o] : 0.0;
                            for (int64_t c = 0; c < w_s[1]; ++c)
                                for (int64_t kh = 0; kh < w_s[2]; ++kh)
                                    for (int64_t kw = 0; kw < w_s[3]; ++kw) {
                                        int64_t iy = y * stride + kh - pad;
                                        int64_t ix = x * stride + kw - pad;
                                        if (iy < 0 || iy >= in_s[2] ||
                                            ix < 0 || ix >= in_s[3])
                                            continue;
                                        acc +=
                                            in[flatten4(in_s, n, c, iy,
                                                        ix)] *
                                            wt[flatten4(w_s, o, c, kh, kw)];
                                    }
                            out[flatten4(out_shape, n, o, y, x)] = acc;
                        }
        } else if (auto dw = dynCast<DwConv2dOp>(op)) {
            const auto in_s = dw.input()->type().shape();
            const auto w_s = dw.weight()->type().shape();
            const Tensor& in = value(dw.input());
            const Tensor& wt = value(dw.weight());
            int64_t stride = dw.stride(), pad = dw.pad();
            for (int64_t n = 0; n < out_shape[0]; ++n)
                for (int64_t c = 0; c < out_shape[1]; ++c)
                    for (int64_t y = 0; y < out_shape[2]; ++y)
                        for (int64_t x = 0; x < out_shape[3]; ++x) {
                            double acc = 0.0;
                            for (int64_t kh = 0; kh < w_s[2]; ++kh)
                                for (int64_t kw = 0; kw < w_s[3]; ++kw) {
                                    int64_t iy = y * stride + kh - pad;
                                    int64_t ix = x * stride + kw - pad;
                                    if (iy < 0 || iy >= in_s[2] || ix < 0 ||
                                        ix >= in_s[3])
                                        continue;
                                    acc += in[flatten4(in_s, n, c, iy, ix)] *
                                           wt[flatten4(w_s, c, 0, kh, kw)];
                                }
                            out[flatten4(out_shape, n, c, y, x)] = acc;
                        }
        } else if (isa<MaxPoolOp>(op) || isa<AvgPoolOp>(op)) {
            bool is_max = isa<MaxPoolOp>(op);
            const auto in_s = op->operand(0)->type().shape();
            const Tensor& in = value(op->operand(0));
            int64_t k = op->intAttrOr(NnWindowKeys::kernelId(), 2);
            int64_t stride = op->intAttrOr(NnWindowKeys::strideId(), 2);
            for (int64_t n = 0; n < out_shape[0]; ++n)
                for (int64_t c = 0; c < out_shape[1]; ++c)
                    for (int64_t y = 0; y < out_shape[2]; ++y)
                        for (int64_t x = 0; x < out_shape[3]; ++x) {
                            double acc = is_max ? -128.0 : 0.0;
                            for (int64_t kh = 0; kh < k; ++kh)
                                for (int64_t kw = 0; kw < k; ++kw) {
                                    double v = in[flatten4(
                                        in_s, n, c, y * stride + kh,
                                        x * stride + kw)];
                                    acc = is_max ? std::max(acc, v) : acc + v;
                                }
                            out[flatten4(out_shape, n, c, y, x)] =
                                is_max ? acc : acc / (k * k);
                        }
        } else if (auto linear = dynCast<LinearOp>(op)) {
            const auto w_s = linear.weight()->type().shape();
            const Tensor& in = value(linear.input());
            const Tensor& wt = value(linear.weight());
            const Tensor* bias =
                linear.bias() != nullptr ? &value(linear.bias()) : nullptr;
            for (int64_t n = 0; n < out_shape[0]; ++n)
                for (int64_t o = 0; o < out_shape[1]; ++o) {
                    double acc = bias != nullptr ? (*bias)[o] : 0.0;
                    for (int64_t f = 0; f < w_s[1]; ++f)
                        acc += in[n * w_s[1] + f] * wt[o * w_s[1] + f];
                    out[n * out_shape[1] + o] = acc;
                }
        } else if (isa<ReluOp>(op)) {
            const Tensor& in = value(op->operand(0));
            for (size_t i = 0; i < out.size(); ++i)
                out[i] = std::max(in[i], 0.0);
        } else if (isa<NnAddOp>(op)) {
            const Tensor& a = value(op->operand(0));
            const Tensor& b = value(op->operand(1));
            for (size_t i = 0; i < out.size(); ++i)
                out[i] = a[i] + b[i];
        } else if (isa<FlattenOp>(op)) {
            out = value(op->operand(0));
        } else if (isa<ConcatOp>(op)) {
            const auto a_s = op->operand(0)->type().shape();
            const auto b_s = op->operand(1)->type().shape();
            const Tensor& a = value(op->operand(0));
            const Tensor& b = value(op->operand(1));
            for (int64_t n = 0; n < out_shape[0]; ++n)
                for (int64_t c = 0; c < out_shape[1]; ++c)
                    for (int64_t y = 0; y < out_shape[2]; ++y)
                        for (int64_t x = 0; x < out_shape[3]; ++x)
                            out[flatten4(out_shape, n, c, y, x)] =
                                c < a_s[1]
                                    ? a[flatten4(a_s, n, c, y, x)]
                                    : b[flatten4(b_s, n, c - a_s[1], y, x)];
        } else if (auto up = dynCast<UpsampleOp>(op)) {
            const auto in_s = op->operand(0)->type().shape();
            const Tensor& in = value(op->operand(0));
            int64_t scale = up.scale();
            for (int64_t n = 0; n < out_shape[0]; ++n)
                for (int64_t c = 0; c < out_shape[1]; ++c)
                    for (int64_t y = 0; y < out_shape[2]; ++y)
                        for (int64_t x = 0; x < out_shape[3]; ++x)
                            out[flatten4(out_shape, n, c, y, x)] = in[flatten4(
                                in_s, n, c, y / scale, x / scale)];
        } else {
            HIDA_PANIC("unhandled nn op in reference executor: ", op->name());
        }
        values_[op->result(0)] = std::move(out);
    }

    std::unordered_map<Value*, Tensor> values_;
};

//===----------------------------------------------------------------------===//
// Lowered-IR interpreter
//===----------------------------------------------------------------------===//

class LoweredInterpreter {
  public:
    std::map<Value*, std::vector<double>>
    run(FuncOp func, const std::vector<double>& input)
    {
        if (func.numArguments() > 0) {
            Value* arg = func.argument(0);
            memories_[arg] = input;
            memories_[arg].resize(arg->type().numElements(), 0.0);
        }
        executeBlock(func.body());
        std::map<Value*, std::vector<double>> result;
        for (auto& [value, data] : memories_)
            result[value] = data;
        return result;
    }

  private:
    /** Resolve a memref value to its backing storage (through args). */
    std::vector<double>&
    memory(Value* value)
    {
        Value* root = value;
        while (true) {
            auto alias = aliases_.find(root);
            if (alias == aliases_.end())
                break;
            root = alias->second;
        }
        auto it = memories_.find(root);
        if (it == memories_.end()) {
            it = memories_
                     .emplace(root, std::vector<double>(
                                        root->type().numElements(), 0.0))
                     .first;
        }
        return it->second;
    }

    double
    scalar(Value* value)
    {
        auto it = env_.find(value);
        HIDA_ASSERT(it != env_.end(), "scalar value not computed");
        return it->second;
    }

    int64_t
    flatIndex(Operation* op, Value* memref, unsigned first_index,
              bool* in_bounds)
    {
        const auto& shape = memref->type().shape();
        int64_t flat = 0;
        *in_bounds = true;
        for (size_t d = 0; d < shape.size(); ++d) {
            int64_t idx = static_cast<int64_t>(
                std::llround(scalar(op->operand(first_index + d))));
            if (idx < 0 || idx >= shape[d])
                *in_bounds = false;
            flat = flat * shape[d] + std::clamp<int64_t>(idx, 0, shape[d] - 1);
        }
        return flat;
    }

    void
    executeBlock(Block* block)
    {
        for (Operation* op : *block)
            executeOp(op);
    }

    void
    executeOp(Operation* op)
    {
        if (auto loop = dynCast<ForOp>(op)) {
            for (int64_t iv = loop.lowerBound(); iv < loop.upperBound();
                 iv += loop.step()) {
                env_[loop.inductionVar()] = static_cast<double>(iv);
                executeBlock(loop.body());
            }
            return;
        }
        if (isa<NodeOp>(op) || isa<ScheduleOp>(op)) {
            // Sequential node semantics: alias inner args to operands.
            Block* body = op->body();
            for (unsigned i = 0; i < op->numOperands(); ++i)
                aliases_[body->argument(i)] = op->operand(i);
            executeBlock(body);
            return;
        }
        if (auto buffer = dynCast<BufferOp>(op)) {
            int64_t elems = buffer.type().numElements();
            if (op->hasAttr(BufferOp::constantId()))
                memories_[op->result(0)] =
                    weightData(elems, op->intAttrOr(WeightOp::seedId(), 0));
            else
                memories_[op->result(0)].assign(elems, 0.0);
            return;
        }
        if (auto weight = dynCast<WeightOp>(op)) {
            memories_[op->result(0)] = weightData(
                op->result(0)->type().numElements(), weight.seed());
            return;
        }
        if (isa<AllocOp>(op)) {
            memories_[op->result(0)].assign(
                op->result(0)->type().numElements(), 0.0);
            return;
        }
        if (isAffineLoad(op)) {
            bool in_bounds = true;
            int64_t flat = flatIndex(op, op->operand(0), 1, &in_bounds);
            if (!in_bounds) {
                HIDA_ASSERT(op->nameId() != opNameId<LoadOp>(),
                            "out-of-bounds affine.load");
                env_[op->result(0)] = 0.0;  // implicit zero padding
            } else {
                env_[op->result(0)] = memory(op->operand(0))[flat];
            }
            return;
        }
        if (auto store = dynCast<StoreOp>(op)) {
            bool in_bounds = true;
            int64_t flat = flatIndex(op, store.memref(), 2, &in_bounds);
            HIDA_ASSERT(in_bounds, "out-of-bounds affine.store");
            memory(store.memref())[flat] = scalar(store.value());
            return;
        }
        if (auto constant = dynCast<ConstantOp>(op)) {
            env_[op->result(0)] = constant.value();
            return;
        }
        if (auto apply = dynCast<ApplyOp>(op)) {
            std::vector<int64_t> coeffs = apply.coeffs();
            double result = static_cast<double>(apply.offset());
            for (unsigned i = 0; i < op->numOperands(); ++i)
                result += coeffs[i] * scalar(op->operand(i));
            env_[op->result(0)] = result;
            return;
        }
        if (isa<BinaryOp>(op)) {
            double lhs = scalar(op->operand(0));
            double rhs = scalar(op->operand(1));
            double result = 0.0;
            switch (BinaryOp(op).kind()) {
              case BinaryKind::kAdd: result = lhs + rhs; break;
              case BinaryKind::kSub: result = lhs - rhs; break;
              case BinaryKind::kMul: result = lhs * rhs; break;
              case BinaryKind::kDiv: result = lhs / rhs; break;
              case BinaryKind::kMax: result = std::max(lhs, rhs); break;
              case BinaryKind::kMin: result = std::min(lhs, rhs); break;
            }
            env_[op->result(0)] = result;
            return;
        }
        if (auto copy = dynCast<CopyOp>(op)) {
            memory(copy.dest()) = memory(copy.source());
            return;
        }
        if (auto cast = dynCast<CastOp>(op)) {
            env_[op->result(0)] = scalar(op->operand(0));
            (void)cast;
            return;
        }
        if (isa<StreamOp>(op) || isa<StreamWriteOp>(op) ||
            isa<PortOp>(op) || isa<BundleOp>(op) || isa<PackOp>(op))
            return;  // synchronization only; no data effect here
        if (isa<StreamReadOp>(op)) {
            env_[op->result(0)] = 1.0;  // token
            return;
        }
        HIDA_PANIC("unhandled op in lowered interpreter: ", op->name());
    }

    std::unordered_map<Value*, std::vector<double>> memories_;
    std::unordered_map<Value*, Value*> aliases_;
    std::unordered_map<Value*, double> env_;
};

} // namespace

std::vector<double>
executeNnGraph(FuncOp func, const std::vector<double>& input, Value* output)
{
    return NnExecutor().run(func, input, output);
}

std::map<Value*, std::vector<double>>
executeLowered(FuncOp func, const std::vector<double>& input)
{
    return LoweredInterpreter().run(func, input);
}

namespace {

/** Does any load of @p buffer (or an alias through node/schedule args)
 * occur in a top-level nest that does not also store it? Such a load is a
 * *consumer* read; accumulator reads always live next to their stores. */
bool
hasConsumerReads(FuncOp func, Value* buffer)
{
    bool consumer = false;
    func.op()->walk([&](Operation* op) {
        if (!isAffineLoad(op))
            return;
        // Resolve the accessed value through isolation boundaries.
        Value* accessed = op->operand(0);
        while (accessed->isBlockArgument()) {
            Operation* parent = accessed->ownerBlock()->parentOp();
            if (parent == nullptr || accessed->index() >= parent->numOperands())
                break;
            if (!isa<NodeOp>(parent) && !isa<ScheduleOp>(parent))
                break;
            accessed = parent->operand(accessed->index());
        }
        if (accessed != buffer)
            return;
        std::vector<ForOp> loops = enclosingLoops(op);
        Operation* nest = loops.empty() ? op : loops.front().op();
        bool stores_here = false;
        nest->walk([&](Operation* nested) {
            if (isa<StoreOp>(nested)) {
                Value* dest = StoreOp(nested).memref();
                while (dest->isBlockArgument()) {
                    Operation* parent = dest->ownerBlock()->parentOp();
                    if (parent == nullptr ||
                        dest->index() >= parent->numOperands())
                        break;
                    if (!isa<NodeOp>(parent) && !isa<ScheduleOp>(parent))
                        break;
                    dest = parent->operand(dest->index());
                }
                if (dest == buffer)
                    stores_here = true;
            }
        });
        if (!stores_here)
            consumer = true;
    });
    return consumer;
}

} // namespace

std::vector<double>
loweredNetworkOutput(FuncOp func, const std::vector<double>& input,
                     int64_t num_outputs)
{
    auto memories = executeLowered(func, input);
    // The network output: a non-weight buffer of the right size that is
    // written but has no consumer reads (accumulator self-reads allowed).
    auto accesses = collectAccesses(func.op());
    Value* output = nullptr;
    for (auto& [value, data] : memories) {
        if (static_cast<int64_t>(data.size()) != num_outputs)
            continue;
        Operation* def = value->definingOp();
        if (def != nullptr &&
            (isa<WeightOp>(def) || def->hasAttr(BufferOp::constantId())))
            continue;
        auto it = accesses.find(value);
        if (it == accesses.end() || !it->second.writes())
            continue;
        if (hasConsumerReads(func, value))
            continue;
        HIDA_ASSERT(output == nullptr, "ambiguous network output buffer");
        output = value;
    }
    HIDA_ASSERT(output != nullptr, "network output buffer not found");
    return memories[output];
}

} // namespace hida
