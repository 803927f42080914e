#ifndef HIDA_DIALECT_NN_NN_OPS_H
#define HIDA_DIALECT_NN_NN_OPS_H

/**
 * @file
 * Tensor-level neural-network dialect — the role torch/linalg play in the
 * paper's Figure 5 stack. Each op infers its result shape and reports its
 * computational intensity (MACs / elementwise ops), which drives the
 * intensity-aware parallelization.
 *
 * Tensors use NCHW layout; convolution weights use OIHW.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/dialect/memref/memref_ops.h"
#include "src/ir/builder.h"
#include "src/ir/operation.h"

namespace hida {

/**
 * Frozen trained parameter ("nn.weight"): deterministic pseudo-random
 * contents derived from "seed", the key memref.weight carries on.
 */
class NnWeightOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "nn.weight";
    using OpWrapper::OpWrapper;

    static NnWeightOp create(OpBuilder& builder, std::vector<int64_t> shape,
                             Type element, int64_t seed);

    int64_t seed() const { return op_->intAttrOr(WeightOp::seedId(), 0); }
};

/**
 * Cached keys of the window geometry ("stride", "pad", "kernel"), defined
 * once for the conv and pool ops that each carry some of them.
 */
class NnWindowKeys {
  public:
    // clang-format off
    static Identifier strideId() { static const Identifier id = Identifier::get("stride"); return id; }
    static Identifier padId() { static const Identifier id = Identifier::get("pad"); return id; }
    static Identifier kernelId() { static const Identifier id = Identifier::get("kernel"); return id; }
    // clang-format on
};

/** 2-D convolution ("nn.conv2d"): operands = input, weight[, bias]. */
class Conv2dOp : public OpWrapper, public NnWindowKeys {
  public:
    static constexpr const char* kOpName = "nn.conv2d";
    using OpWrapper::OpWrapper;

    static Conv2dOp create(OpBuilder& builder, Value* input, Value* weight,
                           Value* bias, int64_t stride, int64_t pad);

    Value* input() const { return op_->operand(0); }
    Value* weight() const { return op_->operand(1); }
    Value* bias() const
    {
        return op_->numOperands() > 2 ? op_->operand(2) : nullptr;
    }
    int64_t stride() const { return op_->intAttrOr(strideId(), 1); }
    int64_t pad() const { return op_->intAttrOr(padId(), 0); }
};

/** Depthwise 2-D convolution ("nn.dwconv2d"): weight shape = C x 1 x K x K. */
class DwConv2dOp : public OpWrapper, public NnWindowKeys {
  public:
    static constexpr const char* kOpName = "nn.dwconv2d";
    using OpWrapper::OpWrapper;

    static DwConv2dOp create(OpBuilder& builder, Value* input, Value* weight,
                             int64_t stride, int64_t pad);

    Value* input() const { return op_->operand(0); }
    Value* weight() const { return op_->operand(1); }
    int64_t stride() const { return op_->intAttrOr(strideId(), 1); }
    int64_t pad() const { return op_->intAttrOr(padId(), 0); }
};

/** Max pooling ("nn.maxpool"). */
class MaxPoolOp : public OpWrapper, public NnWindowKeys {
  public:
    static constexpr const char* kOpName = "nn.maxpool";
    using OpWrapper::OpWrapper;

    static MaxPoolOp create(OpBuilder& builder, Value* input, int64_t kernel,
                            int64_t stride);

    Value* input() const { return op_->operand(0); }
    int64_t kernel() const { return op_->intAttrOr(kernelId(), 2); }
    int64_t stride() const { return op_->intAttrOr(strideId(), 2); }
};

/** Average pooling ("nn.avgpool"); kernel == spatial size gives global pool. */
class AvgPoolOp : public OpWrapper, public NnWindowKeys {
  public:
    static constexpr const char* kOpName = "nn.avgpool";
    using OpWrapper::OpWrapper;

    static AvgPoolOp create(OpBuilder& builder, Value* input, int64_t kernel,
                            int64_t stride);

    Value* input() const { return op_->operand(0); }
    int64_t kernel() const { return op_->intAttrOr(kernelId(), 2); }
    int64_t stride() const { return op_->intAttrOr(strideId(), 2); }
};

/** Fully-connected layer ("nn.linear"): operands = input, weight[, bias]. */
class LinearOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "nn.linear";
    using OpWrapper::OpWrapper;

    static LinearOp create(OpBuilder& builder, Value* input, Value* weight,
                           Value* bias);

    Value* input() const { return op_->operand(0); }
    Value* weight() const { return op_->operand(1); }
    Value* bias() const
    {
        return op_->numOperands() > 2 ? op_->operand(2) : nullptr;
    }
};

/** ReLU activation ("nn.relu"). */
class ReluOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "nn.relu";
    using OpWrapper::OpWrapper;

    static ReluOp create(OpBuilder& builder, Value* input);
};

/** Elementwise addition ("nn.add") — residual shortcuts. */
class NnAddOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "nn.add";
    using OpWrapper::OpWrapper;

    static NnAddOp create(OpBuilder& builder, Value* lhs, Value* rhs);
};

/** Flatten to [N, C*H*W] ("nn.flatten"). */
class FlattenOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "nn.flatten";
    using OpWrapper::OpWrapper;

    static FlattenOp create(OpBuilder& builder, Value* input);
};

/** Channel concatenation ("nn.concat"). */
class ConcatOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "nn.concat";
    using OpWrapper::OpWrapper;

    static ConcatOp create(OpBuilder& builder, Value* lhs, Value* rhs);
};

/** Nearest-neighbour spatial upsampling ("nn.upsample"). */
class UpsampleOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "nn.upsample";
    using OpWrapper::OpWrapper;

    static UpsampleOp create(OpBuilder& builder, Value* input, int64_t scale);

    int64_t scale() const { return op_->intAttrOr(scaleId(), 2); }

    static Identifier scaleId()
    {
        static const Identifier id = Identifier::get("scale");
        return id;
    }
};

/** True for any op in the nn dialect. */
bool isNnOp(const Operation* op);

/** Multiply-accumulate count of one nn op instance (0 for non-MAC ops). */
int64_t nnOpMacs(const Operation* op);

/** Total scalar operations (MACs count as 2 ops; comparisons/adds as 1). */
int64_t nnOpIntensity(const Operation* op);

/** Register nn op metadata. */
void registerNnDialect();

} // namespace hida

#endif // HIDA_DIALECT_NN_NN_OPS_H
