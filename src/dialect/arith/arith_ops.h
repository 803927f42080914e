#ifndef HIDA_DIALECT_ARITH_ARITH_OPS_H
#define HIDA_DIALECT_ARITH_ARITH_OPS_H

/**
 * @file
 * Arithmetic dialect: constants and type-generic scalar arithmetic. Each op
 * carries hardware cost metadata (consumed by the QoR estimator) keyed by
 * operand element type.
 */

#include "src/ir/builder.h"
#include "src/ir/operation.h"

namespace hida {

/** Scalar constant ("arith.constant"); value attr is int or float. */
class ConstantOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "arith.constant";
    using OpWrapper::OpWrapper;

    static ConstantOp create(OpBuilder& builder, Type type, double value);
    static ConstantOp createIndex(OpBuilder& builder, int64_t value);

    double value() const { return op_->attr(valueId()).asFloat(); }
    int64_t intValue() const { return static_cast<int64_t>(value()); }

    /** Cached interned key of the "value" attribute. */
    static Identifier valueId()
    {
        static const Identifier id = Identifier::get("value");
        return id;
    }
};

/** Binary arithmetic kind. */
enum class BinaryKind { kAdd, kSub, kMul, kDiv, kMax, kMin };

/** Type-generic binary op ("arith.add" etc.); result type = lhs type. */
class BinaryOp : public OpWrapper {
  public:
    using OpWrapper::OpWrapper;

    static BinaryOp create(OpBuilder& builder, BinaryKind kind, Value* lhs,
                           Value* rhs);
    /** True for any arith binary op name. */
    static bool matches(const Operation* op);

    BinaryKind kind() const;
    Value* lhs() const { return op_->operand(0); }
    Value* rhs() const { return op_->operand(1); }
};

/** Bit-width / type cast ("arith.cast"). */
class CastOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "arith.cast";
    using OpWrapper::OpWrapper;

    static CastOp create(OpBuilder& builder, Value* input, Type result_type);
};

/** Hardware cost of one scalar operation instance. */
struct OpHwCost {
    int dsp = 0;
    int lut = 0;
    int ff = 0;
    int latency = 1;  ///< Pipeline depth in cycles.
};

/**
 * Cost of executing @p op_name on element type @p type once per cycle
 * (fully pipelined unit). Mirrors Vitis HLS resource characterization:
 * f32 mul = 3 DSP, f32 add = 2 DSP, int8/int16 mul = 1 DSP, etc.
 */
OpHwCost scalarOpCost(Identifier op_name, Type type);

/** Register arith op metadata. */
void registerArithDialect();

} // namespace hida

#endif // HIDA_DIALECT_ARITH_ARITH_OPS_H
