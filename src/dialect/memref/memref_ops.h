#ifndef HIDA_DIALECT_MEMREF_MEMREF_OPS_H
#define HIDA_DIALECT_MEMREF_MEMREF_OPS_H

/**
 * @file
 * MemRef dialect: mutable memory allocation and whole-buffer copies. These
 * are the memory-semantics counterparts of tensors, used on the Functional
 * side after bufferization and lowered to hida.buffer on the Structural
 * side (Figure 6 of the paper).
 */

#include "src/ir/builder.h"
#include "src/ir/operation.h"

namespace hida {

/** On-chip/external memory allocation ("memref.alloc"). */
class AllocOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "memref.alloc";
    using OpWrapper::OpWrapper;

    static AllocOp create(OpBuilder& builder, Type memref_type,
                          const std::string& hint = "buf");

    Type type() const { return op_->result(0)->type(); }
};

/**
 * Constant weight storage ("memref.weight"): like alloc but initialized
 * with deterministic pseudo-random contents derived from the "seed" attr
 * (stand-in for trained parameters; see DESIGN.md substitutions).
 */
class WeightOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "memref.weight";
    using OpWrapper::OpWrapper;

    static WeightOp create(OpBuilder& builder, Type memref_type, int64_t seed,
                           const std::string& hint = "w");

    int64_t seed() const { return op_->intAttrOr(seedId(), 0); }

    /** Cached interned key of "seed", also on nn.weight and on the
     * constant hida.buffer a weight lowers to. */
    static Identifier seedId()
    {
        static const Identifier id = Identifier::get("seed");
        return id;
    }
};

/** Whole-buffer copy ("memref.copy"): operands = source, destination. */
class CopyOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "memref.copy";
    using OpWrapper::OpWrapper;

    static CopyOp create(OpBuilder& builder, Value* source, Value* dest);

    Value* source() const { return op_->operand(0); }
    Value* dest() const { return op_->operand(1); }
};

/** Register memref op metadata. */
void registerMemRefDialect();

} // namespace hida

#endif // HIDA_DIALECT_MEMREF_MEMREF_OPS_H
