#ifndef HIDA_DIALECT_AFFINE_AFFINE_OPS_H
#define HIDA_DIALECT_AFFINE_AFFINE_OPS_H

/**
 * @file
 * Affine dialect: statically-bounded loops and affine memory accesses.
 * This is the static-control subset HIDA relies on (Section 3.2) — loop
 * bounds, steps and access functions are all compile-time constants, which
 * is what makes dependence analysis, tiling and the IA/CA parallelization
 * reliable.
 */

#include <optional>
#include <vector>

#include "src/ir/builder.h"
#include "src/ir/operation.h"

namespace hida {

/**
 * Counted loop ("affine.for") with constant bounds and step. The single
 * region's block carries the induction variable as its argument.
 *
 * Directive attributes understood by the estimator/emitter:
 *  - "unroll": complete unroll factor applied to this loop.
 *  - "pipeline": unit attr requesting pipelining of this loop body.
 *  - "ii": achieved initiation interval (filled in by the estimator).
 *
 * Tags the nn lowering writes, which directive grids bind to:
 *  - "layer_seq": sequence number of the compute layer (also on its task).
 *  - "kpf_loop" / "cpf_loop": the output-channel / input-channel loop.
 *  - "tile_loop": tile iteration scaffolding, not a point loop.
 */
class ForOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "affine.for";
    using OpWrapper::OpWrapper;

    static ForOp create(OpBuilder& builder, int64_t lb, int64_t ub,
                        int64_t step = 1, const std::string& iv_hint = "i");

    int64_t lowerBound() const { return op_->intAttrOr(lbId(), 0); }
    int64_t upperBound() const { return op_->intAttrOr(ubId(), 0); }
    int64_t step() const { return op_->intAttrOr(stepId(), 1); }
    /** Number of iterations. */
    int64_t tripCount() const;

    Value* inductionVar() const { return op_->body()->argument(0); }
    Block* body() const { return op_->body(); }

    int64_t unrollFactor() const { return op_->intAttrOr(unrollId(), 1); }
    void setUnrollFactor(int64_t factor)
    {
        op_->setIntAttr(unrollId(), factor);
    }
    bool isPipelined() const { return op_->hasAttr(pipelineId()); }
    void setPipelined() { op_->setAttr(pipelineId(), Attribute::unit()); }

    /** @name Cached interned directive keys (hot on the DSE path). @{ */
    // clang-format off
    static Identifier lbId() { static const Identifier id = Identifier::get("lb"); return id; }
    static Identifier ubId() { static const Identifier id = Identifier::get("ub"); return id; }
    static Identifier stepId() { static const Identifier id = Identifier::get("step"); return id; }
    static Identifier unrollId() { static const Identifier id = Identifier::get("unroll"); return id; }
    static Identifier pipelineId() { static const Identifier id = Identifier::get("pipeline"); return id; }
    static Identifier iiId() { static const Identifier id = Identifier::get("ii"); return id; }
    static Identifier layerSeqId() { static const Identifier id = Identifier::get("layer_seq"); return id; }
    static Identifier kpfLoopId() { static const Identifier id = Identifier::get("kpf_loop"); return id; }
    static Identifier cpfLoopId() { static const Identifier id = Identifier::get("cpf_loop"); return id; }
    static Identifier tileLoopId() { static const Identifier id = Identifier::get("tile_loop"); return id; }
    // clang-format on
    /** @} */
};

/**
 * Affine index computation ("affine.apply"): result = sum_i coeffs[i] *
 * operand_i + offset. Operands are induction variables (or other index
 * values).
 */
class ApplyOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "affine.apply";
    using OpWrapper::OpWrapper;

    static ApplyOp create(OpBuilder& builder, std::vector<Value*> ivs,
                          std::vector<int64_t> coeffs, int64_t offset);

    std::vector<int64_t> coeffs() const
    {
        return op_->attr(coeffsId()).asI64Array();
    }
    int64_t offset() const { return op_->intAttrOr(offsetId(), 0); }

    /** @name Cached interned attribute keys. @{ */
    // clang-format off
    static Identifier coeffsId() { static const Identifier id = Identifier::get("coeffs"); return id; }
    static Identifier offsetId() { static const Identifier id = Identifier::get("offset"); return id; }
    // clang-format on
    /** @} */
};

/** Affine memory load ("affine.load"): operands = memref, indices... */
class LoadOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "affine.load";
    using OpWrapper::OpWrapper;

    static LoadOp create(OpBuilder& builder, Value* memref,
                         std::vector<Value*> indices);

    Value* memref() const { return op_->operand(0); }
    unsigned numIndices() const { return op_->numOperands() - 1; }
    Value* index(unsigned i) const { return op_->operand(i + 1); }
};

/** Interned id of the boundary-padded load form ("affine.load_padded"). */
inline Identifier
paddedLoadNameId()
{
    static const Identifier id = Identifier::get("affine.load_padded");
    return id;
}

/**
 * True for either affine load form ("affine.load" / "affine.load_padded");
 * both share the LoadOp operand layout. Two integer compares.
 */
inline bool
isAffineLoad(const Operation* op)
{
    return op->nameId() == opNameId<LoadOp>() ||
           op->nameId() == paddedLoadNameId();
}

/** Affine store ("affine.store"): operands = value, memref, indices... */
class StoreOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "affine.store";
    using OpWrapper::OpWrapper;

    static StoreOp create(OpBuilder& builder, Value* value, Value* memref,
                          std::vector<Value*> indices);

    Value* value() const { return op_->operand(0); }
    Value* memref() const { return op_->operand(1); }
    unsigned numIndices() const { return op_->numOperands() - 2; }
    Value* index(unsigned i) const { return op_->operand(i + 2); }
};

/**
 * One linear term of an affine index expression: coeff * iv. The iv is
 * always a loop induction variable (block argument of an affine.for).
 */
struct AffineTerm {
    Value* iv = nullptr;
    int64_t coeff = 1;
};

/** Decomposed affine index expression: sum(terms) + offset. */
struct AffineIndexExpr {
    std::vector<AffineTerm> terms;
    int64_t offset = 0;

    /** The single iv when the expression is `c*iv + b`, else nullptr. */
    Value* singleIv() const
    {
        return terms.size() == 1 ? terms[0].iv : nullptr;
    }
    /** Coefficient of @p iv in this expression (0 when absent). */
    int64_t coeffOf(Value* iv) const;
};

/**
 * Decompose the index value @p index of a load/store into an affine
 * expression over induction variables. Returns std::nullopt for non-affine
 * indices (which the verifier rejects inside affine accesses anyway) and
 * for an affine.apply whose coeffs/offset are malformed (which its
 * verifier reports), never reading past the coefficient list.
 */
std::optional<AffineIndexExpr> decomposeIndex(Value* index);

/**
 * The memref and index operands of an affine access: either load form or
 * a store. Converts to false for any other op.
 */
struct AffineAccess {
    Operation* op = nullptr;
    Value* memref = nullptr;
    unsigned firstIndex = 0;  ///< Operand number of index 0.
    unsigned numIndices = 0;

    explicit operator bool() const { return op != nullptr; }
    Value* index(unsigned dim) const { return op->operand(firstIndex + dim); }
};

/** @p op's access operands (false for an op that is no affine access). */
AffineAccess affineAccessOf(Operation* op);

/**
 * Calls @p fn(dim, loop, coeff) for each term of decomposeIndex(index
 * dim) whose induction variable belongs to an affine.for, dims ascending
 * and each dim's terms in decomposition order; an index that does not
 * decompose adds none. Reads only structure (operands, block arguments,
 * parent links) and the structural "coeffs" and "offset", and allocates
 * nothing. The one extractor of ArrayPartition's access plan and the
 * estimator's cold-model plans.
 */
void forEachLoopTerm(
    const AffineAccess& access,
    FunctionRef<void(unsigned dim, Operation* loop, int64_t coeff)> fn);

/** All loops perfectly or imperfectly enclosing @p op, outermost first. */
std::vector<ForOp> enclosingLoops(Operation* op);

/** All top-level loops directly inside @p block. */
std::vector<ForOp> topLevelLoops(Block* block);

/** The perfect loop nest rooted at @p outer (outermost first). A nest is
 * perfect while each body contains exactly one op and it is a loop. */
std::vector<ForOp> perfectNest(ForOp outer);

/** Total number of scalar iterations below @p root (product over nests). */
int64_t totalTripCount(Operation* root);

/** Register affine op metadata. */
void registerAffineDialect();

} // namespace hida

#endif // HIDA_DIALECT_AFFINE_AFFINE_OPS_H
