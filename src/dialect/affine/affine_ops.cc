#include "src/dialect/affine/affine_ops.h"

#include "src/dialect/arith/arith_ops.h"
#include "src/ir/registry.h"
#include "src/support/diagnostics.h"
#include "src/support/utils.h"

namespace hida {

ForOp
ForOp::create(OpBuilder& builder, int64_t lb, int64_t ub, int64_t step,
              const std::string& iv_hint)
{
    HIDA_ASSERT(step > 0, "affine.for requires a positive step");
    Operation* op = builder.create(opNameId<ForOp>(), {}, {}, 1);
    op->setIntAttr(lbId(), lb);
    op->setIntAttr(ubId(), ub);
    op->setIntAttr(stepId(), step);
    op->body()->addArgument(Type::index(), iv_hint);
    return ForOp(op);
}

int64_t
ForOp::tripCount() const
{
    return ceilDiv(upperBound() - lowerBound(), step());
}

ApplyOp
ApplyOp::create(OpBuilder& builder, std::vector<Value*> ivs,
                std::vector<int64_t> coeffs, int64_t offset)
{
    HIDA_ASSERT(ivs.size() == coeffs.size(), "affine.apply arity mismatch");
    Operation* op =
        builder.create(opNameId<ApplyOp>(), std::move(ivs), {Type::index()});
    op->setAttr(coeffsId(), Attribute::i64Array(coeffs));
    op->setIntAttr(offsetId(), offset);
    return ApplyOp(op);
}

LoadOp
LoadOp::create(OpBuilder& builder, Value* memref, std::vector<Value*> indices)
{
    HIDA_ASSERT(memref->type().isMemRef(), "affine.load requires a memref");
    std::vector<Value*> operands = {memref};
    operands.insert(operands.end(), indices.begin(), indices.end());
    Operation* op = builder.create(opNameId<LoadOp>(), std::move(operands),
                                   {memref->type().elementType()});
    return LoadOp(op);
}

StoreOp
StoreOp::create(OpBuilder& builder, Value* value, Value* memref,
                std::vector<Value*> indices)
{
    HIDA_ASSERT(memref->type().isMemRef(), "affine.store requires a memref");
    std::vector<Value*> operands = {value, memref};
    operands.insert(operands.end(), indices.begin(), indices.end());
    return StoreOp(builder.create(opNameId<StoreOp>(), std::move(operands)));
}

int64_t
AffineIndexExpr::coeffOf(Value* iv) const
{
    for (const AffineTerm& term : terms)
        if (term.iv == iv)
            return term.coeff;
    return 0;
}

namespace {

/**
 * True when @p index is affine: an induction variable, a constant, or an
 * affine.apply of affine values. Unverified input may carry a malformed
 * map; it needs one integer coefficient per operand and an integer
 * offset, if any, or the index is not affine.
 */
bool
isAffineIndex(Value* index)
{
    if (index->isBlockArgument())
        return true;
    Operation* def = index->definingOp();
    if (isa<ConstantOp>(def))
        return true;
    if (!isa<ApplyOp>(def))
        return false;
    const Attribute* coeffs = def->findAttr(ApplyOp::coeffsId());
    if (coeffs == nullptr || !*coeffs || coeffs->kind() != AttrKind::kArray ||
        coeffs->asArray().size() != def->numOperands())
        return false;
    for (unsigned i = 0; i < def->numOperands(); ++i) {
        const Attribute& coeff = coeffs->asArray()[i];
        if (!coeff || coeff.kind() != AttrKind::kInt ||
            !isAffineIndex(def->operand(i)))
            return false;
    }
    const Attribute* offset = def->findAttr(ApplyOp::offsetId());
    return offset == nullptr || (*offset && offset->kind() == AttrKind::kInt);
}

/**
 * Calls @p fn(iv, coeff) for each term of the affine @p index times
 * @p scale, operands in order, and returns its offset times @p scale.
 * Allocation-free: decomposeIndex and forEachLoopTerm both read an index
 * through it.
 */
int64_t
visitAffineTerms(Value* index, int64_t scale,
                 FunctionRef<void(Value* iv, int64_t coeff)> fn)
{
    if (index->isBlockArgument()) {
        fn(index, scale);
        return 0;
    }
    Operation* def = index->definingOp();
    if (auto constant = dynCast<ConstantOp>(def))
        return constant.intValue() * scale;
    const std::vector<Attribute>& coeffs =
        def->findAttr(ApplyOp::coeffsId())->asArray();
    int64_t offset = 0;
    for (unsigned i = 0; i < def->numOperands(); ++i)
        offset += visitAffineTerms(def->operand(i), scale * coeffs[i].asInt(),
                                   fn);
    if (const Attribute* own = def->findAttr(ApplyOp::offsetId()))
        offset += own->asInt() * scale;
    return offset;
}

} // namespace

std::optional<AffineIndexExpr>
decomposeIndex(Value* index)
{
    if (!isAffineIndex(index))
        return std::nullopt;
    AffineIndexExpr expr;
    expr.offset = visitAffineTerms(index, 1, [&](Value* iv, int64_t coeff) {
        expr.terms.push_back({iv, coeff});
    });
    return expr;
}

AffineAccess
affineAccessOf(Operation* op)
{
    if (isAffineLoad(op))
        return {op, op->operand(0), 1, op->numOperands() - 1};
    if (isa<StoreOp>(op))
        return {op, op->operand(1), 2, op->numOperands() - 2};
    return {};
}

void
forEachLoopTerm(
    const AffineAccess& access,
    FunctionRef<void(unsigned dim, Operation* loop, int64_t coeff)> fn)
{
    for (unsigned d = 0; d < access.numIndices; ++d) {
        if (!isAffineIndex(access.index(d)))
            continue;
        visitAffineTerms(access.index(d), 1, [&](Value* iv, int64_t coeff) {
            Operation* loop = iv->ownerBlock()->parentOp();
            if (isa<ForOp>(loop))
                fn(d, loop, coeff);
        });
    }
}

std::vector<ForOp>
enclosingLoops(Operation* op)
{
    std::vector<ForOp> loops;
    for (Operation* p = op->parentOp(); p != nullptr; p = p->parentOp())
        if (auto loop = dynCast<ForOp>(p))
            loops.push_back(loop);
    std::reverse(loops.begin(), loops.end());
    return loops;
}

std::vector<ForOp>
topLevelLoops(Block* block)
{
    std::vector<ForOp> loops;
    for (Operation* op : *block)
        if (auto loop = dynCast<ForOp>(op))
            loops.push_back(loop);
    return loops;
}

std::vector<ForOp>
perfectNest(ForOp outer)
{
    std::vector<ForOp> nest = {outer};
    while (true) {
        // Count loops among the body ops; descend only through a sole loop.
        Operation* sole = nullptr;
        int loops = 0;
        for (Operation* op : *nest.back().body())
            if (isa<ForOp>(op)) {
                sole = op;
                ++loops;
            }
        if (loops != 1)
            break;
        nest.push_back(ForOp(sole));
    }
    return nest;
}

int64_t
totalTripCount(Operation* root)
{
    if (root->numRegions() == 0 || !root->hasBody())
        return 1;
    int64_t total = 0;
    bool has_loop = false;
    for (ForOp loop : topLevelLoops(root->body())) {
        has_loop = true;
        int64_t inner = totalTripCount(loop.op());
        total += loop.tripCount() * inner;
    }
    if (!has_loop)
        return 1;
    return total;
}

void
registerAffineDialect()
{
    auto& registry = OpRegistry::instance();
    registry.registerOp(
        ForOp::kOpName,
        OpInfo{.verify = [](Operation* op) -> std::optional<std::string> {
            if (op->numRegions() != 1)
                return "affine.for requires one region";
            if (!op->hasBody() || op->body()->numArguments() != 1)
                return "affine.for requires a single induction variable";
            if (!op->body()->argument(0)->type().isIndex())
                return "affine.for induction variable must be index-typed";
            const Attribute* lb = op->findAttr(ForOp::lbId());
            const Attribute* ub = op->findAttr(ForOp::ubId());
            const Attribute* step = op->findAttr(ForOp::stepId());
            if (lb != nullptr && !lb->is(AttrKind::kInt))
                return "affine.for 'lb' must be an integer";
            if (ub != nullptr && !ub->is(AttrKind::kInt))
                return "affine.for 'ub' must be an integer";
            if (step != nullptr && !step->is(AttrKind::kInt))
                return "affine.for 'step' must be an integer";
            // tripCount() divides by the step.
            if (step != nullptr && step->asInt() < 1)
                return "affine.for requires a positive step";
            // Absent bounds read as ForOp's defaults (0).
            if ((ub != nullptr ? ub->asInt() : 0) <
                (lb != nullptr ? lb->asInt() : 0))
                return "affine.for has negative trip count";
            return std::nullopt;
        }});
    registry.registerOp(
        ApplyOp::kOpName,
        OpInfo{.verify = [](Operation* op) -> std::optional<std::string> {
            const Attribute* coeffs = op->findAttr(ApplyOp::coeffsId());
            if (coeffs == nullptr || !coeffs->is(AttrKind::kArray))
                return "affine.apply requires an integer array 'coeffs'";
            for (const Attribute& coeff : coeffs->asArray())
                if (!coeff.is(AttrKind::kInt))
                    return "affine.apply 'coeffs' must hold integers";
            if (coeffs->asArray().size() != op->numOperands())
                return strCat("affine.apply has ", op->numOperands(),
                              " operands but ", coeffs->asArray().size(),
                              " coeffs");
            const Attribute* offset = op->findAttr(ApplyOp::offsetId());
            if (offset != nullptr && !offset->is(AttrKind::kInt))
                return "affine.apply 'offset' must be an integer";
            return std::nullopt;
        }});
    // Both load forms share LoadOp's operand layout, so one hook checks
    // either; its messages name the op it found.
    const OpInfo load_info{
        .verify = [](Operation* op) -> std::optional<std::string> {
            if (op->numOperands() < 1 || !op->operand(0)->type().isMemRef())
                return strCat(op->name(), " requires a memref operand");
            LoadOp load(op);
            if (load.numIndices() != load.memref()->type().shape().size())
                return strCat(op->name(), " index count mismatch");
            return std::nullopt;
        }};
    registry.registerOp(LoadOp::kOpName, load_info);
    registry.registerOp(paddedLoadNameId().str(), load_info);
    registry.registerOp(
        StoreOp::kOpName,
        OpInfo{.verify = [](Operation* op) -> std::optional<std::string> {
            if (op->numOperands() < 2 || !op->operand(1)->type().isMemRef())
                return "affine.store requires a memref operand";
            StoreOp store(op);
            if (store.numIndices() != store.memref()->type().shape().size())
                return "affine.store index count mismatch";
            return std::nullopt;
        }});
}

} // namespace hida
