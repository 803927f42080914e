#include "src/ir/verifier.h"

#include <utility>
#include <vector>

#include "src/ir/operation.h"
#include "src/ir/registry.h"
#include "src/support/diagnostics.h"
#include "src/support/fault_inject.h"

namespace hida {

namespace {

/** True when @p value is visible at (i.e. dominates) @p user. */
bool
dominates(Value* value, Operation* user)
{
    // Find the ancestor chain of the user up to (not including) top level.
    if (value->isBlockArgument()) {
        // Visible if the user is nested inside the block that owns the arg.
        Block* owner = value->ownerBlock();
        for (Operation* p = user; p != nullptr; p = p->parentOp())
            if (p->block() == owner)
                return true;
        return false;
    }
    Operation* def = value->definingOp();
    // Hoist user until it shares a block with def, then compare positions.
    for (Operation* p = user; p != nullptr; p = p->parentOp()) {
        if (p->block() == def->block())
            return def == p ? false : def->isBeforeInBlock(p);
    }
    return false;
}

/**
 * The checks a structural verdict covers: null operands, dominance,
 * isolation and terminator placement. They read only operands, op
 * order, block arguments, op names and registered traits.
 */
std::optional<std::string>
verifyStructure(Operation* op, const OpInfo* info,
                Operation* enclosing_isolated)
{
    for (unsigned i = 0; i < op->numOperands(); ++i) {
        Value* operand = op->operand(i);
        if (operand == nullptr)
            return strCat("op '", op->name(), "' has a null operand #", i);
        if (!dominates(operand, op))
            return strCat("op '", op->name(), "' operand #", i,
                          " does not dominate its use");
        // Isolation: operand must be defined within the enclosing isolated op.
        if (enclosing_isolated != nullptr) {
            Operation* def_op = operand->isBlockArgument()
                                    ? operand->ownerBlock()->parentOp()
                                    : operand->definingOp();
            bool inside = def_op != nullptr &&
                          (def_op == enclosing_isolated ||
                           enclosing_isolated->isAncestorOf(def_op));
            if (!inside)
                return strCat("op '", op->name(), "' operand #", i,
                              " breaks isolation of '",
                              enclosing_isolated->name(), "'");
        }
    }
    if (info != nullptr && info->isTerminator && op->block() != nullptr &&
        op->block()->back() != op)
        return strCat("terminator '", op->name(), "' is not last in its block");
    return std::nullopt;
}

using HookList = std::vector<std::pair<Operation*, OpInfo::VerifyFn>>;

/**
 * The structural verdict of the last tree this thread verified clean:
 * its detached root, that root's structure epoch, and its ops' hooks in
 * pre-order. While the root is still at that epoch, a verify runs the
 * hooks from this list and neither walks the tree nor repeats the
 * structural checks: the epoch covers every input of those checks and
 * every op insert, move and erase, and a verdict requires every op to be
 * registered (the first registration of a name wins), so the checks
 * still pass and the list still names every op's hook in order. Epoch
 * values never repeat, except 0 on a root that never changed
 * structurally; such a root records no verdict, so a recycled root
 * address cannot match.
 */
struct Verdict {
    const Operation* root = nullptr;
    uint64_t epoch = 0;
    HookList hooks;
};

thread_local Verdict t_verdict;

/** One pre-order pass over a tree; the first error wins. */
struct Verifier {
    const OpRegistry& registry = OpRegistry::instance();
    /** Cleared when an op without registered info is met. */
    bool allRegistered = true;
    /** When set, every op's hook is appended here in visit order. */
    HookList* hooks = nullptr;

    std::optional<std::string>
    visit(Operation* op, Operation* enclosing_isolated)
    {
        const OpInfo* info = registry.lookup(op->nameId());
        if (info == nullptr)
            allRegistered = false;
        if (auto error = verifyStructure(op, info, enclosing_isolated))
            return error;
        if (info != nullptr && info->verify != nullptr) {
            if (hooks != nullptr)
                hooks->emplace_back(op, info->verify);
            if (auto error = info->verify(op))
                return error;
        }

        // Recurse; this op becomes the isolation scope if it is isolated.
        Operation* scope = enclosing_isolated;
        if (info != nullptr && info->isolatedFromAbove)
            scope = op;
        for (unsigned r = 0; r < op->numRegions(); ++r) {
            for (const auto& block : op->region(r).blocks()) {
                for (Operation* nested : *block) {
                    if (auto error = visit(nested, scope))
                        return error;
                }
            }
        }
        return std::nullopt;
    }
};

} // namespace

std::optional<std::string>
verify(Operation* root)
{
    // Only a detached root carries a verdict: every structural mutation
    // in its tree moves the epoch on it.
    const bool detached = root->block() == nullptr;
    Verdict& verdict = t_verdict;
    if (detached && verdict.root == root &&
        verdict.epoch == root->structureEpoch()) {
        for (const auto& [op, hook] : verdict.hooks)
            if (auto error = hook(op))
                return error;
        return std::nullopt;
    }
    Verifier verifier;
    if (detached) {
        verdict.root = nullptr;
        verdict.hooks.clear();
        verifier.hooks = &verdict.hooks;
    }
    std::optional<std::string> error = verifier.visit(root, nullptr);
    // Registration is the one input of the structural checks no epoch
    // covers; the first registration of a name wins, so only a tree with
    // an unregistered op can see its verdict change without a bump.
    if (!error && detached && verifier.allRegistered &&
        root->structureEpoch() != 0) {
        verdict.root = root;
        verdict.epoch = root->structureEpoch();
    }
    return error;
}

std::optional<Diagnostic>
verifyToDiagnostic(Operation* root, const std::string& what)
{
    std::string where =
        what.empty() ? strCat("'", root->name(), "'")
                     : strCat(what, " ('", root->name(), "')");
    if (auto injected = maybeInjectFault(FaultSite::kVerifier, where))
        return injected;
    if (auto error = verify(root))
        return Diagnostic(ErrorCode::kVerifyFailed, *error, where);
    return std::nullopt;
}

} // namespace hida
