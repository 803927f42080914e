/**
 * @file
 * Differential tests of the IR verifier (src/ir/verifier.cc).
 *
 * verify() leans on three caches: each block's lazily renumbered op
 * order (Operation::isBeforeInBlock), the registry's id-indexed op info,
 * and a per-thread structural verdict keyed on the root and its structure
 * epoch, which lets a verify at an unchanged epoch run only the per-op
 * hooks, from a flat list. A stale entry in any of them is silent:
 * verify() accepts broken IR or rejects good IR. Seeded xorshift
 * campaigns attack that on compiled modules. Each step applies one
 * random edit:
 *  - an attribute write that keeps or breaks a hook: buffer stages and
 *    partition factors, loop bounds, node effects, affine index maps, or
 *    the function's sym_name;
 *  - or an op move that breaks dominance, captures a value across an
 *    isolated hida.node/hida.schedule, pulls a terminator off the end of
 *    its block, or keeps the IR valid.
 * After every step verify() must return exactly what a test-local copy of
 * the uncached verifier returns: a linear order scan, a lookup by name
 * string, every check on every call. Now and then another tree is
 * verified first, so the verdict verify() keeps for the last tree it
 * passed is both used and rebuilt. Edits that break the IR are then
 * undone so the campaign goes on; the seed, the step and the edit trace
 * print on the first divergence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/driver/driver.h"
#include "src/ir/builder.h"
#include "src/ir/registry.h"
#include "src/ir/verifier.h"
#include "src/models/dnn_models.h"
#include "src/models/polybench.h"

namespace hida {
namespace {

//===----------------------------------------------------------------------===//
// Reference: the verifier without caches
//===----------------------------------------------------------------------===//

bool
refIsBeforeInBlock(const Operation* a, const Operation* b)
{
    for (Operation* op : a->block()->ops()) {
        if (op == a)
            return true;
        if (op == b)
            return false;
    }
    ADD_FAILURE() << "ops not found in their own block";
    return false;
}

bool
refDominates(Value* value, Operation* user)
{
    if (value->isBlockArgument()) {
        Block* owner = value->ownerBlock();
        for (Operation* p = user; p != nullptr; p = p->parentOp())
            if (p->block() == owner)
                return true;
        return false;
    }
    Operation* def = value->definingOp();
    for (Operation* p = user; p != nullptr; p = p->parentOp()) {
        if (p->block() == def->block())
            return def == p ? false : refIsBeforeInBlock(def, p);
    }
    return false;
}

std::optional<std::string>
refVerifyOp(Operation* op, Operation* enclosing_isolated)
{
    const OpInfo* info =
        OpRegistry::instance().lookup(Identifier::get(op->name()));
    for (unsigned i = 0; i < op->numOperands(); ++i) {
        Value* operand = op->operand(i);
        if (operand == nullptr)
            return strCat("op '", op->name(), "' has a null operand #", i);
        if (!refDominates(operand, op))
            return strCat("op '", op->name(), "' operand #", i,
                          " does not dominate its use");
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
    if (info != nullptr && info->verify != nullptr) {
        if (auto error = info->verify(op))
            return error;
    }
    Operation* scope = enclosing_isolated;
    if (info != nullptr && info->isolatedFromAbove)
        scope = op;
    for (unsigned r = 0; r < op->numRegions(); ++r) {
        for (const auto& block : op->region(r).blocks()) {
            for (Operation* nested : block->ops()) {
                if (auto error = refVerifyOp(nested, scope))
                    return error;
            }
        }
    }
    return std::nullopt;
}

bool
isStructuralError(const std::string& error)
{
    for (const char* marker :
         {"does not dominate", "breaks isolation", "is not last in its block"})
        if (error.find(marker) != std::string::npos)
            return true;
    return false;
}

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

/** xorshift64* — tiny, seedable, and identical on every platform. */
struct XorShift {
    uint64_t state;
    explicit XorShift(uint64_t seed) : state(seed ? seed : 0x9e3779b9ULL) {}

    uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545F4914F6CDD1DULL;
    }

    uint64_t below(uint64_t n) { return n ? next() % n : 0; }
};

/** What a campaign exercised, so a vacuous pass cannot hide. */
struct CampaignStats {
    int warmVerifies = 0;      ///< Root verifies the verdict may answer.
    int structuralErrors = 0;  ///< Dominance, isolation, terminator.
    int hookErrors = 0;        ///< Per-op hook messages.
    int validEdits = 0;        ///< Edits kept because the IR stayed valid.
    int nestedVerifies = 0;    ///< Verifies of an op inside the tree.
};

class VerifierCampaign {
  public:
    VerifierCampaign(ModuleOp module, uint64_t seed)
        : module_(module), other_(OwnedModule::clone(module)), seed_(seed),
          rng_(seed)
    {
        registerAllDialects();
        // A terminator the campaign can pull off the end of its block.
        for (Operation* op : *module.body())
            if (isa<FuncOp>(op))
                func_ = op;
        OpBuilder builder(func_->body());
        ReturnOp::create(builder);
        module.op()->walk([&](Operation* op) {
            if (isa<ForOp>(op))
                loops_.push_back(op);
            else if (isa<BufferOp>(op))
                buffers_.push_back(op);
            else if (isa<ApplyOp>(op))
                applies_.push_back(op);
            if (isa<NodeOp>(op) || isa<ScheduleOp>(op))
                isolated_.push_back(op);
            if (isa<NodeOp>(op))
                nodes_.push_back(op);
            if (isa<YieldOp>(op) || isa<ReturnOp>(op))
                terminators_.push_back(op);
            if (op->numOperands() > 0)
                users_.push_back(op);
            if (op != module.op())
                nested_.push_back(op);
        });
    }

    /** Run @p steps random edits, checking verify() after each. */
    CampaignStats
    run(int steps)
    {
        EXPECT_FALSE(check("initial state")) << "the module starts invalid";
        for (step_ = 0; step_ < steps && !::testing::Test::HasFailure();
             ++step_) {
            std::function<void()> undo;
            const std::string what = mutate(undo);
            if (!check(what)) {
                ++stats_.validEdits;
                continue;
            }
            undo();
            EXPECT_FALSE(check("undo " + what))
                << "undoing '" << what << "' left the IR invalid";
        }
        return stats_;
    }

  private:
    /**
     * verify() against the reference, on the root and now and then on an
     * op inside the tree. @return whether the root is invalid.
     */
    bool
    check(const std::string& what)
    {
        trace_.push_back(what);
        // Now and then verify another tree first: the verdict verify()
        // keeps per thread then belongs to that tree.
        const bool other_first = rng_.below(16) == 0;
        if (other_first) {
            EXPECT_FALSE(verify(other_.get().op()).has_value());
        }
        Operation* root = module_.op();
        // The verdict answers when the root's last full verify passed at
        // this epoch and no other tree was verified since; a hook error
        // under the verdict leaves it in place.
        const uint64_t epoch = root->structureEpoch();
        const bool warm =
            !other_first && epoch != 0 && epoch == verdictEpoch_;
        if (warm)
            ++stats_.warmVerifies;
        const std::optional<std::string> expected = refVerifyOp(root, nullptr);
        compare(root, expected, "root");
        if (!warm)
            verdictEpoch_ = expected ? 0 : epoch;
        if (rng_.below(8) == 0) {
            Operation* subject = nested_[rng_.below(nested_.size())];
            ++stats_.nestedVerifies;
            compare(subject, refVerifyOp(subject, nullptr),
                    "'" + subject->name() + "'");
        }
        if (expected) {
            if (isStructuralError(*expected))
                ++stats_.structuralErrors;
            else
                ++stats_.hookErrors;
        }
        return expected.has_value();
    }

    /** One verify() or verifyToDiagnostic() of @p subject, then compare. */
    void
    compare(Operation* subject, const std::optional<std::string>& expected,
            const std::string& which)
    {
        std::optional<std::string> actual;
        if (rng_.below(2) == 0) {
            actual = verify(subject);
        } else if (auto diag = verifyToDiagnostic(subject)) {
            EXPECT_EQ(diag->code, ErrorCode::kVerifyFailed);
            actual = diag->message;
        }
        if (actual == expected)
            return;
        std::ostringstream msg;
        msg << "verify() of the " << which << " diverged from the reference"
            << "\n  seed 0x" << std::hex << seed_ << std::dec << ", step "
            << step_ << "\n  verify():    "
            << actual.value_or("(valid)")
            << "\n  reference:   " << expected.value_or("(valid)")
            << "\nlast edits, oldest first:\n";
        const size_t first = trace_.size() > 40 ? trace_.size() - 40 : 0;
        for (size_t i = first; i < trace_.size(); ++i)
            msg << "  [" << i << "] " << trace_[i] << "\n";
        ADD_FAILURE() << msg.str();
    }

    Operation*
    pick(const std::vector<Operation*>& ops)
    {
        return ops.empty() ? nullptr : ops[rng_.below(ops.size())];
    }

    /** Write @p value under @p key (a null value removes it). */
    std::function<void()>
    writeAttr(Operation* op, Identifier key, const Attribute& value)
    {
        const Attribute* old = op->findAttr(key);
        std::optional<Attribute> saved;
        if (old != nullptr)
            saved = *old;
        if (value)
            op->setAttr(key, value);
        else
            op->removeAttr(key);
        return [op, key, saved]() {
            if (saved)
                op->setAttr(key, *saved);
            else
                op->removeAttr(key);
        };
    }

    /** Move @p op with @p move; the undo puts it back where it was. */
    std::function<void()>
    moveOp(Operation* op, const std::function<void()>& move)
    {
        Block* block = op->block();
        Operation* next = op->nextInBlock();
        move();
        return [op, block, next]() {
            if (next != nullptr)
                op->moveBefore(next);
            else
                op->moveToEnd(block);
        };
    }

    /** Apply one random edit, set @p undo, and describe it. */
    std::string
    mutate(std::function<void()>& undo)
    {
        for (int attempt = 0; attempt < 32; ++attempt) {
            std::optional<std::string> edit;
            switch (rng_.below(10)) {
            case 0:
                edit = editStages(undo);
                break;
            case 1:
                edit = editFactors(undo);
                break;
            case 2:
                edit = editUpperBound(undo);
                break;
            case 3:
                edit = editEffects(undo);
                break;
            case 4:
                edit = editIndexMap(undo);
                break;
            case 5:
                edit = editSymName(undo);
                break;
            case 6:
                edit = moveBeforeOperand(undo);
                break;
            case 7:
                edit = captureAcrossBoundary(undo);
                break;
            case 8:
                edit = moveTerminatorUp(undo);
                break;
            default:
                edit = validMove(undo);
                break;
            }
            if (edit)
                return *edit;
        }
        undo = [] {};
        return "no edit";
    }

    /** An invalid value, a value of the wrong kind, or @p valid. */
    Attribute
    oneOf(Attribute invalid, Attribute wrong_kind, Attribute valid)
    {
        switch (rng_.below(3)) {
        case 0:
            return invalid;
        case 1:
            return wrong_kind;
        default:
            return valid;
        }
    }

    std::optional<std::string>
    editStages(std::function<void()>& undo)
    {
        Operation* buffer = pick(buffers_);
        if (buffer == nullptr)
            return std::nullopt;
        const Attribute valid = Attribute::integer(1 + rng_.below(3));
        const Attribute stages =
            oneOf(Attribute::integer(0), Attribute::string("x"), valid);
        undo = writeAttr(buffer, BufferOp::stagesId(), stages);
        return "stages = " + stages.str() + " on " +
               buffer->result(0)->type().str();
    }

    /** Factors in [0, dim + 1], one too many now and then. */
    std::optional<std::string>
    editFactors(std::function<void()>& undo)
    {
        Operation* buffer = pick(buffers_);
        if (buffer == nullptr)
            return std::nullopt;
        const auto& shape = buffer->result(0)->type().shape();
        const size_t count = shape.size() + (rng_.below(4) == 0 ? 1 : 0);
        std::vector<int64_t> factors;
        for (size_t i = 0; i < count; ++i) {
            const int64_t dim = i < shape.size() ? shape[i] : 1;
            factors.push_back(static_cast<int64_t>(rng_.below(dim + 2)));
        }
        const Attribute value = rng_.below(8) == 0
                                    ? Attribute::integer(3)
                                    : Attribute::i64Array(factors);
        undo = writeAttr(buffer, BufferOp::partitionFactorsId(), value);
        return "partition_factors = " + value.str() + " on " +
               buffer->result(0)->type().str();
    }

    std::optional<std::string>
    editUpperBound(std::function<void()>& undo)
    {
        Operation* loop = pick(loops_);
        if (loop == nullptr)
            return std::nullopt;
        const int64_t lb = ForOp(loop).lowerBound();
        const int64_t below = lb - 1 - static_cast<int64_t>(rng_.below(4));
        const int64_t above = lb + 1 + static_cast<int64_t>(rng_.below(16));
        const Attribute ub =
            oneOf(Attribute::integer(below), Attribute::string("x"),
                  Attribute::integer(above));
        undo = writeAttr(loop, ForOp::ubId(), ub);
        return "ub = " + ub.str() + " on a loop from " + std::to_string(lb);
    }

    /** One effect per operand, one more or one fewer. */
    std::optional<std::string>
    editEffects(std::function<void()>& undo)
    {
        Operation* node = pick(nodes_);
        if (node == nullptr)
            return std::nullopt;
        const int64_t operands = node->numOperands();
        const int64_t count =
            operands - 1 + static_cast<int64_t>(rng_.below(3));
        std::vector<int64_t> effects;
        for (int64_t i = 0; i < count; ++i)
            effects.push_back(1 + rng_.below(3));
        const Attribute value = rng_.below(8) == 0
                                    ? Attribute::integer(3)
                                    : Attribute::i64Array(effects);
        undo = writeAttr(node, NodeOp::effectsId(), value);
        return "effects = " + value.str() + " on a node of " +
               std::to_string(operands) + " operands";
    }

    /** Coefficients one per operand (or one off), or a new offset. */
    std::optional<std::string>
    editIndexMap(std::function<void()>& undo)
    {
        Operation* apply = pick(applies_);
        if (apply == nullptr)
            return std::nullopt;
        if (rng_.below(2) == 0) {
            const int64_t count = static_cast<int64_t>(apply->numOperands()) -
                                  1 + static_cast<int64_t>(rng_.below(3));
            std::vector<int64_t> coeffs;
            for (int64_t i = 0; i < count; ++i)
                coeffs.push_back(1 + rng_.below(8));
            const Attribute value = Attribute::i64Array(coeffs);
            undo = writeAttr(apply, ApplyOp::coeffsId(), value);
            return "coeffs = " + value.str() + " on an apply of " +
                   std::to_string(apply->numOperands()) + " operands";
        }
        const int64_t shift = static_cast<int64_t>(rng_.below(5)) - 2;
        const Attribute value = rng_.below(2) == 0 ? Attribute::string("x")
                                                   : Attribute::integer(shift);
        undo = writeAttr(apply, ApplyOp::offsetId(), value);
        return "offset = " + value.str();
    }

    std::optional<std::string>
    editSymName(std::function<void()>& undo)
    {
        const bool drop = rng_.below(2) == 0;
        undo = writeAttr(func_, FuncOp::symNameId(),
                         drop ? Attribute() : Attribute::string("renamed"));
        return drop ? "drop sym_name" : "rename the function";
    }

    std::optional<std::string>
    moveTerminatorUp(std::function<void()>& undo)
    {
        Operation* term = pick(terminators_);
        Operation* prev = term != nullptr ? term->prevInBlock() : nullptr;
        if (prev == nullptr)
            return std::nullopt;
        undo = moveOp(term, [&] { term->moveBefore(prev); });
        return "move '" + term->name() + "' before '" + prev->name() + "'";
    }

    /** Move an op before the op defining one of its operands. */
    std::optional<std::string>
    moveBeforeOperand(std::function<void()>& undo)
    {
        for (int attempt = 0; attempt < 8; ++attempt) {
            Operation* user = pick(users_);
            if (user == nullptr)
                return std::nullopt;
            for (Value* operand : user->operands()) {
                Operation* def = operand->definingOp();
                if (def == nullptr || def->block() != user->block())
                    continue;
                undo = moveOp(user, [&] { user->moveBefore(def); });
                return "move '" + user->name() + "' before its operand's '" +
                       def->name() + "'";
            }
        }
        return std::nullopt;
    }

    /**
     * Move an op into an isolated node or schedule that does not hold
     * one of its operands' definitions.
     */
    std::optional<std::string>
    captureAcrossBoundary(std::function<void()>& undo)
    {
        for (int attempt = 0; attempt < 8; ++attempt) {
            Operation* user = pick(users_);
            Operation* scope = pick(isolated_);
            if (user == nullptr || scope == nullptr || user == scope ||
                user->isAncestorOf(scope) || !scope->hasBody())
                continue;
            for (Value* operand : user->operands()) {
                Operation* def = operand->isBlockArgument()
                                     ? operand->ownerBlock()->parentOp()
                                     : operand->definingOp();
                if (def == nullptr || def == scope || scope->isAncestorOf(def))
                    continue;
                undo = moveOp(user,
                              [&] { user->moveToFront(scope->body()); });
                return "move '" + user->name() + "' into '" + scope->name() +
                       "', away from its operand's definition";
            }
        }
        return std::nullopt;
    }

    /**
     * A move that usually keeps the IR valid: an operand-free op to the
     * front of its block, or an op one step up past an op it does not
     * read.
     */
    std::optional<std::string>
    validMove(std::function<void()>& undo)
    {
        Operation* op = pick(nested_);
        if (op == nullptr || op == func_)
            return std::nullopt;
        if (op->numOperands() == 0 && rng_.below(2) == 0) {
            undo = moveOp(op, [&] { op->moveToFront(op->block()); });
            return "hoist '" + op->name() + "' to the front of its block";
        }
        Operation* prev = op->prevInBlock();
        if (prev == nullptr)
            return std::nullopt;
        for (Value* operand : op->operands())
            if (operand->definingOp() == prev)
                return std::nullopt;
        undo = moveOp(op, [&] { op->moveBefore(prev); });
        return "swap '" + op->name() + "' with the '" + prev->name() +
               "' before it";
    }

    ModuleOp module_;
    OwnedModule other_;
    uint64_t seed_;
    XorShift rng_;
    int step_ = 0;
    /** The epoch of the root's verdict, or 0 while it has none. */
    uint64_t verdictEpoch_ = 0;
    Operation* func_ = nullptr;
    std::vector<Operation*> loops_;
    std::vector<Operation*> buffers_;
    std::vector<Operation*> applies_;
    std::vector<Operation*> isolated_;
    std::vector<Operation*> nodes_;
    std::vector<Operation*> terminators_;
    std::vector<Operation*> users_;
    std::vector<Operation*> nested_;
    std::vector<std::string> trace_;
    CampaignStats stats_;
};

void
expectCoverage(const CampaignStats& stats, int steps)
{
    if (::testing::Test::HasFailure())
        return;  // a divergence ends the campaign early
    EXPECT_GT(stats.warmVerifies, steps / 4);
    EXPECT_GT(stats.structuralErrors, steps / 50);
    EXPECT_GT(stats.hookErrors, steps / 50);
    EXPECT_GT(stats.validEdits, steps / 10);
    EXPECT_GT(stats.nestedVerifies, 0);
}

TEST(VerifierDifferentialTest, LenetDataflowMatchesReference)
{
    OwnedModule module = buildLeNet(1);
    compile(module.get(), optionsFor(Flow::kHida), TargetDevice::pynqZ2());
    constexpr int kSteps = 2000;
    VerifierCampaign campaign(module.get(), /*seed=*/0x5EEDF00D);
    expectCoverage(campaign.run(kSteps), kSteps);
}

TEST(VerifierDifferentialTest, Resnet18AfterPrefixMatchesReference)
{
    registerAllDialects();
    OwnedModule module = buildDnnModel("ResNet-18");
    PassManager prefix;
    addPrefixPasses(prefix, optionsFor(Flow::kHida));
    prefix.run(module.get());
    constexpr int kSteps = 600;
    VerifierCampaign campaign(module.get(), /*seed=*/0x2E5E7018);
    expectCoverage(campaign.run(kSteps), kSteps);
}

TEST(VerifierDifferentialTest, Polybench2mmMatchesReference)
{
    OwnedModule module = buildPolybenchKernel("2mm", 16);
    compile(module.get(), optionsFor(Flow::kHida), TargetDevice::zu3eg());
    constexpr int kSteps = 3000;
    VerifierCampaign campaign(module.get(), /*seed=*/0xC0FFEE11);
    expectCoverage(campaign.run(kSteps), kSteps);
}

} // namespace
} // namespace hida
