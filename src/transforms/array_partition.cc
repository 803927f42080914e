/**
 * @file
 * Array partitioning (Table 6 of the paper): derive per-dimension cyclic
 * partition factors from the unroll factors of every loop that indexes the
 * buffer, scaled by the access stride. The bank count of a buffer is the
 * product of its per-dimension factors — the quantity Table 6 reports.
 */

#include <unordered_map>

#include "src/analysis/connection.h"
#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/estimator/qor.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

/** True when @p attr holds exactly the integer array @p values. */
bool
holdsI64Array(const Attribute* attr, const std::vector<int64_t>& values)
{
    if (attr == nullptr || !*attr || attr->kind() != AttrKind::kArray ||
        attr->asArray().size() != values.size())
        return false;
    for (size_t i = 0; i < values.size(); ++i) {
        const Attribute& element = attr->asArray()[i];
        if (!element || element.kind() != AttrKind::kInt ||
            element.asInt() != values[i])
            return false;
    }
    return true;
}

class ArrayPartitionPass : public Pass {
  public:
    explicit ArrayPartitionPass(FlowOptions options)
        : Pass("array-partition"), options_(options) {}

    /**
     * A DSE sweep runs one instance once per design point on a module
     * whose structure never changes between points, so the access
     * analysis is kept as a plan keyed on (module root, structure
     * epoch). A warm run reads only unroll factors, and writes a
     * buffer's directives only when their values change.
     */
    void
    runOnModule(ModuleOp module) override
    {
        if (!options_.enableParallelization)
            return;
        Operation* root = module.op();
        uint64_t epoch = root->structureEpoch();
        if (root != planRoot_ || epoch != planEpoch_) {
            buildPlan(root);
            planRoot_ = root;
            planEpoch_ = epoch;
        }
        for (const BufferPlan& buffer : plan_)
            partition(buffer);
    }

  private:
    /** Loop @p loop indexes dimension @p dim with stride @p scale. */
    struct AccessTerm {
        size_t dim;
        Operation* loop;
        int64_t scale;  ///< max(|coeff|, 1) of the loop's IV.

        bool operator==(const AccessTerm&) const = default;
    };

    /** One on-chip buffer and the loop terms of its access indices. */
    struct BufferPlan {
        Operation* buffer;
        std::vector<int64_t> shape;
        std::vector<AccessTerm> terms;  ///< Deduplicated, first-seen order.
    };

    /**
     * Collect every load/store site: the buffer behind its memref and the
     * (dim, loop, stride) terms of its indices. Reads structure only —
     * op identities, buffer types, and the "coeffs" and "offset" of
     * affine.apply, which are structural keys — so the plan stays valid
     * until the structure epoch moves.
     */
    void
    buildPlan(Operation* root)
    {
        plan_.clear();
        std::unordered_map<Operation*, size_t> slots;
        root->walk([&](Operation* op) {
            AffineAccess access = affineAccessOf(op);
            if (!access)
                return;
            BufferOp buffer = QorEstimator::resolveBuffer(access.memref);
            if (!buffer ||
                buffer.type().memorySpace() == MemorySpace::kExternal ||
                buffer.type().shape().empty())
                return;
            auto [slot, inserted] =
                slots.try_emplace(buffer.op(), plan_.size());
            if (inserted)
                plan_.push_back({buffer.op(), buffer.type().shape(), {}});
            BufferPlan& entry = plan_[slot->second];
            forEachLoopTerm(access, [&](unsigned d, Operation* loop,
                                        int64_t coeff) {
                if (d >= entry.shape.size())
                    return;
                AccessTerm term{d, loop,
                                std::max<int64_t>(std::abs(coeff), 1)};
                if (std::find(entry.terms.begin(), entry.terms.end(),
                              term) == entry.terms.end())
                    entry.terms.push_back(term);
            });
        });
    }

    /** Derive and write one buffer's vector and partition directives. */
    void
    partition(const BufferPlan& entry)
    {
        // Required factor per dim across every access site.
        factors_.assign(entry.shape.size(), 1);
        for (const AccessTerm& term : entry.terms) {
            int64_t unroll = term.loop->intAttrOr(ForOp::unrollId(), 1);
            if (unroll <= 1)
                continue;
            int64_t needed =
                std::min<int64_t>(entry.shape[term.dim], unroll * term.scale);
            factors_[term.dim] = std::max(factors_[term.dim], needed);
        }
        // Vectorize along the contiguous last dimension: pack up to 8
        // elements per memory word instead of splitting banks (the
        // "vectorization factors" of the buffer op, Figure 4). A wide
        // word serves as many aligned accesses as a bank would. The
        // vector width must divide the factor so banking stays aligned
        // with the unroll factors that derived it.
        int64_t vector = largestDivisorUpTo(factors_.back(), 8);
        factors_.back() /= vector;
        fashions_.resize(factors_.size());
        for (size_t d = 0; d < factors_.size(); ++d)
            fashions_[d] =
                factors_[d] > 1
                    ? static_cast<int64_t>(PartitionFashion::kCyclic)
                    : static_cast<int64_t>(PartitionFashion::kNone);
        // Compare in place: rewriting an unchanged value would cost an
        // attribute allocation and leave the IR exactly as it was.
        Operation* op = entry.buffer;
        op->setIntAttr(BufferOp::vectorFactorId(), vector);
        if (!holdsI64Array(op->findAttr(BufferOp::partitionFashionsId()),
                           fashions_) ||
            !holdsI64Array(op->findAttr(BufferOp::partitionFactorsId()),
                           factors_))
            BufferOp(op).setPartition(fashions_, factors_);
    }

    FlowOptions options_;
    std::vector<BufferPlan> plan_;
    Operation* planRoot_ = nullptr;
    uint64_t planEpoch_ = 0;
    /** Per-run buffers, kept so that a warm run does not allocate. */
    std::vector<int64_t> factors_;
    std::vector<int64_t> fashions_;
};

} // namespace

std::unique_ptr<Pass>
createArrayPartitionPass(FlowOptions options)
{
    return std::make_unique<ArrayPartitionPass>(options);
}

} // namespace hida
