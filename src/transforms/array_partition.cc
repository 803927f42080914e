/**
 * @file
 * Array partitioning (Table 6 of the paper): derive per-dimension cyclic
 * partition factors from the unroll factors of every loop that indexes the
 * buffer, scaled by the access stride. The bank count of a buffer is the
 * product of its per-dimension factors — the quantity Table 6 reports.
 */

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/hida/hida_ops.h"
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
    ArrayPartitionPass(FlowOptions options, SitePlan* sites)
        : Pass("array-partition"), options_(options), sites_(sites) {}

    /**
     * A DSE sweep runs one instance once per design point on a module
     * whose structure never changes between points, and a TrialEvaluator
     * runs one per trial on a plan it keeps, so the access analysis comes
     * from the site plan, built once per (module root, structure epoch).
     * A warm run reads only unroll factors, and writes a buffer's
     * directives only when their values change.
     */
    void
    runOnModule(ModuleOp module) override
    {
        if (!options_.enableParallelization)
            return;
        SitePlan& plan = sites_ != nullptr ? *sites_ : own_;
        for (SitePlan::Partition& site : plan.refresh(module).partitions())
            partition(site);
    }

  private:
    /** Derive and write one buffer's vector and partition directives. */
    void
    partition(SitePlan::Partition& site)
    {
        // Required factor per dim across every access site.
        factors_.assign(site.shape.size(), 1);
        for (const SitePlan::AccessTerm& term : site.terms) {
            int64_t unroll = term.loop->intAttrOr(ForOp::unrollId(), 1);
            if (unroll <= 1)
                continue;
            int64_t needed =
                std::min<int64_t>(site.shape[term.dim], unroll * term.scale);
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
        site.buffer->setIntAttr(BufferOp::vectorFactorId(), vector);
        writeArray(site, BufferOp::partitionFashionsId(), fashions_);
        writeArray(site, BufferOp::partitionFactorsId(), factors_);
    }

    /**
     * Set @p key on @p site's buffer to @p values. Compare in place: an
     * unchanged value is left as it is. A changed one takes the site's
     * earlier attribute with these values when there is one, so only the
     * first write of each distinct array allocates.
     */
    static void
    writeArray(SitePlan::Partition& site, Identifier key,
               const std::vector<int64_t>& values)
    {
        if (holdsI64Array(site.buffer->findAttr(key), values))
            return;
        for (const Attribute& written : site.written) {
            if (holdsI64Array(&written, values)) {
                site.buffer->setAttr(key, written);
                return;
            }
        }
        site.buffer->setAttr(
            key, site.written.emplace_back(Attribute::i64Array(values)));
    }

    FlowOptions options_;
    SitePlan* sites_;
    SitePlan own_;
    /** Per-run buffers, kept so that a warm run does not allocate. */
    std::vector<int64_t> factors_;
    std::vector<int64_t> fashions_;
};

} // namespace

std::unique_ptr<Pass>
createArrayPartitionPass(FlowOptions options, SitePlan* sites)
{
    return std::make_unique<ArrayPartitionPass>(options, sites);
}

} // namespace hida
