#include "src/dse/grid.h"

#include <algorithm>

#include "src/dialect/affine/affine_ops.h"
#include "src/support/diagnostics.h"
#include "src/support/utils.h"

namespace hida {

DesignPointGrid&
DesignPointGrid::addAxis(std::string name, std::vector<int64_t> values)
{
    HIDA_ASSERT(!values.empty(), "axis ", name, " has no values");
    GridAxis axis;
    axis.name = std::move(name);
    axis.values = std::move(values);
    const size_t n = axis.values.size();
    for (size_t& stride : strides_)
        stride *= n;
    strides_.push_back(1);
    size_ *= n;
    axes_.push_back(std::move(axis));
    contentHash_ = hashAxes(axes_);
    return *this;
}

DesignPointGrid&
DesignPointGrid::addDirectiveAxis(std::string name,
                                  std::vector<int64_t> values,
                                  int64_t layer_seq, std::string_view loop_tag)
{
    HIDA_ASSERT(layer_seq >= 0, "directive axis needs a layer_seq");
    addAxis(std::move(name), std::move(values));
    axes_.back().layerSeq = layer_seq;
    axes_.back().loopTag = Identifier::get(loop_tag);
    Operation::addAttrStructural(axes_.back().loopTag);
    contentHash_ = hashAxes(axes_);
    return *this;
}

size_t
DesignPointGrid::axisIndex(std::string_view name) const
{
    for (size_t i = 0; i < axes_.size(); ++i)
        if (axes_[i].name == name)
            return i;
    HIDA_PANIC("unknown grid axis ", std::string(name));
}

void
DesignPointGrid::decode(size_t index, std::vector<int64_t>& values) const
{
    HIDA_ASSERT(index < size(), "point index out of range");
    values.resize(axes_.size());
    for (size_t i = axes_.size(); i-- > 0;) {
        const auto& axis_values = axes_[i].values;
        values[i] = axis_values[index % axis_values.size()];
        index /= axis_values.size();
    }
}

std::vector<int64_t>
DesignPointGrid::point(size_t index) const
{
    std::vector<int64_t> values;
    decode(index, values);
    return values;
}

void
DesignPointGrid::decodeValueIndices(size_t index,
                                    std::vector<size_t>& out) const
{
    HIDA_ASSERT(index < size(), "point index out of range");
    out.resize(axes_.size());
    for (size_t i = axes_.size(); i-- > 0;) {
        size_t n = axes_[i].values.size();
        out[i] = index % n;
        index /= n;
    }
}

size_t
DesignPointGrid::encode(const std::vector<size_t>& value_indices) const
{
    HIDA_ASSERT(value_indices.size() == axes_.size(),
                "value-index/axis count mismatch");
    size_t index = 0;
    for (size_t i = 0; i < axes_.size(); ++i) {
        size_t n = axes_[i].values.size();
        HIDA_ASSERT(value_indices[i] < n, "value index out of range on axis ",
                    axes_[i].name);
        index = index * n + value_indices[i];
    }
    return index;
}

size_t
DesignPointGrid::orderedIndex(size_t pos, PointOrder order) const
{
    HIDA_ASSERT(pos < size(), "enumeration position out of range");
    if (order == PointOrder::kRowMajor)
        return pos;
    // Mixed-radix reflected Gray code: axis i's plain digit d runs
    // upward when the plain prefix above it has even digit-sum parity
    // and downward (reflected) when odd, so stepping pos by one changes
    // exactly one axis by exactly one value step — rollovers included.
    size_t index = 0;
    size_t parity = 0;
    for (size_t i = 0; i < axes_.size(); ++i) {
        size_t m = axes_[i].values.size();
        size_t d = (pos / strides_[i]) % m;
        size_t g = parity ? (m - 1 - d) : d;
        index = index * m + g;
        // An even-radix digit flips the reflection of everything below
        // it each time it steps; an odd radix preserves it.
        parity = (parity * (m & 1) + d) & 1;
    }
    return index;
}

namespace {

uint64_t
hashString(uint64_t h, std::string_view s)
{
    h = hashCombine(h, s.size());
    for (char c : s)
        h = hashCombine(h, static_cast<unsigned char>(c));
    return h;
}

} // namespace

uint64_t
DesignPointGrid::hashAxes(const std::vector<GridAxis>& axes)
{
    uint64_t h = hashMix(0x48494441u /* "HIDA" */);
    h = hashCombine(h, axes.size());
    for (const GridAxis& axis : axes) {
        h = hashString(h, axis.name);
        h = hashCombine(h, axis.values.size());
        for (int64_t v : axis.values)
            h = hashCombine(h, static_cast<uint64_t>(v));
        h = hashCombine(h, static_cast<uint64_t>(axis.layerSeq));
        // By string, not intern id: intern order differs across runs,
        // and the hash must match the one a dead process journaled.
        h = hashString(h, axis.loopTag ? axis.loopTag.str()
                                       : std::string_view());
    }
    return h;
}

uint64_t
DesignPointGrid::pointFingerprint(size_t index) const
{
    HIDA_ASSERT(index < size(), "point index out of range");
    // decode() order (axis 0 first), without materializing the values.
    uint64_t h = hashCombine(contentHash_, index);
    for (size_t i = 0; i < axes_.size(); ++i) {
        const std::vector<int64_t>& values = axes_[i].values;
        int64_t v = values[(index / strides_[i]) % values.size()];
        h = hashCombine(h, static_cast<uint64_t>(v));
    }
    return h;
}

namespace {

/** One write of applyPoint: axis @p axis sets the unroll of @p loop. */
struct LoopBinding {
    size_t axis;
    Operation* loop;
};

/**
 * The calling thread's applyPoint bindings. A sweep worker owns its
 * clone and evaluates on one thread, so one entry per thread serves a
 * whole shard; an entry for another tree or grid is simply replaced.
 */
struct BindingCache {
    const Operation* root = nullptr;
    uint64_t epoch = 0;
    uint64_t gridHash = 0;
    std::vector<LoopBinding> bindings;  ///< applyPoint walk order.
};

thread_local BindingCache t_binding_cache;

} // namespace

std::optional<Diagnostic>
applyPointChecked(ModuleOp module, const DesignPointGrid& grid,
                  const std::vector<int64_t>& values)
{
    // All validation happens before the first IR write: a rejected
    // point never leaves the worker's clone half-applied.
    if (values.size() != grid.numAxes())
        return Diagnostic(ErrorCode::kInvalidDirective,
                          strCat("point has ", values.size(),
                                 " values for a ", grid.numAxes(),
                                 "-axis grid"),
                          "applyPoint");
    for (size_t i = 0; i < grid.numAxes(); ++i) {
        const GridAxis& axis = grid.axis(i);
        if (axis.bound() && values[i] < 1)
            return Diagnostic(ErrorCode::kInvalidDirective,
                              strCat("axis '", axis.name, "' value ",
                                     values[i],
                                     " is not a positive unroll factor"),
                              "applyPoint");
    }
    applyPoint(module, grid, values);
    return std::nullopt;
}

void
applyPoint(ModuleOp module, const DesignPointGrid& grid,
           const std::vector<int64_t>& values)
{
    HIDA_ASSERT(values.size() == grid.numAxes(),
                "point/grid axis count mismatch");
    Operation* root = module.op();
    const uint64_t epoch = root->structureEpoch();
    BindingCache& cache = t_binding_cache;
    if (cache.root != root || cache.epoch != epoch ||
        cache.gridHash != grid.contentHash()) {
        // Bindings depend on op identity, layer_seq and the loop tags:
        // all structure or structural keys, so the epoch covers them.
        cache.bindings.clear();
        root->walk([&](Operation* op) {
            if (!isa<ForOp>(op))
                return;
            int64_t seq = op->intAttrOr(ForOp::layerSeqId(), -1);
            if (seq < 0)
                return;
            for (size_t i = 0; i < grid.numAxes(); ++i) {
                const GridAxis& axis = grid.axis(i);
                if (axis.bound() && axis.layerSeq == seq &&
                    op->hasAttr(axis.loopTag))
                    cache.bindings.push_back({i, op});
            }
        });
        cache.root = root;
        cache.epoch = epoch;
        cache.gridHash = grid.contentHash();
    }
    // The trip count is re-read on every write: lb/ub/step are plain
    // attributes, not structural keys.
    for (const LoopBinding& binding : cache.bindings) {
        ForOp loop(binding.loop);
        loop.setUnrollFactor(
            std::min<int64_t>(values[binding.axis], loop.tripCount()));
    }
}

} // namespace hida
