#include "src/estimator/qor.h"

#include <algorithm>
#include <cmath>

#include "src/analysis/dataflow_graph.h"
#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/dialect/memref/memref_ops.h"
#include "src/sim/dataflow_sim.h"
#include "src/support/diagnostics.h"
#include "src/support/fault_inject.h"
#include "src/support/utils.h"

namespace hida {

namespace {

constexpr int64_t kLoopOverhead = 2;     ///< Enter/exit cycles per loop.
constexpr int64_t kPipelineDepthBase = 4;

/** True if the loop body carries a load-accumulate-store recurrence. */
bool
hasAccumulation(Block* body)
{
    for (Operation* op : *body) {
        if (auto store = dynCast<StoreOp>(op)) {
            // Does any load in the same block read the same memref?
            for (Operation* other : *body) {
                if (isa<LoadOp>(other) &&
                    other->operand(0) == store.memref())
                    return true;
            }
        }
    }
    return false;
}

/**
 * Adds the subtree hashing done during its lifetime to @p stats. The
 * per-thread counters are cumulative over everything the thread ran (a
 * prototype compile, other estimators, other requests), so only their
 * delta across an estimator call is that estimator's work.
 */
class HashWorkScope {
  public:
    explicit HashWorkScope(QorCacheStats& stats)
        : stats_(stats), before_(Operation::subtreeHashStats())
    {}
    ~HashWorkScope()
    {
        const SubtreeHashStats& after = Operation::subtreeHashStats();
        stats_.hashCacheHits += after.cacheHits - before_.cacheHits;
        stats_.hashRecomputes += after.recomputes - before_.recomputes;
    }
    HashWorkScope(const HashWorkScope&) = delete;
    HashWorkScope& operator=(const HashWorkScope&) = delete;

  private:
    QorCacheStats& stats_;
    const SubtreeHashStats before_;
};

} // namespace

uint64_t
QorEstimator::directiveFingerprint(Operation* root)
{
    HashWorkScope hash_work(cacheStats_);
    // Seed with the root pointer: two live subtrees never collide on it,
    // and the full directive state below is folded in so a recycled
    // address with different directives still changes the key.
    uint64_t h = hashMix(reinterpret_cast<uintptr_t>(root));
    // The subtree's own structure and directives come from the dirty-bit
    // cached hash: a clean subtree is one O(1) read, a mutated nest
    // re-hashes only the dirtied path from its ancestors down to the
    // changed op (clean siblings fold their cached hashes).
    h = hashCombine(h, root->subtreeHash());
    // The banking attributes of the buffers behind the memref operands
    // drive the II and resource models; the buffer ops usually live
    // outside the subtree (func/schedule scope), so fold each distinct
    // one in. Leaf subtrees fold the depth-free access hash, so
    // "stages"/"soft_fifo_depth" edits stay schedule-level (the schedule
    // cache re-reads channel capacities on every pass). Hierarchical
    // subtrees embed a nested schedule's frame simulation, which reacts
    // to channel depths: they fold the buffers' full subtree hash.
    const FingerprintPlan& plan = fingerprintPlan(root);
    for (Operation* buffer : plan.buffers) {
        const BufferMemo& memo = bufferMemo(buffer);
        h = hashCombine(h, plan.hasNestedSchedule ? memo.subtreeHash
                                                  : memo.accessHash);
    }
    // Loops enclosing the root feed the estimate from above: their unroll
    // factors enter the port-pressure model and tile loops multiply the
    // external refetch traffic (enclosingLoops crosses node boundaries).
    for (Operation* loop : plan.enclosingLoops) {
        h = hashCombine(h, loop->nameId().raw());
        // Same non-exempt attr fold as subtreeHash ("ii" etc. excluded).
        h = loop->foldOwnAttrs(h);
    }
    return h;
}

const QorEstimator::FingerprintPlan&
QorEstimator::fingerprintPlan(Operation* root)
{
    FingerprintPlan& plan = fpPlans_[root];
    const uint64_t epoch = root->structureEpoch();
    if (plan.epoch == epoch)
        return plan;
    plan.buffers.clear();
    plan.enclosingLoops.clear();
    plan.hasNestedSchedule = false;
    root->walk([&](Operation* op) {
        if (op != root && isa<ScheduleOp>(op))
            plan.hasNestedSchedule = true;
        for (Value* operand : op->operands()) {
            if (!operand->type().isMemRef())
                continue;
            Operation* buffer = resolveBuffer(operand).op();
            if (buffer != nullptr &&
                std::find(plan.buffers.begin(), plan.buffers.end(),
                          buffer) == plan.buffers.end())
                plan.buffers.push_back(buffer);
        }
    }, WalkOrder::kPreOrder);
    for (Operation* p = root->parentOp(); p != nullptr; p = p->parentOp())
        if (isa<ForOp>(p))
            plan.enclosingLoops.push_back(p);
    plan.epoch = epoch;
    return plan;
}

const QorEstimator::BufferMemo&
QorEstimator::bufferMemo(Operation* buffer)
{
    // Any edit of the buffer's attributes or type dirties its subtree
    // hash, so an entry whose hash still matches is current.
    const uint64_t subtree = buffer->subtreeHash();
    auto [it, inserted] = bufferMemo_.try_emplace(buffer);
    BufferMemo& memo = it->second;
    if (!inserted && memo.subtreeHash == subtree)
        return memo;
    memo.subtreeHash = subtree;
    memo.accessHash = bufferAccessHash(buffer);
    memo.resources = bufferResources(BufferOp(buffer));
    return memo;
}

Resources
QorEstimator::memoizedBufferResources(Operation* buffer)
{
    HashWorkScope hash_work(cacheStats_);
    return bufferMemo(buffer).resources;
}

uint64_t
QorEstimator::bufferAccessHash(Operation* buffer)
{
    // A node-level estimate reads the buffer's banking/layout directives
    // (partition fashions/factors, tile factors, vector factor, memory
    // kind) but never its frame depth: "stages" and "soft_fifo_depth"
    // only bound the schedule-level channel capacity. Keeping them out
    // of the node fingerprint means a depth-only edit re-simulates the
    // schedule without invalidating a single node estimate.
    uint64_t h = hashMix(buffer->nameId().raw());
    h = hashCombine(h, buffer->result(0)->type().hash());
    for (const auto& [key, value] : buffer->attrs()) {
        if (Operation::isAttrHashExempt(key) ||
            key == BufferOp::stagesId() ||
            key == BufferOp::softFifoDepthId())
            continue;
        h = hashCombine(h, key.raw());
        h = hashCombine(h, value.hash());
    }
    return h;
}

QorCacheStats&
operator+=(QorCacheStats& lhs, const QorCacheStats& rhs)
{
    lhs.hits += rhs.hits;
    lhs.misses += rhs.misses;
    lhs.hashCacheHits += rhs.hashCacheHits;
    lhs.hashRecomputes += rhs.hashRecomputes;
    lhs.scheduleBuilds += rhs.scheduleBuilds;
    lhs.scheduleReuses += rhs.scheduleReuses;
    lhs.simRuns += rhs.simRuns;
    lhs.simSkips += rhs.simSkips;
    lhs.planBuilds += rhs.planBuilds;
    return lhs;
}

QorCacheStats
QorEstimator::cacheStats() const
{
    return cacheStats_;
}

BufferOp
QorEstimator::resolveBuffer(Value* value)
{
    // Chase through node/schedule block arguments to the defining buffer.
    while (value != nullptr) {
        if (!value->isBlockArgument()) {
            Operation* def = value->definingOp();
            if (def != nullptr && isa<BufferOp>(def))
                return BufferOp(def);
            return BufferOp(nullptr);
        }
        Operation* parent = value->ownerBlock()->parentOp();
        if (parent == nullptr ||
            (!isa<NodeOp>(parent) && !isa<ScheduleOp>(parent)))
            return BufferOp(nullptr);
        if (value->index() >= parent->numOperands())
            return BufferOp(nullptr);
        value = parent->operand(value->index());
    }
    return BufferOp(nullptr);
}

const QorEstimator::NestPlan&
QorEstimator::nestPlan(ForOp outer)
{
    NestPlan& plan = nestPlans_[outer.op()];
    const uint64_t epoch = outer.op()->structureEpoch();
    if (plan.epoch == epoch)
        return plan;
    ++cacheStats_.planBuilds;
    plan.epoch = epoch;
    plan.loops.clear();
    plan.memrefs.clear();
    plan.sites.clear();
    plan.terms.clear();
    plan.firstDims.clear();
    plan.banks = 0;
    for (ForOp level : perfectNest(outer))
        plan.loops.push_back(level.op());
    plan.depth = static_cast<uint32_t>(plan.loops.size());
    Operation* innermost = plan.loops.back();
    for (ForOp loop : enclosingLoops(innermost))
        plan.loops.push_back(loop.op());
    plan.loops.push_back(innermost);
    plan.deepest = ForOp(innermost).body();

    // The deepest block: pipelined when it holds no loop; a streaming copy
    // between external memory and a buffer when it holds one load, one
    // store and no other compute.
    plan.pipelined = true;
    plan.scalarBody = true;
    int64_t loads = 0, stores = 0, others = 0;
    bool touches_external = false;
    plan.copyBits = 8;
    Type stored;
    for (Operation* op : *plan.deepest) {
        if (isa<ForOp>(op))
            plan.pipelined = false;
        if (isa<ForOp>(op) || isa<ScheduleOp>(op) || isa<BufferOp>(op) ||
            isa<NodeOp>(op))
            plan.scalarBody = false;
        if (isAffineLoad(op)) {
            ++loads;
            Type type = op->operand(0)->type();
            touches_external |= type.memorySpace() == MemorySpace::kExternal;
            plan.copyBits = type.elementType().bitWidth();
        } else if (isa<StoreOp>(op)) {
            ++stores;
            touches_external |= op->operand(1)->type().memorySpace() ==
                                MemorySpace::kExternal;
            stored = StoreOp(op).value()->type();
        } else if (!isa<ApplyOp>(op) && !isa<ConstantOp>(op)) {
            ++others;
        }
    }
    plan.streamCopy =
        loads == 1 && stores == 1 && others == 0 && touches_external;
    // Scalar ops cost only what their types say.
    plan.body = plan.scalarBody ? costOfBlock(plan.deepest) : BlockCost();
    // Loop-carried accumulation recurrence.
    plan.recurrence = 0;
    if (plan.pipelined && hasAccumulation(plan.deepest))
        plan.recurrence = stored && stored.isFloat() ? 5 : 1;
    if (!plan.pipelined)
        return plan;

    // Every access under the innermost loop, grouped by memref value:
    // its bank terms and, per enclosing loop, the first dim the loop's IV
    // indexes with a nonzero coefficient (the dim its unroll replicates
    // the access along).
    const uint32_t enclosing =
        static_cast<uint32_t>(plan.loops.size()) - plan.depth;
    innermost->walk([&](Operation* op) {
        AffineAccess access = affineAccessOf(op);
        if (!access)
            return;
        uint32_t memref = 0;
        while (memref < plan.memrefs.size() &&
               plan.memrefs[memref].memref != access.memref)
            ++memref;
        const std::vector<int64_t>& shape = access.memref->type().shape();
        const auto rank = static_cast<uint32_t>(shape.size());
        if (memref == plan.memrefs.size()) {
            plan.memrefs.push_back(
                {access.memref, resolveBuffer(access.memref).op(), rank,
                 plan.banks,
                 access.memref->type().memorySpace() ==
                     MemorySpace::kExternal});
            plan.banks += rank;
        }
        const auto site = static_cast<uint32_t>(plan.sites.size());
        const auto begin = static_cast<uint32_t>(plan.terms.size());
        plan.firstDims.resize(plan.firstDims.size() + enclosing, -1);
        forEachLoopTerm(access, [&](unsigned d, Operation* loop,
                                    int64_t coeff) {
            if (d >= rank)
                return;
            // Only a dim's first term of a loop decides whether that
            // loop indexes the dim (AffineIndexExpr::coeffOf).
            bool first = true;
            for (uint32_t t = begin; t < plan.terms.size(); ++t)
                if (plan.terms[t].dim == d && plan.terms[t].loop == loop)
                    first = false;
            plan.terms.push_back(
                {loop, shape[d], std::max<int64_t>(std::abs(coeff), 1), d});
            if (!first || coeff == 0)
                return;
            for (uint32_t k = 0; k < enclosing; ++k) {
                int32_t& dim = plan.firstDims[site * enclosing + k];
                if (plan.loops[plan.depth + k] == loop && dim < 0)
                    dim = static_cast<int32_t>(d);
            }
        });
        plan.sites.push_back(
            {memref, begin, static_cast<uint32_t>(plan.terms.size())});
    });
    return plan;
}

int64_t
QorEstimator::pipelineIi(const NestPlan& plan)
{
    // Banks per memref dim. A buffer the ArrayPartition pass has not
    // partitioned yet gets the factors that pass will derive from the
    // current unroll factors (max of unroll * |stride| over this region's
    // access sites), so the DSE anticipates both the banking *and* the
    // misalignment penalties its factor choices will incur. A vectorized
    // word of a partitioned buffer serves several contiguous accesses.
    banks_.assign(plan.banks, 1);
    memrefStates_.assign(plan.memrefs.size(), MemrefState());
    for (size_t m = 0; m < plan.memrefs.size(); ++m) {
        const NestMemref& memref = plan.memrefs[m];
        if (memref.buffer == nullptr)
            continue;
        BufferOp buffer(memref.buffer);
        const std::vector<Attribute>* factors = buffer.partitionFactorList();
        if (factors == nullptr) {
            memrefStates_[m].predicted = true;
            continue;
        }
        int64_t* banks = banks_.data() + memref.banksBegin;
        const size_t count = std::min<size_t>(factors->size(), memref.rank);
        for (size_t d = 0; d < count; ++d)
            banks[d] = (*factors)[d].asInt();
        if (!factors->empty() && factors->size() <= memref.rank)
            banks[factors->size() - 1] *= buffer.vectorFactor();
    }
    for (const NestSite& site : plan.sites) {
        if (!memrefStates_[site.memref].predicted)
            continue;
        int64_t* banks = banks_.data() + plan.memrefs[site.memref].banksBegin;
        for (uint32_t t = site.termsBegin; t < site.termsEnd; ++t) {
            const BankTerm& term = plan.terms[t];
            int64_t unroll = ForOp(term.loop).unrollFactor();
            if (unroll <= 1)
                continue;
            banks[term.dim] = std::max(
                banks[term.dim], std::min(term.extent, unroll * term.scale));
        }
    }

    // Port pressure per memref: each enclosing unrolled loop replicates an
    // access along the first dim it indexes. A loop that indexes none
    // replicates it onto one address: reads broadcast, one port serves.
    const size_t enclosing = plan.loops.size() - plan.depth;
    for (size_t s = 0; s < plan.sites.size(); ++s) {
        const NestSite& site = plan.sites[s];
        MemrefState& state = memrefStates_[site.memref];
        const int64_t* banks =
            banks_.data() + plan.memrefs[site.memref].banksBegin;
        double conflict = 1.0;
        for (size_t k = 0; k < enclosing; ++k) {
            const int32_t dim = plan.firstDims[s * enclosing + k];
            if (dim < 0)
                continue;
            int64_t unroll = ForOp(plan.loops[plan.depth + k]).unrollFactor();
            if (unroll <= 1)
                continue;
            int64_t bank = banks[dim];
            if (bank % unroll == 0 || unroll % bank == 0) {
                conflict *= std::max<int64_t>(1, ceilDiv(unroll, bank));
            } else {
                // Unaligned unroll/partition: the accesses serialize and
                // the compiler emits bank-steering control logic.
                conflict *= unroll;
                state.misaligned = true;
            }
        }
        state.pressure += conflict;
    }

    int64_t ii = 1;
    for (size_t m = 0; m < plan.memrefs.size(); ++m) {
        if (plan.memrefs[m].external)
            continue;  // handled by the bandwidth model
        // True dual-port BRAM: two accesses per bank per cycle.
        const MemrefState& state = memrefStates_[m];
        int64_t mem_ii = static_cast<int64_t>(std::ceil(state.pressure / 2.0));
        if (state.misaligned)
            mem_ii *= 2;  // bank-steering muxes add a pipeline bubble
        ii = std::max(ii, mem_ii);
    }
    return std::max(ii, plan.recurrence);
}

QorEstimator::BlockCost
QorEstimator::costOfLoopNest(ForOp loop)
{
    const NestPlan& plan = nestPlan(loop);
    // Collect unroll replication for resources along the way.
    int64_t unroll_product = 1;
    int64_t iters = 1;
    for (uint32_t i = 0; i < plan.depth; ++i) {
        ForOp level(plan.loops[i]);
        const int64_t trip = level.tripCount();
        int64_t unroll = std::min<int64_t>(level.unrollFactor(), trip);
        unroll_product *= unroll;
        iters *= ceilDiv(trip, unroll);
    }

    // Resource + per-iteration depth of the deepest block's ops (which
    // recurse into sub-nests).
    BlockCost body_cost =
        plan.scalarBody ? plan.body : costOfBlock(plan.deepest);
    BlockCost cost;
    cost.res = body_cost.res.scaled(unroll_product);
    if (!plan.pipelined) {
        // Imperfect: iterate the body cost.
        cost.latency = iters * body_cost.latency + kLoopOverhead;
        return cost;
    }
    int64_t ii = pipelineIi(plan);
    // Streaming copies between external memory and on-chip buffers are
    // implemented as wide data movers: one AXI word (several elements)
    // per cycle instead of one element per cycle.
    if (plan.streamCopy) {
        int64_t epc = std::max<int64_t>(
            1, device_.axiBytesPerCycle * 8 /
                   std::max<unsigned>(plan.copyBits, 1));
        iters = ceilDiv(iters, epc);
    }
    int64_t depth = kPipelineDepthBase + body_cost.latency;
    cost.latency = (iters - 1) * ii + depth + kLoopOverhead;
    recordIi(plan.loops[plan.depth - 1], ii);
    return cost;
}

const QorEstimator::RootPlan&
QorEstimator::rootPlan(Operation* root)
{
    RootPlan& plan = rootPlans_[root];
    const uint64_t epoch = root->structureEpoch();
    if (plan.epoch == epoch)
        return plan;
    ++cacheStats_.planBuilds;
    plan.epoch = epoch;
    plan.sites.clear();
    plan.terms.clear();
    plan.extents.clear();
    plan.loops.clear();
    plan.bits = 8;
    ownLoops_.clear();
    root->walk([&](Operation* op) {
        if (isa<ForOp>(op) && op->parentOfName(opNameId<NodeOp>()) == root)
            ownLoops_.push_back(op);
        AffineAccess access = affineAccessOf(op);
        if (!access)
            return;
        Type type = access.memref->type();
        if (type.memorySpace() != MemorySpace::kExternal)
            return;
        const std::vector<int64_t>& shape = type.shape();
        RootSite site;
        site.rank = static_cast<uint32_t>(
            std::min<size_t>(access.numIndices, shape.size()));
        site.extentsBegin = static_cast<uint32_t>(plan.extents.size());
        plan.extents.insert(plan.extents.end(), shape.begin(),
                            shape.begin() + site.rank);
        site.termsBegin = static_cast<uint32_t>(plan.terms.size());
        forEachLoopTerm(access, [&](unsigned d, Operation* loop,
                                    int64_t coeff) {
            if (d < site.rank)
                plan.terms.push_back({loop, std::abs(coeff), d});
        });
        site.termsEnd = static_cast<uint32_t>(plan.terms.size());
        site.reloadBegin = static_cast<uint32_t>(plan.loops.size());
        for (Operation* p = op->parentOp(); p != nullptr; p = p->parentOp()) {
            if (!isa<ForOp>(p))
                continue;
            bool used = false;
            for (uint32_t t = site.termsBegin; t < site.termsEnd; ++t)
                used |= plan.terms[t].loop == p;
            if (!used)
                plan.loops.push_back(p);
        }
        site.reloadEnd = static_cast<uint32_t>(plan.loops.size());
        plan.bits = type.elementType().bitWidth();
        plan.sites.push_back(site);
    });
    plan.ownLoopsBegin = static_cast<uint32_t>(plan.loops.size());
    plan.loops.insert(plan.loops.end(), ownLoops_.begin(), ownLoops_.end());
    return plan;
}

QorEstimator::ExtCost
QorEstimator::externalCost(const RootPlan& plan)
{
    // Streaming-DMA model with line buffering: each external access site
    // moves the distinct footprint it touches (per-dim index spans), times
    // a reload factor for tile loops that enclose the site but do not
    // appear in its index expressions (redundant tile refetch). Runs
    // shorter than the efficient burst length pay per-burst latency and
    // need extra address-generation logic (the Fig. 10 small-tile effects).
    ExtCost total;
    for (const RootSite& site : plan.sites) {
        const int64_t* extents = plan.extents.data() + site.extentsBegin;
        spans_.assign(site.rank, 1);
        for (uint32_t t = site.termsBegin; t < site.termsEnd; ++t) {
            const SpanTerm& term = plan.terms[t];
            spans_[term.dim] +=
                (ForOp(term.loop).tripCount() - 1) * term.coeff;
        }
        int64_t distinct = 1;
        for (uint32_t d = 0; d < site.rank; ++d) {
            spans_[d] = std::min(spans_[d], extents[d]);
            distinct *= spans_[d];
        }
        // Contiguous run: trailing dims extend the run while they are
        // fully covered (row-major layout).
        int64_t last_span = 1;
        for (uint32_t d = site.rank; d-- > 0;) {
            last_span *= spans_[d];
            if (spans_[d] < extents[d])
                break;
        }
        int64_t reload = 1;
        for (uint32_t l = site.reloadBegin; l < site.reloadEnd; ++l)
            if (plan.loops[l]->hasAttr(ForOp::tileLoopId()))
                reload *= ForOp(plan.loops[l]).tripCount();
        int64_t elements = distinct * reload;
        int64_t run = std::max<int64_t>(last_span, 1);
        total.elements += elements;
        total.bursts += ceilDiv(elements, run);
        total.minRun = std::min(total.minRun, run);
        total.sites += 1;
    }
    if (!plan.sites.empty())
        total.bits = plan.bits;
    return total;
}

QorEstimator::BlockCost
QorEstimator::costOfBlock(Block* block)
{
    BlockCost cost;
    for (Operation* op : *block) {
        if (auto loop = dynCast<ForOp>(op)) {
            BlockCost nest = costOfLoopNest(loop);
            cost.latency += nest.latency;
            cost.res += nest.res;
        } else if (auto schedule = dynCast<ScheduleOp>(op)) {
            DesignQor q = estimateSchedule(ScheduleOp(op));
            cost.latency += q.latencyCycles;
            cost.res += q.res;
            (void)schedule;
        } else if (isa<BufferOp>(op)) {
            cost.res += memoizedBufferResources(op);
        } else if (auto node = dynCast<NodeOp>(op)) {
            DesignQor q = estimateNode(node);
            cost.latency += q.latencyCycles;
            cost.res += q.res;
        } else if (auto copy = dynCast<CopyOp>(op)) {
            // Wide on-chip copies move one element per cycle per port pair.
            int64_t elems = copy.source()->type().numElements();
            cost.latency += elems / 2 + kLoopOverhead;
            cost.res.lut += 60;
            cost.res.ff += 80;
        } else if (isa<BinaryOp>(op)) {
            OpHwCost hw = scalarOpCost(op->nameId(), op->operand(0)->type());
            cost.latency += hw.latency;
            cost.res += {hw.lut, hw.ff, hw.dsp, 0};
        } else if (isa<ApplyOp>(op)) {
            // Constant-coefficient address arithmetic maps to LUT
            // shift-adds; DSP-based address generation only appears in the
            // fine-grained external access engines (see externalCost).
            cost.res.lut += op->numOperands() >= 2 ? 40 : 16;
        } else if (isAffineLoad(op) || isa<StoreOp>(op)) {
            cost.latency += 1;
            cost.res.lut += 12;
        } else if (isa<StreamReadOp>(op) || isa<StreamWriteOp>(op)) {
            cost.latency += 1;
            cost.res.lut += 20;
        }
    }
    return cost;
}

Resources
QorEstimator::bufferResources(BufferOp buffer)
{
    Resources res;
    Type type = buffer.type();
    if (type.memorySpace() == MemorySpace::kExternal)
        return res;  // lives in DRAM; only the AXI adapters cost logic
    int64_t banks = std::max<int64_t>(buffer.bankCount(), 1);
    int64_t elems = std::max<int64_t>(type.numElements(), 1);
    int64_t bits = type.elementType().bitWidth();
    int64_t stages = std::max<int64_t>(buffer.stages(), 1);
    int64_t per_bank_elems = ceilDiv(elems, banks);
    int64_t per_bank_bits = per_bank_elems * bits;
    if (per_bank_bits <= 4096) {
        // Small banks map to distributed LUTRAM, as Vitis does.
        res.lut += banks * stages * (per_bank_bits / 64 + 8);
        res.ff += banks * stages * 8;
    } else {
        int64_t bram_per_bank =
            std::max<int64_t>(1, ceilDiv(per_bank_bits, 18 * 1024));
        res.bram18k = banks * bram_per_bank * stages;
    }
    // Banking muxes.
    res.lut += 12 * banks;
    res.ff += 8 * banks;
    return res;
}

int64_t
QorEstimator::bramOf(Operation* root)
{
    int64_t total = 0;
    root->walk([&](Operation* op) {
        if (auto buffer = dynCast<BufferOp>(op))
            total += bufferResources(buffer).bram18k;
    });
    return total;
}

void
QorEstimator::applyExternalCost(const ExtCost& ext, int64_t& latency,
                                Resources& res)
{
    if (ext.sites == 0)
        return;
    int64_t elems_per_cycle =
        std::max<int64_t>(1, device_.axiBytesPerCycle * 8 /
                                 std::max<unsigned>(ext.bits, 1));
    int64_t bw = ext.elements / elems_per_cycle +
                 ext.bursts * device_.axiLatencyCycles;
    latency = std::max(latency, bw);
    // Fine-grained access engines: short runs need burst splitters with
    // their own address generators (Fig. 10's small-tile DSP inflation).
    int64_t run = ext.minRun == INT64_MAX ? device_.minBurstElems
                                          : ext.minRun;
    int64_t splitters =
        ext.sites * ceilDiv(device_.minBurstElems, std::max<int64_t>(run, 1));
    res.dsp += 2 * splitters;
    res.lut += 110 * splitters;
    res.ff += 140 * splitters;
}

DesignQor
QorEstimator::estimateNode(NodeOp node)
{
    return estimateNodeWithFp(node, directiveFingerprint(node.op()));
}

void
QorEstimator::recordIi(Operation* loop, int64_t ii)
{
    loop->setIntAttr(ForOp::iiId(), ii);
    for (auto* recorder : iiRecorders_)
        recorder->emplace_back(loop, ii);
}

void
QorEstimator::replayIi(const MemoEntry& entry)
{
    for (const auto& [loop, ii] : entry.iiWrites)
        recordIi(loop, ii);
}

int64_t
QorEstimator::tileFramesOf(NodeOp node)
{
    const RootPlan& plan = rootPlan(node.op());
    int64_t frames = 1;
    for (size_t l = plan.ownLoopsBegin; l < plan.loops.size(); ++l)
        if (plan.loops[l]->hasAttr(ForOp::tileLoopId()))
            frames *= ForOp(plan.loops[l]).tripCount();
    return std::max<int64_t>(frames, 1);
}

DesignQor
QorEstimator::estimateNodeWithFp(NodeOp node, uint64_t fp)
{
    if (auto it = memo_.find(fp); it != memo_.end()) {
        ++cacheStats_.hits;
        replayIi(it->second);
        return it->second.qor;
    }
    ++cacheStats_.misses;
    MemoEntry entry;
    iiRecorders_.push_back(&entry.iiWrites);
    DesignQor qor;
    BlockCost cost = costOfBlock(node.body());
    qor.latencyCycles = std::max<int64_t>(cost.latency, 1);
    qor.res = cost.res;
    // Nodes touching external memory are bounded by the AXI bandwidth;
    // nested sub-schedules account for their own nodes' traffic.
    bool has_sub_schedule = false;
    for (Operation* op : *node.body())
        if (isa<ScheduleOp>(op))
            has_sub_schedule = true;
    if (!has_sub_schedule)
        applyExternalCost(externalCost(rootPlan(node.op())),
                          qor.latencyCycles, qor.res);
    qor.intervalCycles = static_cast<double>(qor.latencyCycles);
    iiRecorders_.pop_back();
    entry.qor = qor;
    memo_.emplace(fp, std::move(entry));
    return qor;
}

DesignQor
QorEstimator::estimateLoop(ForOp loop)
{
    uint64_t fp = directiveFingerprint(loop.op());
    if (auto it = memo_.find(fp); it != memo_.end()) {
        ++cacheStats_.hits;
        replayIi(it->second);
        return it->second.qor;
    }
    ++cacheStats_.misses;
    MemoEntry entry;
    iiRecorders_.push_back(&entry.iiWrites);
    DesignQor qor;
    BlockCost cost = costOfLoopNest(loop);
    applyExternalCost(externalCost(rootPlan(loop.op())), cost.latency,
                      cost.res);
    qor.latencyCycles = std::max<int64_t>(cost.latency, 1);
    qor.intervalCycles = static_cast<double>(qor.latencyCycles);
    qor.res = cost.res;
    iiRecorders_.pop_back();
    entry.qor = qor;
    memo_.emplace(fp, std::move(entry));
    return qor;
}

int64_t
QorEstimator::channelCapacity(Value* channel, Operation* buffer_op)
{
    int64_t capacity = 1;
    if (buffer_op != nullptr) {
        BufferOp buffer(buffer_op);
        capacity = buffer.stages();
        capacity = std::max<int64_t>(capacity, buffer.softFifoDepth());
    } else if (channel->type().isStream()) {
        capacity = std::max<int64_t>(channel->type().streamDepth(), 1);
    }
    return capacity;
}

void
QorEstimator::rebuildScheduleEntry(ScheduleOp schedule,
                                   ScheduleCacheEntry& entry)
{
    entry.epoch = schedule.op()->structureEpoch();
    DataflowGraph graph(schedule);

    entry.nodes.clear();
    for (NodeOp node : graph.topoOrder())
        entry.nodes.push_back(node.op());
    const size_t n = entry.nodes.size();
    entry.nodeFps.assign(n, 0);
    entry.nodeQors.assign(n, DesignQor());
    entry.tiles.assign(n, 1);
    entry.latencies.assign(n, 0);

    // Non-node content (buffers, streams) contributes resources only;
    // the op list is structural, the per-pass resource math is not.
    entry.bufferOps.clear();
    for (Operation* op : *schedule.body())
        if (isa<BufferOp>(op))
            entry.bufferOps.push_back(op);

    // Multi-producer violation => sequential execution (Section 6.4.1).
    std::vector<Value*> channels = graph.internalChannels();
    auto external = graph.externalChannels();
    channels.insert(channels.end(), external.begin(), external.end());
    entry.sequential = false;
    for (Value* channel : channels)
        if (graph.producers(channel).size() > 1)
            entry.sequential = true;

    // Build the simulation skeleton: channel wiring only — per-frame
    // latencies and capacities live in the overlay vectors and are
    // refreshed by every estimateSchedule pass.
    entry.sim = SimGraph();
    entry.sim.sequential = entry.sequential;
    entry.channelValues.clear();
    entry.channelBuffers.clear();
    entry.capacities.clear();
    std::map<Value*, int> channel_index;
    if (!entry.sequential) {
        for (Value* channel : channels) {
            if (graph.producers(channel).empty())
                continue;  // pure inputs impose no ordering
            BufferOp buffer = resolveBuffer(channel);
            channel_index[channel] =
                static_cast<int>(entry.sim.channels.size());
            entry.channelValues.push_back(channel);
            entry.channelBuffers.push_back(buffer.op());
            int64_t capacity = channelCapacity(channel, buffer.op());
            entry.capacities.push_back(capacity);
            entry.sim.channels.push_back({capacity});
        }
    }
    for (size_t i = 0; i < n; ++i) {
        NodeOp node(entry.nodes[i]);
        SimNode sim_node;
        if (!entry.sequential) {
            for (unsigned oi = 0; oi < node.op()->numOperands(); ++oi) {
                Value* channel = node.op()->operand(oi);
                auto it = channel_index.find(channel);
                if (it == channel_index.end())
                    continue;
                bool is_producer =
                    !graph.producers(channel).empty() &&
                    graph.producers(channel).front().op() == node.op();
                if (is_producer && node.writes(oi))
                    sim_node.outputs.push_back(it->second);
                else if (node.reads(oi))
                    sim_node.inputs.push_back(it->second);
            }
        }
        entry.sim.nodes.push_back(sim_node);
    }
    if (!entry.sequential)
        entry.sim.buildAdjacency();
}

DesignQor
QorEstimator::estimateSchedule(ScheduleOp schedule)
{
    // unordered_map references are stable across rehashing, so `entry`
    // survives the recursive estimateSchedule calls nested node bodies
    // can trigger through estimateNodeWithFp.
    ScheduleCacheEntry& entry = scheduleCache_[schedule.op()];
    // The skeleton reads "effects" too, but that key is structural: an
    // effect edit bumps the epoch like any op insert or move.
    bool structural = entry.epoch != schedule.op()->structureEpoch();
    if (structural) {
        rebuildScheduleEntry(schedule, entry);
        ++cacheStats_.scheduleBuilds;
    } else {
        ++cacheStats_.scheduleReuses;
    }

    // Per-node frame counts and per-frame latencies: only nodes whose
    // directive fingerprint moved since the cached pass are re-estimated
    // (and those usually hit the global per-node memo anyway).
    DesignQor qor;
    int64_t frames = 1;
    bool latency_changed = false;
    for (size_t i = 0; i < entry.nodes.size(); ++i) {
        NodeOp node(entry.nodes[i]);
        // One fingerprint per node serves both memo caches.
        uint64_t fp = directiveFingerprint(node.op());
        if (structural || fp != entry.nodeFps[i]) {
            entry.nodeFps[i] = fp;
            entry.nodeQors[i] = estimateNodeWithFp(node, fp);
            entry.tiles[i] = tileFramesOf(node);
        } else if (!iiRecorders_.empty()) {
            // An enclosing estimate is recording: log this node's ii
            // writes too, so replaying that entry restores all of them,
            // even after something removed them (stripSuffixDirectives).
            if (auto it = memo_.find(fp); it != memo_.end())
                replayIi(it->second);
        }
        qor.res += entry.nodeQors[i].res;
        frames = std::max(frames, entry.tiles[i]);
        int64_t per_frame = std::max<int64_t>(
            1, entry.nodeQors[i].latencyCycles /
                   std::max<int64_t>(entry.tiles[i], 1));
        if (per_frame != entry.latencies[i]) {
            entry.latencies[i] = per_frame;
            latency_changed = true;
        }
    }
    // Buffer resources come from the per-buffer memo, which revalidates
    // on the buffer's subtree hash, so stages/partition edits are always
    // reflected.
    for (Operation* op : entry.bufferOps)
        qor.res += memoizedBufferResources(op);
    if (entry.nodes.empty())
        return qor;

    if (entry.sequential) {
        int64_t total = 0;
        for (int64_t l : entry.latencies)
            total += l;
        qor.latencyCycles = total * frames;
        qor.intervalCycles = static_cast<double>(qor.latencyCycles);
        return qor;
    }

    // Channel capacities change on stages/soft_fifo_depth edits, which
    // never touch a node fingerprint — re-read them every pass.
    bool capacity_changed = false;
    for (size_t c = 0; c < entry.channelValues.size(); ++c) {
        int64_t capacity = channelCapacity(entry.channelValues[c],
                                           entry.channelBuffers[c]);
        if (capacity != entry.capacities[c]) {
            entry.capacities[c] = capacity;
            capacity_changed = true;
        }
    }

    if (structural || latency_changed || capacity_changed) {
        entry.simResult =
            simulate(entry.sim, entry.latencies, entry.capacities);
        ++cacheStats_.simRuns;
    } else {
        ++cacheStats_.simSkips;
    }
    qor.latencyCycles =
        entry.simResult.frameLatency +
        static_cast<int64_t>((frames - 1) * entry.simResult.steadyInterval);
    qor.intervalCycles = frames * entry.simResult.steadyInterval;
    return qor;
}

DesignQor
QorEstimator::estimateFunc(FuncOp func)
{
    DesignQor qor;
    double interval = 0.0;
    BlockCost top;
    for (Operation* op : *func.body()) {
        if (auto schedule = dynCast<ScheduleOp>(op)) {
            DesignQor q = estimateSchedule(schedule);
            qor.res += q.res;
            qor.latencyCycles += q.latencyCycles;
            interval = std::max(interval, q.intervalCycles);
        } else if (auto loop = dynCast<ForOp>(op)) {
            // Memoized: a DSE sweep re-estimates only the nests whose
            // directives changed since the last point.
            DesignQor q = estimateLoop(loop);
            qor.res += q.res;
            qor.latencyCycles += q.latencyCycles;
        } else if (isa<BufferOp>(op)) {
            qor.res += memoizedBufferResources(op);
        } else if (auto node = dynCast<NodeOp>(op)) {
            DesignQor q = estimateNode(node);
            qor.res += q.res;
            qor.latencyCycles += q.latencyCycles;
        }
        (void)top;
    }
    // Without dataflow overlap, the interval equals the latency.
    qor.intervalCycles =
        interval > 0.0 ? std::max(interval, 1.0)
                       : static_cast<double>(std::max<int64_t>(
                             qor.latencyCycles, 1));
    // A design whose body mixes schedules and stray nests is bounded by the
    // sequential part.
    if (interval > 0.0 && qor.latencyCycles > 0)
        qor.intervalCycles = std::max(qor.intervalCycles, interval);
    return qor;
}

Result<DesignQor>
QorEstimator::estimateFuncChecked(FuncOp func)
{
    // Input validation as returned diagnostics: a sweep point handing
    // the estimator a broken design is per-point data, not a reason to
    // kill every worker (the old HIDA_ASSERT/HIDA_FATAL contract).
    if (!func || func.op() == nullptr)
        return Diagnostic(ErrorCode::kEstimatorInvalidInput,
                          "no function to estimate", "estimateFunc");
    if (func.body() == nullptr)
        return Diagnostic(ErrorCode::kEstimatorInvalidInput,
                          "function has no body",
                          strCat("func @", func.symName()));
    if (device_.freqMhz <= 0.0)
        return Diagnostic(ErrorCode::kEstimatorInvalidInput,
                          strCat("device clock ", device_.freqMhz,
                                 " MHz is not positive"),
                          "estimateFunc");
    // Check the verdict before building the site string: the disabled
    // path runs once per sweep point and must stay allocation-free.
    if (shouldInjectFault(FaultSite::kEstimator))
        return *maybeInjectFault(FaultSite::kEstimator,
                                 strCat("func @", func.symName()));
    return estimateFunc(func);
}

} // namespace hida
