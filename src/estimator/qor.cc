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

/** Product of trips of loops tagged "tile_loop" whose nearest enclosing
 * node is @p node (tile loops of nested sub-nodes belong to those). */
int64_t
tileFrames(NodeOp node)
{
    int64_t frames = 1;
    node.op()->walk([&](Operation* op) {
        if (isa<ForOp>(op) && op->hasAttr(ForOp::tileLoopId()) &&
            op->parentOfName(opNameId<NodeOp>()) == node.op())
            frames *= ForOp(op).tripCount();
    });
    return std::max<int64_t>(frames, 1);
}

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

int64_t
QorEstimator::initiationInterval(Block* body,
                                 const std::vector<ForOp>& enclosing)
{
    // Collect per-buffer port pressure with alignment awareness.
    std::map<Value*, double> pressure;
    std::map<Value*, bool> misaligned;

    // First pass: for buffers that have not been partitioned yet, predict
    // the per-dim factors the ArrayPartition pass will derive from the
    // current unroll factors (max of unroll * |stride| over this region's
    // access sites). This lets the DSE anticipate both the banking *and*
    // the misalignment penalties its factor choices will incur.
    std::map<Value*, std::vector<int64_t>> predicted;
    body->parentOp()->walk([&](Operation* op) {
        Value* memref = nullptr;
        std::vector<Value*> indices;
        if (isAffineLoad(op)) {
            LoadOp load(op);
            memref = load.memref();
            for (unsigned i = 0; i < load.numIndices(); ++i)
                indices.push_back(load.index(i));
        } else if (auto store = dynCast<StoreOp>(op)) {
            memref = store.memref();
            for (unsigned i = 0; i < store.numIndices(); ++i)
                indices.push_back(store.index(i));
        } else {
            return;
        }
        BufferOp buffer = resolveBuffer(memref);
        if (!buffer || buffer.op()->hasAttr(BufferOp::partitionFactorsId()))
            return;
        auto& factors = predicted[memref];
        factors.resize(memref->type().shape().size(), 1);
        for (size_t d = 0; d < indices.size(); ++d) {
            auto expr = decomposeIndex(indices[d]);
            if (!expr)
                continue;
            for (const AffineTerm& term : expr->terms) {
                Operation* loop_op = term.iv->ownerBlock()->parentOp();
                if (loop_op == nullptr || !isa<ForOp>(loop_op))
                    continue;
                int64_t unroll = ForOp(loop_op).unrollFactor();
                if (unroll <= 1)
                    continue;
                factors[d] = std::max(
                    factors[d],
                    std::min(memref->type().shape()[d],
                             unroll * std::max<int64_t>(
                                          std::abs(term.coeff), 1)));
            }
        }
    });

    auto account = [&](Operation* access, Value* memref,
                       const std::vector<Value*>& indices) {
        (void)access;
        BufferOp buffer = resolveBuffer(memref);
        std::vector<int64_t> factors;
        if (auto it = predicted.find(memref); it != predicted.end()) {
            factors = it->second;
        } else if (buffer) {
            factors = buffer.partitionFactors();
            // A vectorized word serves several contiguous accesses.
            if (!factors.empty())
                factors.back() *= buffer.vectorFactor();
        } else {
            factors.assign(memref->type().shape().size(), 1);
        }
        // Which dims does each enclosing unrolled loop index?
        double conflict = 1.0;
        for (ForOp loop : enclosing) {
            int64_t unroll = loop.unrollFactor();
            if (unroll <= 1)
                continue;
            bool indexes = false;
            for (size_t d = 0; d < indices.size(); ++d) {
                auto expr = decomposeIndex(indices[d]);
                if (!expr)
                    continue;
                int64_t coeff = expr->coeffOf(loop.inductionVar());
                if (coeff == 0)
                    continue;
                indexes = true;
                int64_t banks = d < factors.size() ? factors[d] : 1;
                if (banks % unroll == 0 || unroll % banks == 0) {
                    conflict *= std::max<int64_t>(1, ceilDiv(unroll, banks));
                } else {
                    // Unaligned unroll/partition: the accesses serialize and
                    // the compiler emits bank-steering control logic.
                    conflict *= unroll;
                    misaligned[memref] = true;
                }
                break;
            }
            if (!indexes) {
                // Loop replicates the access but every copy hits the same
                // address: reads broadcast, a single port suffices.
                continue;
            }
        }
        pressure[memref] += conflict;
    };

    body->parentOp()->walk([&](Operation* op) {
        if (isAffineLoad(op)) {
            LoadOp load(op);
            std::vector<Value*> indices;
            for (unsigned i = 0; i < load.numIndices(); ++i)
                indices.push_back(load.index(i));
            account(op, load.memref(), indices);
        } else if (auto store = dynCast<StoreOp>(op)) {
            std::vector<Value*> indices;
            for (unsigned i = 0; i < store.numIndices(); ++i)
                indices.push_back(store.index(i));
            account(op, store.memref(), indices);
        }
    });

    int64_t ii = 1;
    for (const auto& [memref, p] : pressure) {
        if (memref->type().memorySpace() == MemorySpace::kExternal)
            continue;  // handled by the bandwidth model
        // True dual-port BRAM: two accesses per bank per cycle.
        int64_t mem_ii = static_cast<int64_t>(std::ceil(p / 2.0));
        if (misaligned.count(memref))
            mem_ii *= 2;  // bank-steering muxes add a pipeline bubble
        ii = std::max(ii, mem_ii);
    }

    // Loop-carried accumulation recurrence.
    if (hasAccumulation(body)) {
        Type elem;
        for (Operation* op : *body)
            if (isa<StoreOp>(op))
                elem = StoreOp(op).value()->type();
        int64_t dep = elem && elem.isFloat() ? 5 : 1;
        ii = std::max(ii, dep);
    }
    return ii;
}

QorEstimator::BlockCost
QorEstimator::costOfLoopNest(ForOp loop)
{
    BlockCost cost;
    std::vector<ForOp> nest = perfectNest(loop);
    Block* deepest = nest.back().body();

    bool flat_pipeline = true;
    for (Operation* op : *deepest) {
        if (isa<ForOp>(op)) {
            flat_pipeline = false;
            break;
        }
    }

    // Collect unroll replication for resources along the way.
    int64_t unroll_product = 1;
    int64_t iters = 1;
    for (ForOp level : nest) {
        int64_t unroll =
            std::min<int64_t>(level.unrollFactor(), level.tripCount());
        unroll_product *= unroll;
        iters *= ceilDiv(level.tripCount(), unroll);
    }

    // Resource + per-iteration depth of the deepest block's scalar ops.
    BlockCost body_cost = costOfBlock(deepest);
    cost.res = body_cost.res.scaled(unroll_product);

    std::vector<ForOp> enclosing = enclosingLoops(deepest->parentOp());
    enclosing.push_back(ForOp(deepest->parentOp()));

    if (flat_pipeline) {
        int64_t ii = initiationInterval(deepest, enclosing);
        // Streaming copies between external memory and on-chip buffers are
        // implemented as wide data movers: one AXI word (several elements)
        // per cycle instead of one element per cycle.
        int64_t ld = 0, st = 0, other = 0;
        bool touches_external = false;
        unsigned bits = 8;
        for (Operation* op : *deepest) {
            if (isAffineLoad(op)) {
                ++ld;
                if (op->operand(0)->type().memorySpace() ==
                    MemorySpace::kExternal)
                    touches_external = true;
                bits = op->operand(0)->type().elementType().bitWidth();
            } else if (isa<StoreOp>(op)) {
                ++st;
                if (op->operand(1)->type().memorySpace() ==
                    MemorySpace::kExternal)
                    touches_external = true;
            } else if (!isa<ApplyOp>(op) && !isa<ConstantOp>(op)) {
                ++other;
            }
        }
        if (ld == 1 && st == 1 && other == 0 && touches_external) {
            int64_t epc = std::max<int64_t>(
                1, device_.axiBytesPerCycle * 8 / std::max<unsigned>(bits, 1));
            iters = ceilDiv(iters, epc);
        }
        int64_t depth = kPipelineDepthBase + body_cost.latency;
        cost.latency = (iters - 1) * ii + depth + kLoopOverhead;
        recordIi(nest.back().op(), ii);
    } else {
        // Imperfect: iterate the body cost (which recurses into sub-nests).
        cost.latency = iters * body_cost.latency + kLoopOverhead;
    }

    return cost;
}

QorEstimator::ExtCost
QorEstimator::externalCost(Operation* root)
{
    // Streaming-DMA model with line buffering: each external access site
    // moves the distinct footprint it touches (per-dim index spans), times
    // a reload factor for tile loops that enclose the site but do not
    // appear in its index expressions (redundant tile refetch). Runs
    // shorter than the efficient burst length pay per-burst latency and
    // need extra address-generation logic (the Fig. 10 small-tile effects).
    ExtCost total;
    root->walk([&](Operation* op) {
        Value* memref = nullptr;
        std::vector<Value*> indices;
        if (isAffineLoad(op)) {
            LoadOp load(op);
            memref = load.memref();
            for (unsigned i = 0; i < load.numIndices(); ++i)
                indices.push_back(load.index(i));
        } else if (auto store = dynCast<StoreOp>(op)) {
            memref = store.memref();
            for (unsigned i = 0; i < store.numIndices(); ++i)
                indices.push_back(store.index(i));
        } else {
            return;
        }
        if (memref->type().memorySpace() != MemorySpace::kExternal)
            return;

        const auto& shape = memref->type().shape();
        std::vector<Value*> used_ivs;
        std::vector<int64_t> spans;
        int64_t distinct = 1;
        for (size_t d = 0; d < indices.size(); ++d) {
            auto expr = decomposeIndex(indices[d]);
            int64_t span = 1;
            if (expr) {
                for (const AffineTerm& term : expr->terms) {
                    Operation* loop_op = term.iv->ownerBlock()->parentOp();
                    if (loop_op != nullptr && isa<ForOp>(loop_op)) {
                        span += (ForOp(loop_op).tripCount() - 1) *
                                std::abs(term.coeff);
                        used_ivs.push_back(term.iv);
                    }
                }
            }
            span = std::min<int64_t>(span, shape[d]);
            distinct *= span;
            spans.push_back(span);
        }
        // Contiguous run: trailing dims extend the run while they are
        // fully covered (row-major layout).
        int64_t last_span = 1;
        for (size_t d = spans.size(); d-- > 0;) {
            last_span *= spans[d];
            if (spans[d] < shape[d])
                break;
        }
        int64_t reload = 1;
        for (ForOp loop : enclosingLoops(op)) {
            if (!loop.op()->hasAttr(ForOp::tileLoopId()))
                continue;
            if (std::find(used_ivs.begin(), used_ivs.end(),
                          loop.inductionVar()) == used_ivs.end())
                reload *= loop.tripCount();
        }
        int64_t elements = distinct * reload;
        int64_t run = std::max<int64_t>(last_span, 1);
        total.elements += elements;
        total.bursts += ceilDiv(elements, run);
        total.minRun = std::min(total.minRun, run);
        total.bits = memref->type().elementType().bitWidth();
        total.sites += 1;
    });
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
QorEstimator::tileFramesOf(NodeOp node, uint64_t fp)
{
    if (auto it = tileMemo_.find(fp); it != tileMemo_.end())
        return it->second;
    int64_t frames = tileFrames(node);
    tileMemo_.emplace(fp, frames);
    return frames;
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
        applyExternalCost(externalCost(node.op()), qor.latencyCycles,
                          qor.res);
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
    applyExternalCost(externalCost(loop.op()), cost.latency, cost.res);
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
            entry.tiles[i] = tileFramesOf(node, fp);
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
