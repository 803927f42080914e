#ifndef HIDA_ESTIMATOR_QOR_H
#define HIDA_ESTIMATOR_QOR_H

/**
 * @file
 * Analytic quality-of-results estimator — the stand-in for AMD Vitis HLS
 * synthesis reports (see DESIGN.md substitutions). Models:
 *  - pipelined loop-nest latency with initiation intervals derived from
 *    memory-port pressure (partition banks x dual ports), recurrence
 *    latency, and partition/unroll misalignment penalties;
 *  - external (AXI) access cost with burst efficiency, so small tiles pay
 *    latency-dominated transfers (Fig. 10's bandwidth observations);
 *  - resource usage: DSP/LUT/FF replication under unrolling, BRAM banks
 *    from array partitioning, address-generation overhead for fine-grained
 *    external access;
 *  - dataflow steady-state intervals via the frame-level simulator,
 *    including sequentialization under multi-producer violations.
 */

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/dialect/hida/hida_ops.h"
#include "src/estimator/device.h"
#include "src/ir/builtin_ops.h"
#include "src/sim/dataflow_sim.h"
#include "src/support/diagnostics.h"

namespace hida {

/** QoR of a design or sub-design. */
struct DesignQor {
    int64_t latencyCycles = 0;    ///< One full inference/sample.
    double intervalCycles = 0.0;  ///< Steady-state cycles per sample.
    Resources res;

    /** Samples per second at the device clock. */
    double
    throughput(const TargetDevice& device) const
    {
        if (intervalCycles <= 0.0)
            return 0.0;
        return device.freqMhz * 1e6 / intervalCycles;
    }
};

/**
 * Hit/miss counters of the per-node QoR memo cache, the schedule-level
 * graph/simulation cache, plus the reuse counters of the underlying
 * subtree-hash cache. The hash counters count only the hashing this
 * estimator's own fingerprints did (the delta of the per-thread
 * Operation::subtreeHashStats across each fingerprint), so they depend
 * neither on what else the thread ran nor on which thread the estimator
 * runs.
 */
struct QorCacheStats {
    uint64_t hits = 0;            ///< Memoized estimates returned.
    uint64_t misses = 0;          ///< Estimates computed from scratch.
    uint64_t hashCacheHits = 0;   ///< Subtree hashes served from op caches.
    uint64_t hashRecomputes = 0;  ///< Ops re-hashed after invalidation.
    uint64_t scheduleBuilds = 0;  ///< Schedule skeletons (re)built.
    uint64_t scheduleReuses = 0;  ///< Warm passes reusing a cached skeleton.
    uint64_t simRuns = 0;         ///< Dataflow simulations executed.
    uint64_t simSkips = 0;        ///< Simulations skipped (cached SimResult).
    uint64_t planBuilds = 0;      ///< Cold-model nest/root plans (re)built.

    /** Node/loop memo hit fraction (0 when nothing was estimated) —
     * the number the Pareto-guided strategies are tuned on: neighbor
     * points that mutate few directives should keep this high. */
    double
    memoHitRate() const
    {
        uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * Sum every counter of @p rhs into @p lhs. Each sharded-sweep worker
 * owns a private estimator; the strategy executor folds their stats
 * into one process view with this when workers finish.
 */
QorCacheStats& operator+=(QorCacheStats& lhs, const QorCacheStats& rhs);

/**
 * Estimates latency, interval and resources of Structural-dataflow IR.
 *
 * Node and standalone-loop estimates are memoized on a *directive
 * fingerprint*: a structural hash of the estimated subtree (op names,
 * attributes minus the estimator-written "ii", operand/result/block-arg
 * types), the partition/stage/vector attributes of each distinct buffer
 * behind the subtree's memref operands (resolved through isolation
 * boundaries, since buffers usually live outside the subtree), and the
 * directives of loops enclosing the root (their unroll factors and
 * tile_loop tags feed the port-pressure and refetch models). A DSE
 * sweep that re-applies directives point by point therefore only
 * re-estimates the nodes whose factors actually changed; every
 * untouched node is a hash lookup. The "ii" attributes an estimate
 * writes are replayed on cache hits so the IR annotation always matches
 * the returned estimate.
 *
 * A miss computes the estimate from cold-model plans (see NestPlan and
 * RootPlan): what the model reads of each loop nest and estimated root
 * besides directives, gathered once per structure epoch. The miss itself
 * reads directives and does arithmetic, so a DSE point that only
 * rewrites directives builds no plan (cacheStats().planBuilds).
 *
 * Invalidation rule: any IR state that influences an estimate must feed
 * the fingerprint — the cache is never explicitly flushed on directive
 * changes, a changed fingerprint simply misses. The dirty-propagation
 * corollary (enforced by the IR mutators): every mutation that changes a
 * fingerprint input must invalidate the cached subtree hash of the
 * mutated op and its whole ancestor chain, so fingerprints are rebuilt
 * from cached child hashes and re-hash only the mutated path — a
 * directive writer that bypasses the invalidating mutators would silently
 * serve stale estimates. Cache entries are keyed
 * by (root pointer, fingerprint), so an estimator must not be reused
 * across unrelated modules whose operations could alias in memory;
 * create one estimator per design (as the driver and benches do) or call
 * invalidateCache() between designs.
 *
 * Threading model: an estimator is single-threaded by construction —
 * every cache lives in the estimator object, so a sharded DSE runs one
 * estimator per worker on that worker's private module clone (see
 * src/dse/sweep.h) and never shares one across threads. The IR state an
 * estimate reads (subtree hashes, structure epochs) is likewise confined
 * to the worker's module tree.
 */
class QorEstimator {
  public:
    explicit QorEstimator(TargetDevice device) : device_(std::move(device)) {}

    const TargetDevice& device() const { return device_; }

    /** Memo-cache hit/miss counters (estimateNode/estimateLoop) plus the
     * subtree-hash work of this estimator's fingerprints. */
    QorCacheStats cacheStats() const;
    /** Drop all memoized estimates (e.g. when switching modules). */
    void invalidateCache()
    {
        memo_.clear();
        fpPlans_.clear();
        nestPlans_.clear();
        rootPlans_.clear();
        scheduleCache_.clear();
        bufferMemo_.clear();
    }

    /** Estimate the design rooted at @p func (body latency + resources). */
    DesignQor estimateFunc(FuncOp func);

    /**
     * Recoverable estimateFunc for per-point/per-request callers:
     * validates the input (non-null function with a body, sane device
     * model) and returns a kEstimatorInvalidInput Diagnostic instead of
     * asserting, and honors the FaultSite::kEstimator injection hook.
     * On success the estimate is identical to estimateFunc().
     */
    Result<DesignQor> estimateFuncChecked(FuncOp func);

    /** Estimate one node in isolation (used by the intra-node DSE). */
    DesignQor estimateNode(NodeOp node);

    /** Estimate one standalone loop nest (kernels without dataflow). */
    DesignQor estimateLoop(class ForOp loop);

    /**
     * Estimate a schedule: steady-state interval across its frames.
     * Memoized end to end (see ScheduleCacheEntry): structural edits
     * rebuild the dataflow/simulation skeleton, pure directive edits
     * re-estimate only the nodes whose fingerprint moved, and the frame
     * simulation is skipped outright when no per-frame latency or
     * channel capacity changed.
     */
    DesignQor estimateSchedule(ScheduleOp schedule);

    /** On-chip memory (BRAM18K) of every buffer under @p root. */
    int64_t bramOf(Operation* root);

    /** Partition info of the buffer feeding @p value (through node args). */
    static BufferOp resolveBuffer(Value* value);

  private:
    struct BlockCost {
        int64_t latency = 0;
        Resources res;
    };

    /** External (AXI) traffic summary of a subtree. */
    struct ExtCost {
        int64_t elements = 0;          ///< Elements moved over AXI.
        int64_t bursts = 0;            ///< Number of bursts issued.
        int64_t minRun = INT64_MAX;    ///< Shortest contiguous run.
        unsigned bits = 8;             ///< Element width.
        int64_t sites = 0;             ///< Access sites.
    };

    /** Apply the ExtCost bandwidth bound + adapter resources to a cost. */
    void applyExternalCost(const ExtCost& ext, int64_t& latency,
                           Resources& res);

    BlockCost costOfBlock(Block* block);
    BlockCost costOfLoopNest(class ForOp loop);
    /** Resources of one buffer: pure math over its type and attributes. */
    static Resources bufferResources(BufferOp buffer);

    /**
     * @name Cold-model plans
     * What the cold model reads of a loop nest or an estimated root
     * besides directives, gathered once per structure epoch of the tree,
     * in the FingerprintPlan idiom. Every input is structural: op kinds,
     * operands, block arguments, parent links, types, and the
     * structural "coeffs" and "offset" of affine.apply (the
     * structural-key rule), so the epoch alone revalidates a plan and a
     * recycled op address cannot match a stale one. Each plan keeps a
     * few flat arrays with index ranges. A memo miss reads only the
     * directives re-read below on every estimate — "unroll", trip counts
     * ("lb", "ub", "step"), "partition_factors" (in place),
     * "vector_factor" and "tile_loop", which is re-read rather than
     * registered structural — and then does arithmetic only: it walks
     * nothing, decomposes no index, and once its plans exist allocates
     * nothing.
     * @{
     */
    /** Loop @p loop's IV indexes dim @p dim (of size @p extent) of an
     * access with stride @p scale = max(|coeff|, 1). */
    struct BankTerm {
        Operation* loop;
        int64_t extent;
        int64_t scale;
        uint32_t dim;
    };
    /** One memref value the accesses of a pipelined nest go through. */
    struct NestMemref {
        Value* memref;
        Operation* buffer;      ///< resolveBuffer(memref), or null.
        uint32_t rank;
        uint32_t banksBegin;    ///< Its slice of the bank-factor scratch.
        bool external;          ///< Its type is in external memory.
    };
    /** One load/store under a pipelined nest's innermost loop. */
    struct NestSite {
        uint32_t memref;                ///< Index into NestPlan::memrefs.
        uint32_t termsBegin, termsEnd;  ///< Its NestPlan::terms.
    };
    /** Plan of the loop nest rooted at one affine.for. */
    struct NestPlan {
        uint64_t epoch = ~uint64_t{0};  ///< structureEpoch at collection.
        /** [0, depth): the perfect nest, outermost first; [depth, end):
         * the loops enclosing its deepest block, outermost first, ending
         * with the nest's innermost loop. */
        std::vector<Operation*> loops;
        uint32_t depth = 0;
        Block* deepest = nullptr;  ///< Body of the innermost nest loop.
        bool pipelined = false;    ///< The deepest block holds no loop.
        bool scalarBody = false;   ///< It holds only scalar ops: body is
                                   ///< its costOfBlock.
        BlockCost body;
        /** One load, one store, no other compute, external memory: a
         * wide data mover of copyBits-wide elements. */
        bool streamCopy = false;
        unsigned copyBits = 8;
        int64_t recurrence = 0;    ///< Accumulation II bound, 0 if none.
        uint32_t banks = 0;        ///< Sum of the memrefs' ranks.
        std::vector<NestMemref> memrefs;  ///< Pipelined nests only.
        std::vector<NestSite> sites;
        std::vector<BankTerm> terms;
        /** [site * enclosing + k]: the first index dim of the site that
         * enclosing loop k indexes, or -1. */
        std::vector<int32_t> firstDims;
    };
    /** Loop @p loop's IV adds (trip - 1) * @p coeff to dim @p dim's span
     * of an external access (@p coeff is |coeff|). */
    struct SpanTerm {
        Operation* loop;
        int64_t coeff;
        uint32_t dim;
    };
    /** One external load/store under an estimated root. */
    struct RootSite {
        uint32_t termsBegin, termsEnd;    ///< Its RootPlan::terms.
        uint32_t extentsBegin, rank;      ///< Its RootPlan::extents.
        uint32_t reloadBegin, reloadEnd;  ///< Its RootPlan::loops.
    };
    /** Plan of one node or loop passed to externalCost or tileFramesOf. */
    struct RootPlan {
        uint64_t epoch = ~uint64_t{0};
        std::vector<RootSite> sites;
        std::vector<SpanTerm> terms;
        std::vector<int64_t> extents;  ///< Each site's memref shape.
        /** Per site, the enclosing loops its indices do not use (a tagged
         * tile loop refetches it); from ownLoopsBegin, the loops whose
         * nearest enclosing node is the root (its tile frames). */
        std::vector<Operation*> loops;
        uint32_t ownLoopsBegin = 0;
        unsigned bits = 8;  ///< Element width of the last external site.
    };

    /** @p loop's nest plan, rebuilt when the tree's epoch moved. */
    const NestPlan& nestPlan(class ForOp loop);
    /** @p root's plan, rebuilt when the tree's epoch moved. */
    const RootPlan& rootPlan(Operation* root);
    /** II of a pipelined nest from its plan and the current directives:
     * memory-port pressure per memref (partition banks x dual ports,
     * predicted for unpartitioned buffers), misalignment, recurrence. */
    int64_t pipelineIi(const NestPlan& plan);
    /** External (AXI) traffic of a root from its plan. */
    ExtCost externalCost(const RootPlan& plan);
    /** @} */

    /**
     * Directive fingerprint of the subtree rooted at @p root (see class
     * comment). Built from the dirty-bit cached Operation::subtreeHash —
     * after a DSE directive change only the mutated nest and its ancestor
     * chain are re-hashed; every clean subtree is an O(1) cached read.
     * Everything else it folds comes from the root's FingerprintPlan
     * (gathered once per structure epoch): one access hash per distinct
     * buffer behind the subtree's memref operands, read through the
     * per-buffer memo, and the directives of the enclosing loops. The
     * subtree hashing it does is added to cacheStats_'s hash counters,
     * as is the memo revalidation of the buffer-resource readers: these
     * are the estimator's only subtreeHash() calls.
     */
    uint64_t directiveFingerprint(Operation* root);

    /**
     * What a fingerprint folds besides the root's own subtree hash,
     * gathered once per structure epoch of the root's tree. Every input
     * is structural: resolveBuffer reads only operands, block arguments
     * and op kinds, and the enclosing chain only parent links, so the
     * epoch alone revalidates the plan (the structural-key rule). The
     * values folded from it (buffer directives, loop attributes) are
     * re-read on every fingerprint.
     */
    struct FingerprintPlan {
        uint64_t epoch = ~uint64_t{0};  ///< structureEpoch at collection.
        /** Distinct buffers behind the subtree's memref operands, already
         * resolved, in first-access (pre-order) order. */
        std::vector<Operation*> buffers;
        /** ForOps enclosing the root, innermost first (their unroll and
         * tile_loop directives feed the estimate from above). */
        std::vector<Operation*> enclosingLoops;
        /**
         * Subtree contains a nested ScheduleOp: its estimate embeds the
         * nested frame simulation, which depends on channel depths, so
         * the fingerprint must fold *full* buffer hashes (stages and
         * soft_fifo_depth included) instead of bufferAccessHash.
         */
        bool hasNestedSchedule = false;
    };

    /** @p root's plan, rebuilt when the tree's structure epoch moved. */
    const FingerprintPlan& fingerprintPlan(Operation* root);

    /**
     * Everything the estimator reads from one buffer op, memoized on the
     * buffer's dirty-bit subtree hash. The hash covers the buffer's
     * attributes (none of the ones read here is hash-exempt) and its
     * result type, the only inputs of both values, so an entry whose hash
     * still matches is current — even for a new buffer allocated at an
     * erased one's address.
     */
    struct BufferMemo {
        uint64_t subtreeHash = 0;  ///< Revalidation key.
        uint64_t accessHash = 0;   ///< bufferAccessHash of the buffer.
        Resources resources;       ///< bufferResources of the buffer.
    };

    /** @p buffer's memo entry, recomputed when its subtree hash moved.
     * Does not count its hashing; callers do. */
    const BufferMemo& bufferMemo(Operation* buffer);
    /** bufferResources through the memo, counting the revalidation in
     * cacheStats_. */
    Resources memoizedBufferResources(Operation* buffer);

    /** estimateNode body with the fingerprint already computed. */
    DesignQor estimateNodeWithFp(NodeOp node, uint64_t fp);
    /** Product of the trips of the node's own tile_loop-tagged loops
     * (those of nested sub-nodes belong to them), at least 1. */
    int64_t tileFramesOf(NodeOp node);

    /**
     * Per-schedule estimation skeleton, cached across DSE points. The
     * expensive structure — DataflowGraph topo order, channel lists, the
     * multi-producer sequential verdict and the SimGraph wiring — only
     * depends on the IR's *shape*, so it is revalidated against
     * Operation::structureEpoch() alone: the one graph input an
     * attribute carries, the per-node "effects", is a structural key
     * whose writes bump the epoch. Pure directive edits reuse the
     * skeleton: only nodes whose
     * fingerprint moved are re-estimated, channel capacities are
     * re-read, and the simulation re-runs only when a per-frame latency
     * or a capacity actually changed — otherwise the cached SimResult
     * is returned as-is.
     */
    struct ScheduleCacheEntry {
        uint64_t epoch = ~uint64_t{0};  ///< structureEpoch at (re)build.
        bool sequential = false;        ///< Multi-producer fallback.
        std::vector<Operation*> nodes;  ///< Topo (= program) order.
        std::vector<uint64_t> nodeFps;  ///< Last-seen node fingerprints.
        std::vector<DesignQor> nodeQors;
        std::vector<int64_t> tiles;     ///< tileFramesOf per node.
        std::vector<Operation*> bufferOps;  ///< Schedule-body buffers.
        std::vector<Value*> channelValues;  ///< Per sim channel.
        std::vector<Operation*> channelBuffers;  ///< Backing buffer/null.
        SimGraph sim;                   ///< Const topology skeleton.
        std::vector<int64_t> latencies;   ///< Per-frame latency overlay.
        std::vector<int64_t> capacities;  ///< Channel capacity overlay.
        SimResult simResult;            ///< simulate() of the overlays.
    };

    /** Rebuild @p entry's structural skeleton from the current IR. */
    void rebuildScheduleEntry(ScheduleOp schedule, ScheduleCacheEntry& entry);
    /** Frame capacity of @p channel backed by @p buffer_op (or null). */
    static int64_t channelCapacity(Value* channel, Operation* buffer_op);
    /**
     * Hash of the buffer directives the *node-level* models read
     * (partition/tile/vector/mem_kind...) and of its type. Excludes
     * "stages" and "soft_fifo_depth": those only set channel capacities,
     * which the schedule-level cache re-reads every pass — so a depth
     * edit re-simulates without invalidating any node estimate. Pure;
     * fingerprints read it through the per-buffer memo.
     */
    static uint64_t bufferAccessHash(Operation* buffer);

    /**
     * A memoized estimate plus the "ii" attributes the estimation wrote
     * (the emitter reads them as pipeline pragmas). A cache hit replays
     * the writes so the IR annotation matches the returned estimate even
     * when another directive point was estimated in between. The writes
     * include those of nested nodes a schedule skeleton reused without
     * re-estimating them: estimateSchedule logs their memo entries' writes
     * into every open entry.
     */
    struct MemoEntry {
        DesignQor qor;
        std::vector<std::pair<Operation*, int64_t>> iiWrites;
    };

    /** Set a loop's "ii" attr and log it into every open memo entry. */
    void recordIi(Operation* loop, int64_t ii);
    /** recordIi every write of @p entry: the annotation of a memo hit,
     * also logged into any enclosing in-flight entry. */
    void replayIi(const MemoEntry& entry);

    TargetDevice device_;
    std::unordered_map<uint64_t, MemoEntry> memo_;
    /** Per-root fingerprint plans (same root-aliasing caveat as memo_). */
    std::unordered_map<Operation*, FingerprintPlan> fpPlans_;
    /** Cold-model plans, keyed like fpPlans_. */
    std::unordered_map<Operation*, NestPlan> nestPlans_;
    std::unordered_map<Operation*, RootPlan> rootPlans_;
    /** Scratch of pipelineIi and externalCost, kept so that a miss with
     * its plans in place does not allocate. */
    struct MemrefState {
        double pressure = 0.0;
        bool predicted = false;   ///< Banks predicted from unrolls.
        bool misaligned = false;  ///< Unroll and banks not aligned.
    };
    std::vector<int64_t> banks_;
    std::vector<MemrefState> memrefStates_;
    std::vector<int64_t> spans_;
    /** Scratch of rootPlan: the root's own loops, gathered in the walk. */
    std::vector<Operation*> ownLoops_;
    /** Per-schedule skeletons (same root-aliasing caveat as memo_). */
    std::unordered_map<Operation*, ScheduleCacheEntry> scheduleCache_;
    /** Per-buffer memo, revalidated by subtree hash (see BufferMemo). */
    std::unordered_map<Operation*, BufferMemo> bufferMemo_;
    /** Stack of in-flight memo entries collecting ii writes. */
    std::vector<std::vector<std::pair<Operation*, int64_t>>*> iiRecorders_;
    QorCacheStats cacheStats_;
};

} // namespace hida

#endif // HIDA_ESTIMATOR_QOR_H
