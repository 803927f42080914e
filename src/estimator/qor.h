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
        tileMemo_.clear();
        fpPlans_.clear();
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

    ExtCost externalCost(Operation* root);
    /** Apply the ExtCost bandwidth bound + adapter resources to a cost. */
    void applyExternalCost(const ExtCost& ext, int64_t& latency,
                           Resources& res);

    BlockCost costOfBlock(Block* block);
    BlockCost costOfLoopNest(class ForOp loop);
    /** II of a pipelined innermost body given enclosing unrolled loops. */
    int64_t initiationInterval(Block* body,
                               const std::vector<class ForOp>& enclosing);
    /** Resources of one buffer: pure math over its type and attributes. */
    static Resources bufferResources(BufferOp buffer);

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
    /** Memoized tile-frame count of a node (same fingerprint key). */
    int64_t tileFramesOf(NodeOp node, uint64_t fp);

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
    std::unordered_map<uint64_t, int64_t> tileMemo_;
    /** Per-root fingerprint plans (same root-aliasing caveat as memo_). */
    std::unordered_map<Operation*, FingerprintPlan> fpPlans_;
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
