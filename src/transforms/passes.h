#ifndef HIDA_TRANSFORMS_PASSES_H
#define HIDA_TRANSFORMS_PASSES_H

/**
 * @file
 * HIDA-OPT pass declarations (Section 6 of the paper) plus the option
 * struct shared by all flows. Passes are constructed with the options and
 * added to a PassManager by the driver.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ir/pass.h"

namespace hida {

struct QorCacheStats;

/** Parallelization strategy for the Fig. 11 ablation. */
struct ParallelStrategy {
    bool intensityAware = true;   ///< IA: factors proportional to intensity.
    bool connectionAware = true;  ///< CA: align factors across connections.
};

/** Knobs controlling the optimization pipeline (one per HIDA feature). */
struct FlowOptions {
    /** Wrap computation graphs into dispatch/task (Algorithm 1). */
    bool enableDataflow = true;
    /** Pattern-driven + rebalancing task fusion (Algorithm 2). */
    bool enableTaskFusion = true;
    /** Tile large layers through external memory (HIDA); when false all
     * intermediate results stay on-chip (the ScaleHLS behaviour, Fig. 9). */
    bool enableTiling = true;
    /** Eliminate multi-producer buffers (Algorithm 3). */
    bool enableMultiProducerElim = true;
    /** Balance data paths with duplicated buffers / soft FIFOs (6.4.2). */
    bool enableBalancing = true;
    /** IA/CA toggles (Fig. 11 ablation). */
    ParallelStrategy strategy;
    /** Uniform factors for every node (ScaleHLS-style parallelization). */
    bool uniformParallelization = false;
    /** Maximum parallel factor for the critical node (Section 6.5 step 3). */
    int64_t maxParallelFactor = 64;
    /** Tile size used for tiled lowering (Fig. 10 ablation sweeps this). */
    int64_t tileSize = 32;
    /** Apply any parallelization at all (Vitis baseline: pipeline only). */
    bool enableParallelization = true;
};

/** Algorithm 1: wrap dispatchable regions into dispatch/task ops. */
std::unique_ptr<Pass> createFuncDataflowConstructPass();

/** Algorithm 2: pattern-driven task fusion + critical-path rebalancing. */
std::unique_ptr<Pass> createTaskFusionPass(FlowOptions options);

/** Bufferize tensors and lower nn ops to (optionally tiled) affine nests. */
std::unique_ptr<Pass> createLowerNnToAffinePass(FlowOptions options);

/** Section 6.3: lower Functional dataflow to Structural dataflow. */
std::unique_ptr<Pass> createLowerToStructuralPass(FlowOptions options);

/** Algorithm 3: multi-producer elimination. */
std::unique_ptr<Pass> createMultiProducerElimPass();

/** Section 6.4.2: balance data paths (buffer stages / soft FIFO + tokens). */
std::unique_ptr<Pass> createBalanceDataPathsPass(FlowOptions options);

/**
 * Where the suffix passes and the strip act on one module, found by one
 * pre-order walk:
 *  - the schedules, in pre-order (parallelize's top-down visit);
 *  - the innermost loops (pipeline-directives);
 *  - each on-chip buffer with an affine access, with its shape and the
 *    (dim, loop, stride) terms of its indices (array-partition);
 *  - every affine.for, hida.node and hida.buffer (the strip).
 *
 * Structural-key rule: the plan reads only structure and registered
 * structural keys (op kinds, operands, block arguments, parent links,
 * types, and affine.apply's "coeffs" and "offset"), so it is kept while
 * the module's root and structure epoch match the ones it was built for.
 * Directive writes never rebuild it, so a run of trials on one prefixed
 * module builds it once. A pass given no plan keeps its own, through the
 * same code.
 */
class SitePlan {
  public:
    /** Loop @p loop indexes dimension @p dim with stride @p scale. */
    struct AccessTerm {
        size_t dim;
        Operation* loop;
        int64_t scale;  ///< max(|coeff|, 1) of the loop's IV.

        bool operator==(const AccessTerm&) const = default;
    };

    /** An on-chip buffer array-partition derives directives for. */
    struct Partition {
        Operation* buffer;
        std::vector<int64_t> shape;
        std::vector<AccessTerm> terms;  ///< Deduplicated, first-seen order.
        /** The distinct integer arrays array-partition has written on the
         * buffer, reused so that a rewrite to one of them allocates
         * nothing. */
        std::vector<Attribute> written;
    };

    /** This plan, rebuilt first unless it was built for @p module's root
     * at its current structure epoch. */
    SitePlan& refresh(ModuleOp module);

    /** Walks that built the plan since construction. */
    uint64_t builds() const { return builds_; }

    const std::vector<Operation*>& schedules() const { return schedules_; }
    const std::vector<Operation*>& innermostLoops() const
    {
        return innermostLoops_;
    }
    std::vector<Partition>& partitions() { return partitions_; }
    const std::vector<Operation*>& loops() const { return loops_; }
    const std::vector<Operation*>& nodes() const { return nodes_; }
    const std::vector<Operation*>& buffers() const { return buffers_; }

  private:
    void build(Operation* root);

    Operation* root_ = nullptr;
    uint64_t epoch_ = 0;
    uint64_t builds_ = 0;
    std::vector<Operation*> schedules_;
    std::vector<Operation*> innermostLoops_;
    std::vector<Partition> partitions_;
    std::vector<Operation*> loops_;
    std::vector<Operation*> nodes_;
    std::vector<Operation*> buffers_;
};

/**
 * What parallelize keeps from one run to the next on one module: the
 * estimator its per-node search scores candidates with, and one plan per
 * schedule. A plan holds everything parallelize derives under a schedule
 * before it first writes there: the nodes in visit order (connection
 * count, then intensity), each node's intensity, its band and secondary
 * nests with the divisors of their trip counts, and the schedule's
 * connections (Table 4).
 *
 * Plan rule: a plan reads only IR under its schedule, and is reused while
 * the structure epoch and the schedule's subtree hash at visit time both
 * match the values it was built under. Parallelize writes nothing under a
 * schedule before it visits it, so once stripSuffixDirectives() has
 * undone a run, the next run reuses every plan.
 *
 * Bookkeeping rule: parallelize writes no hashed key on a node before
 * that node's search ends; "parallel_factor" and "parallelized" land
 * together after it. A candidate's memo key therefore does not depend on
 * the run's maxParallelFactor, and later runs hit the estimates of
 * earlier ones.
 */
class ParallelizeSearch {
  public:
    ParallelizeSearch();
    ~ParallelizeSearch();
    ParallelizeSearch(const ParallelizeSearch&) = delete;
    ParallelizeSearch& operator=(const ParallelizeSearch&) = delete;

    /** The search estimator's counters (QorEstimator::cacheStats). */
    QorCacheStats cacheStats() const;
    /** Plans built since construction, over all schedules. */
    uint64_t planBuilds() const;
    /** Plans built since construction for @p schedule. */
    uint64_t planBuilds(const Operation* schedule) const;

    struct State;

  private:
    friend class ParallelizePass;
    std::unique_ptr<State> state_;
};

/**
 * Section 6.5 / Algorithm 4: IA+CA dataflow parallelization.
 * @param search the search estimator and schedule plans to run on; one
 *     may serve several runs on the same module (compileAutoTuned's
 *     trials) and stays warm across them. Null builds a cold one per run.
 * @param sites the site plan to take the schedules from; null keeps the
 *     pass's own.
 */
std::unique_ptr<Pass> createParallelizePass(FlowOptions options,
                                            ParallelizeSearch* search = nullptr,
                                            SitePlan* sites = nullptr);

/** Derive array partitions from unroll factors (Table 6), on the buffers
 * of @p sites (null keeps the pass's own plan). */
std::unique_ptr<Pass> createArrayPartitionPass(FlowOptions options,
                                               SitePlan* sites = nullptr);

/** Mark innermost loops for pipelining (Vitis-auto behaviour), those of
 * @p sites (null keeps the pass's own plan). */
std::unique_ptr<Pass> createPipelineDirectivesPass(SitePlan* sites = nullptr);

/** Create port/bundle/pack module interfaces (Table 3, "Module Interface"). */
std::unique_ptr<Pass> createCreateInterfacesPass();

/**
 * Remove every attribute the parallelize, array-partition and
 * pipeline-directives passes write, and the "ii" the estimator writes
 * back while scoring them:
 *  - affine.for: "unroll", "pipeline", "ii";
 *  - hida.node: "parallel_factor", "parallelized";
 *  - hida.buffer: "partition_fashions", "partition_factors",
 *    "vector_factor".
 * It visits the ops @p sites lists. On a module those three passes ran
 * on, this restores the IR they started from, so a TrialEvaluator can
 * run its next trial in place.
 *
 * Strip rule: a suffix pass that starts writing another attribute must
 * add it here, and one that starts writing on another op kind must also
 * add that kind to the site plan's strip lists. The strip test in
 * tests/transforms_test.cc catches any omission; the evaluator's hash
 * check catches a hashed key left behind.
 */
void stripSuffixDirectives(ModuleOp module, SitePlan& sites);

} // namespace hida

#endif // HIDA_TRANSFORMS_PASSES_H
