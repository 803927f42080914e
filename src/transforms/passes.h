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
 */
std::unique_ptr<Pass> createParallelizePass(FlowOptions options,
                                            ParallelizeSearch* search = nullptr);

/** Derive array partitions from unroll factors (Table 6). */
std::unique_ptr<Pass> createArrayPartitionPass(FlowOptions options);

/** Mark innermost loops for pipelining (Vitis-auto behaviour). */
std::unique_ptr<Pass> createPipelineDirectivesPass();

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
 * On a module those three passes ran on, this restores the IR they
 * started from, so compileAutoTuned can run its next trial in place. A
 * pass among them that starts writing another attribute must add it
 * here. The strip test in tests/transforms_test.cc catches any
 * omission; compileAutoTuned's hash check catches a hashed key left
 * behind.
 */
void stripSuffixDirectives(ModuleOp module);

} // namespace hida

#endif // HIDA_TRANSFORMS_PASSES_H
