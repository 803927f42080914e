#ifndef HIDA_DRIVER_DRIVER_H
#define HIDA_DRIVER_DRIVER_H

/**
 * @file
 * End-to-end compilation driver. Assembles the pass pipeline for one of
 * the three evaluated flows and returns the optimized module together with
 * its estimated QoR:
 *
 *  - Flow::kHida     — the full HIDA-OPT pipeline (Section 6).
 *  - Flow::kScaleHls — the ScaleHLS baseline [70]: dataflow legalization
 *    and per-node DSE, but no tiling/external memory, no multi-producer
 *    elimination, no balancing, no IA/CA coupling.
 *  - Flow::kVitis    — Vitis HLS alone: innermost-loop pipelining only.
 */

#include <functional>
#include <string>

#include "src/estimator/qor.h"
#include "src/ir/builtin_ops.h"
#include "src/transforms/passes.h"

namespace hida {

/** The three flows compared throughout the evaluation. */
enum class Flow { kHida, kScaleHls, kVitis };

/** Human-readable flow name. */
std::string flowName(Flow flow);

/** Default pipeline options for a flow. */
FlowOptions optionsFor(Flow flow);

/** Result of compiling + estimating one design. */
struct CompileResult {
    DesignQor qor;
    double compileSeconds = 0.0;
    /** Design fits the device budgets. */
    bool feasible = true;
    /** max(resource usage / budget) over LUT/DSP/BRAM. */
    double overload = 0.0;
    /**
     * Throughput (samples/s) degraded by the overload factor when the
     * design over-subscribes the device — the "flawed design" fallback the
     * paper observes for the non-IA+CA arms (Section 7.3).
     */
    double effectiveThroughput = 0.0;
};

/**
 * The module's top-level function (the last one, matching the lookup the
 * benches and DSE workers perform on prototype modules and their clones).
 * Null wrapper when the module has none.
 */
FuncOp topFunc(ModuleOp module);

/**
 * The compile pipeline, split at the parallel factor. A pass that has a
 * FlowOptions switch is added only when it is on.
 *
 * The prefix never reads maxParallelFactor: func-dataflow-construct,
 * task-fusion, lower-nn-to-affine, lower-to-structural,
 * multi-producer-elim, balance-data-paths, create-interfaces. It builds
 * every op the design has.
 */
void addPrefixPasses(PassManager& pm, const FlowOptions& options);

/**
 * The suffix: parallelize (the only pass that reads maxParallelFactor),
 * array-partition, pipeline-directives. It adds no ops; it writes only
 * the directive attributes stripSuffixDirectives() removes, so a module
 * can be stripped and run through it again in place.
 * @param search parallelize's search estimator and schedule plans (see
 *     ParallelizeSearch); null builds a cold one per run.
 */
void addSuffixPasses(PassManager& pm, const FlowOptions& options,
                     ParallelizeSearch* search = nullptr);

/**
 * Run the @p options pipeline on @p module in place — the prefix, then
 * the suffix, with the verifier after every pass — and estimate QoR on
 * @p device. The module must contain one top-level function and pass
 * the verifier: invalid input is a fatal input error, checked once
 * before the first pass.
 *
 * Thread-safe for concurrent calls on *disjoint* modules: all process-
 * wide state compile touches (identifier interner, type uniquer, op
 * registry, attribute pools) is internally synchronized, and every pass
 * and estimator it builds is private to the call. A sharded sweep may
 * therefore run one compile per worker (see src/dse/sweep.h).
 */
CompileResult compile(ModuleOp module, const FlowOptions& options,
                      const TargetDevice& device);

/** Convenience overload using the flow's default options. */
CompileResult compile(ModuleOp module, Flow flow, const TargetDevice& device);

/**
 * True when the ScaleHLS baseline can handle @p module. Mirrors the two
 * documented limitations from the paper's Section 7.2: irregular
 * convolution geometries (large kernels with stride > 1, as in ZFNet) and
 * high-resolution inputs (as in YOLO) are unsupported.
 */
bool scaleHlsSupports(ModuleOp module);

/**
 * Auto-tune the maximum parallel factor on @p device, mirroring the
 * paper's resource-guided factor generation (Section 6.5, step 3):
 * compiles with @p base_options at maxParallelFactor 1, 2, 4, ... up to
 * @p max_pf and returns the trial with the highest effectiveThroughput.
 * That ranking is overload-degraded, not filtered by feasibility, so an
 * infeasible design wins when its extra parallelism outruns its
 * degradation. A trial replaces the best only if it is more than 2%
 * better, and the search stops after three doublings in a row that are
 * not.
 *
 * Compiles once, tunes many: @p rebuild is called once and the prefix
 * runs once on its module. Each trial then strips the previous trial's
 * directives in place (stripSuffixDirectives; the root's subtree hash
 * must come back to its post-prefix value, or the call panics), runs
 * the suffix and scores the result. One ParallelizeSearch serves every
 * trial's parallelize and one estimator scores every trial, so both stay
 * warm: each schedule's plan is built once per call, and a search
 * candidate that an earlier trial estimated is a memo hit (the plan and
 * bookkeeping rules in passes.h). Every trial equals a fresh compile()
 * with the same options. The result's compileSeconds sums the prefix
 * once and every trial's suffix. A @p max_pf below 1, or a first
 * rebuilt module that fails the verifier, is a fatal input error.
 */
CompileResult
compileAutoTuned(const std::function<OwnedModule()>& rebuild,
                 const FlowOptions& base_options, const TargetDevice& device,
                 int64_t max_pf = 512);

} // namespace hida

#endif // HIDA_DRIVER_DRIVER_H
