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
 * @param sites the site plan all three passes read (see SitePlan); null
 *     gives each pass its own.
 */
void addSuffixPasses(PassManager& pm, const FlowOptions& options,
                     ParallelizeSearch* search = nullptr,
                     SitePlan* sites = nullptr);

/**
 * One prefixed module and what stays valid from one suffix trial on it to
 * the next: the module and its post-prefix subtree hash, parallelize's
 * search (ParallelizeSearch), the site plan (SitePlan) and the estimator
 * that scores each trial. compile() is one trial, compileAutoTuned() a
 * factor search over trials, and Figures 10 and 11 keep one evaluator per
 * prefix.
 *
 * A trial writes only directive attributes, so the structure epoch never
 * moves: the site plan is built by the first trial's first suffix pass,
 * and no later trial walks the module. Each schedule's search plan is
 * built once too, and a search candidate an earlier trial estimated is a
 * memo hit (the plan and bookkeeping rules in passes.h). Every trial
 * equals a fresh compile() with the same options.
 *
 * Per-thread, like the module it runs on.
 */
class TrialEvaluator {
  public:
    /**
     * Verify @p module and run the prefix of @p options on it in place.
     * A module that fails the verifier is a fatal input error, checked
     * before the first pass.
     */
    TrialEvaluator(OwnedModule module, const FlowOptions& options,
                   const TargetDevice& device);
    /** The same on a module the caller owns; it must outlive the
     * evaluator. */
    TrialEvaluator(ModuleOp module, const FlowOptions& options,
                   const TargetDevice& device);

    /**
     * One trial: strip the previous trial's directives (the root's
     * subtree hash must come back to its post-prefix value, or this
     * panics), run the suffix of @p options with the verifier after
     * every pass, and score the top function on the device. @p options
     * must agree with the constructor's on every field the prefix reads.
     * The result's compileSeconds is the suffix's.
     */
    CompileResult run(const FlowOptions& options);

    ModuleOp module() const { return module_; }
    /** Wall-clock seconds the prefix passes took. */
    double prefixSeconds() const { return prefixSeconds_; }
    /** Trials run so far. */
    uint64_t trials() const { return trials_; }
    const ParallelizeSearch& search() const { return search_; }
    const SitePlan& sites() const { return sites_; }

  private:
    OwnedModule owned_;
    ModuleOp module_;
    FlowOptions prefixOptions_;
    double prefixSeconds_ = 0.0;
    uint64_t prefixHash_ = 0;
    uint64_t trials_ = 0;
    ParallelizeSearch search_;
    SitePlan sites_;
    QorEstimator scorer_;
};

/**
 * Run @p options' pipeline on @p module in place — the prefix, then the
 * suffix, with the verifier after every pass — and estimate QoR on
 * @p device: one TrialEvaluator trial. The module must contain one
 * top-level function and pass the verifier: invalid input is a fatal
 * input error, checked once before the first pass.
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
 * Tune the maximum parallel factor on @p evaluator's module, mirroring
 * the paper's resource-guided factor generation (Section 6.5, step 3):
 * trials with @p base_options at maxParallelFactor 1, 2, 4, ... up to
 * @p max_pf, returning the one with the highest effectiveThroughput.
 * That ranking is overload-degraded, not filtered by feasibility, so an
 * infeasible design wins when its extra parallelism outruns its
 * degradation. A trial replaces the best only if it is more than 2%
 * better, and the search stops after three doublings in a row that are
 * not. The result's compileSeconds sums the prefix once and every
 * trial's suffix. A @p max_pf below 1 is a fatal input error.
 */
CompileResult tuneParallelFactor(TrialEvaluator& evaluator,
                                 const FlowOptions& base_options,
                                 int64_t max_pf = 512);

/**
 * Compile once, tune many: call @p rebuild once, run the prefix of
 * @p base_options on its module in a TrialEvaluator, and tune the
 * parallel factor there (tuneParallelFactor). A first rebuilt module
 * that fails the verifier is a fatal input error.
 */
CompileResult
compileAutoTuned(const std::function<OwnedModule()>& rebuild,
                 const FlowOptions& base_options, const TargetDevice& device,
                 int64_t max_pf = 512);

} // namespace hida

#endif // HIDA_DRIVER_DRIVER_H
