#include "src/driver/driver.h"

#include <algorithm>

#include "src/dialect/nn/nn_ops.h"
#include "src/ir/registry.h"
#include "src/ir/verifier.h"
#include "src/support/diagnostics.h"

namespace hida {

std::string
flowName(Flow flow)
{
    switch (flow) {
      case Flow::kHida:
        return "HIDA";
      case Flow::kScaleHls:
        return "ScaleHLS";
      case Flow::kVitis:
        return "Vitis";
    }
    return "?";
}

FlowOptions
optionsFor(Flow flow)
{
    FlowOptions options;
    switch (flow) {
      case Flow::kHida:
        break;  // everything on
      case Flow::kScaleHls:
        options.enableTiling = false;
        options.enableMultiProducerElim = false;
        options.enableBalancing = false;
        options.uniformParallelization = true;
        options.strategy = {false, false};
        break;
      case Flow::kVitis:
        options.enableDataflow = false;
        options.enableTaskFusion = false;
        options.enableTiling = false;
        options.enableMultiProducerElim = false;
        options.enableBalancing = false;
        options.enableParallelization = false;
        break;
    }
    return options;
}

bool
scaleHlsSupports(ModuleOp module)
{
    bool supported = true;
    module.op()->walk([&](Operation* op) {
        if (auto conv = dynCast<Conv2dOp>(op)) {
            int64_t kernel = conv.weight()->type().shape().back();
            int64_t stride = conv.stride();
            int64_t pad = conv.pad();
            // Irregular geometry: a large strided kernel without padding
            // yields odd, non-power-of-two feature maps (ZFNet's 7x7/2 ->
            // 109); ResNet's padded 7x7/2 stays regular.
            if (kernel >= 5 && stride > 1 && pad == 0)
                supported = false;
        }
        if (auto func = dynCast<FuncOp>(op)) {
            for (unsigned i = 0; i < func.numArguments(); ++i) {
                const auto& shape = func.argument(i)->type().shape();
                if (shape.size() == 4 && shape[2] > 300)
                    supported = false;  // high-resolution input (YOLO)
            }
        }
    });
    return supported;
}

FuncOp
topFunc(ModuleOp module)
{
    FuncOp func(nullptr);
    for (Operation* op : *module.body())
        if (auto f = dynCast<FuncOp>(op))
            func = f;
    return func;
}

void
addPrefixPasses(PassManager& pm, const FlowOptions& options)
{
    if (options.enableDataflow)
        pm.addPass(createFuncDataflowConstructPass());
    if (options.enableTaskFusion)
        pm.addPass(createTaskFusionPass(options));
    pm.addPass(createLowerNnToAffinePass(options));
    if (options.enableDataflow)
        pm.addPass(createLowerToStructuralPass(options));
    if (options.enableMultiProducerElim)
        pm.addPass(createMultiProducerElimPass());
    if (options.enableBalancing)
        pm.addPass(createBalanceDataPathsPass(options));
    // Adds the port, bundle and pack ops and reads no directive, so it
    // runs here: the suffix then only writes attributes.
    pm.addPass(createCreateInterfacesPass());
}

void
addSuffixPasses(PassManager& pm, const FlowOptions& options,
                ParallelizeSearch* search, SitePlan* sites)
{
    if (options.enableParallelization)
        pm.addPass(createParallelizePass(options, search, sites));
    pm.addPass(createArrayPartitionPass(options, sites));
    pm.addPass(createPipelineDirectivesPass(sites));
}

namespace {

/**
 * Reject invalid input before the first pass: a module that fails the
 * verifier is the input's fault, so it exits through the fatal
 * (user-error) path instead of a panic after the first pass. Plain
 * verify(), not verifyToDiagnostic(): compile() runs inside sweep
 * points, and an injected verifier fault there must stay out of the
 * fatal path.
 */
void
verifyInput(ModuleOp module)
{
    if (std::optional<std::string> error = verify(module.op()))
        HIDA_FATAL("input module failed verification: ", *error);
}

/** Estimate @p module's top function on the estimator's device: QoR,
 * feasibility, overload and degraded throughput. */
CompileResult
scoreDesign(ModuleOp module, QorEstimator& estimator)
{
    // A function-less module is bad *input*, not a compiler bug: exit
    // through the fatal (user-error) path, never SIGABRT.
    FuncOp func = topFunc(module);
    if (!func)
        HIDA_FATAL("module has no function to estimate");

    const TargetDevice& device = estimator.device();
    CompileResult result;
    result.qor = estimator.estimateFunc(func);
    result.feasible = result.qor.res.fits(device);
    double overload = 0.0;
    if (device.dsp > 0)
        overload = std::max(overload,
                            static_cast<double>(result.qor.res.dsp) /
                                device.dsp);
    if (device.bram18k > 0)
        overload = std::max(overload,
                            static_cast<double>(result.qor.res.bram18k) /
                                device.bram18k);
    if (device.lut > 0)
        overload = std::max(overload,
                            static_cast<double>(result.qor.res.lut) /
                                device.lut);
    result.overload = overload;
    result.effectiveThroughput = result.qor.throughput(device);
    if (overload > 1.0)
        result.effectiveThroughput /= overload;
    return result;
}

/** True when @p a and @p b agree on every FlowOptions field the prefix
 * reads: the pass switches of addPrefixPasses, and the tiling of
 * lower-nn-to-affine. */
bool
samePrefix(const FlowOptions& a, const FlowOptions& b)
{
    return a.enableDataflow == b.enableDataflow &&
           a.enableTaskFusion == b.enableTaskFusion &&
           a.enableTiling == b.enableTiling &&
           a.enableMultiProducerElim == b.enableMultiProducerElim &&
           a.enableBalancing == b.enableBalancing &&
           a.tileSize == b.tileSize;
}

} // namespace

TrialEvaluator::TrialEvaluator(OwnedModule module, const FlowOptions& options,
                               const TargetDevice& device)
    : TrialEvaluator(module.get(), options, device)
{
    owned_ = std::move(module);
}

TrialEvaluator::TrialEvaluator(ModuleOp module, const FlowOptions& options,
                               const TargetDevice& device)
    : module_(module), prefixOptions_(options), scorer_(device)
{
    registerAllDialects();
    verifyInput(module);
    PassManager prefix;
    addPrefixPasses(prefix, options);
    prefix.run(module);
    prefixSeconds_ = prefix.totalSeconds();
    prefixHash_ = module.op()->subtreeHash();
}

CompileResult
TrialEvaluator::run(const FlowOptions& options)
{
    HIDA_ASSERT(samePrefix(options, prefixOptions_),
                "a trial's options differ from the prefix's on a field "
                "the prefix reads");
    // Trials only write directive attributes through setAttr/removeAttr,
    // so the structure epoch never moves, and the site plan and the
    // memos and plans of the search and of the scorer stay valid from
    // trial to trial, as in a DSE sweep.
    if (trials_ > 0) {
        stripSuffixDirectives(module_, sites_);
        HIDA_ASSERT(module_.op()->subtreeHash() == prefixHash_,
                    "the strip before trial ", trials_ + 1,
                    " left a suffix directive behind");
    }
    PassManager suffix;
    addSuffixPasses(suffix, options, &search_, &sites_);
    suffix.run(module_);
    ++trials_;
    CompileResult result = scoreDesign(module_, scorer_);
    result.compileSeconds = suffix.totalSeconds();
    return result;
}

CompileResult
compile(ModuleOp module, const FlowOptions& options, const TargetDevice& device)
{
    TrialEvaluator evaluator(module, options, device);
    CompileResult result = evaluator.run(options);
    result.compileSeconds += evaluator.prefixSeconds();
    return result;
}

CompileResult
compile(ModuleOp module, Flow flow, const TargetDevice& device)
{
    return compile(module, optionsFor(flow), device);
}

CompileResult
tuneParallelFactor(TrialEvaluator& evaluator, const FlowOptions& base_options,
                   int64_t max_pf)
{
    if (max_pf < 1)
        HIDA_FATAL("the parallel factor search needs max_pf of at least 1, "
                   "got ", max_pf);
    double total_compile = evaluator.prefixSeconds();
    CompileResult best;
    bool have_best = false;
    int regressions = 0;
    for (int64_t pf = 1;; pf *= 2) {
        FlowOptions options = base_options;
        options.maxParallelFactor = pf;
        CompileResult result = evaluator.run(options);
        total_compile += result.compileSeconds;
        // Rank by overload-degraded throughput: over-subscribed designs
        // only win if the extra parallelism outruns the degradation.
        if (!have_best ||
            result.effectiveThroughput > best.effectiveThroughput * 1.02) {
            best = result;
            have_best = true;
            regressions = 0;
        } else if (++regressions >= 3) {
            break;  // saturated: three factor doublings without progress
        }
        if (pf > max_pf / 2)
            break;  // the next doubling would pass max_pf
    }
    best.compileSeconds = total_compile;
    return best;
}

CompileResult
compileAutoTuned(const std::function<OwnedModule()>& rebuild,
                 const FlowOptions& base_options, const TargetDevice& device,
                 int64_t max_pf)
{
    registerAllDialects();
    TrialEvaluator evaluator(rebuild(), base_options, device);
    return tuneParallelFactor(evaluator, base_options, max_pf);
}

} // namespace hida
