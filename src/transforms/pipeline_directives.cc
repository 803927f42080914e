/**
 * @file
 * Pipeline directive insertion: mark every innermost loop for pipelining,
 * which is what Vitis HLS applies automatically and what both baselines
 * and HIDA rely on; the estimator then derives each loop's achieved II.
 */

#include "src/dialect/affine/affine_ops.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

class PipelineDirectivesPass : public Pass {
  public:
    explicit PipelineDirectivesPass(SitePlan* sites)
        : Pass("pipeline-directives"), sites_(sites) {}

    void
    runOnModule(ModuleOp module) override
    {
        SitePlan& plan = sites_ != nullptr ? *sites_ : own_;
        for (Operation* loop : plan.refresh(module).innermostLoops())
            ForOp(loop).setPipelined();
    }

  private:
    SitePlan* sites_;
    SitePlan own_;
};

} // namespace

std::unique_ptr<Pass>
createPipelineDirectivesPass(SitePlan* sites)
{
    return std::make_unique<PipelineDirectivesPass>(sites);
}

} // namespace hida
