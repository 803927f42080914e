/**
 * @file
 * Directive strip: undo what parallelize, array-partition and
 * pipeline-directives wrote, so a TrialEvaluator can run its next trial
 * on the same module instead of rebuilding it.
 */

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/transforms/passes.h"

namespace hida {

void
stripSuffixDirectives(ModuleOp module, SitePlan& sites)
{
    const SitePlan& plan = sites.refresh(module);
    // removeAttr leaves an op without the key untouched, so only the ops
    // a trial wrote are dirtied.
    for (Operation* op : plan.loops()) {
        op->removeAttr(ForOp::unrollId());
        op->removeAttr(ForOp::pipelineId());
        op->removeAttr(ForOp::iiId());
    }
    for (Operation* op : plan.nodes()) {
        op->removeAttr(NodeOp::parallelFactorId());
        op->removeAttr(NodeOp::parallelizedId());
    }
    for (Operation* op : plan.buffers()) {
        op->removeAttr(BufferOp::partitionFashionsId());
        op->removeAttr(BufferOp::partitionFactorsId());
        op->removeAttr(BufferOp::vectorFactorId());
    }
}

} // namespace hida
