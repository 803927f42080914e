/**
 * @file
 * Directive strip: undo what parallelize, array-partition and
 * pipeline-directives wrote, so compileAutoTuned can run its next
 * parallel-factor trial on the same module instead of rebuilding it.
 */

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/transforms/passes.h"

namespace hida {

void
stripSuffixDirectives(ModuleOp module)
{
    // removeAttr leaves an op without the key untouched, so only the ops
    // a trial wrote are dirtied.
    module.op()->walk([](Operation* op) {
        if (isa<ForOp>(op)) {
            op->removeAttr(ForOp::unrollId());
            op->removeAttr(ForOp::pipelineId());
            op->removeAttr(ForOp::iiId());
        } else if (isa<NodeOp>(op)) {
            op->removeAttr(NodeOp::parallelFactorId());
            op->removeAttr(NodeOp::parallelizedId());
        } else if (isa<BufferOp>(op)) {
            op->removeAttr(BufferOp::partitionFashionsId());
            op->removeAttr(BufferOp::partitionFactorsId());
            op->removeAttr(BufferOp::vectorFactorId());
        }
    });
}

} // namespace hida
