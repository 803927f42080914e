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
    static const Identifier parallel_factor =
        Identifier::get("parallel_factor");
    static const Identifier parallelized = Identifier::get("parallelized");
    // removeAttr leaves an op without the key untouched, so only the ops
    // a trial wrote are dirtied.
    module.op()->walk([](Operation* op) {
        if (isa<ForOp>(op)) {
            op->removeAttr(ForOp::unrollId());
            op->removeAttr(ForOp::pipelineId());
            op->removeAttr(ForOp::iiId());
        } else if (isa<NodeOp>(op)) {
            op->removeAttr(parallel_factor);
            op->removeAttr(parallelized);
        } else if (isa<BufferOp>(op)) {
            op->removeAttr(BufferOp::partitionFashionsId());
            op->removeAttr(BufferOp::partitionFactorsId());
            op->removeAttr(BufferOp::vectorFactorId());
        }
    });
}

} // namespace hida
