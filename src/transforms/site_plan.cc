/**
 * @file
 * The site plan (passes.h): one pre-order walk lists where parallelize,
 * array-partition, pipeline-directives and the directive strip act, so
 * that trials on one prefixed module never walk it again.
 */

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/estimator/qor.h"
#include "src/transforms/passes.h"

namespace hida {

SitePlan&
SitePlan::refresh(ModuleOp module)
{
    Operation* root = module.op();
    const uint64_t epoch = root->structureEpoch();
    if (root != root_ || epoch != epoch_) {
        build(root);
        root_ = root;
        epoch_ = epoch;
        ++builds_;
    }
    return *this;
}

void
SitePlan::build(Operation* root)
{
    schedules_.clear();
    innermostLoops_.clear();
    partitions_.clear();
    loops_.clear();
    nodes_.clear();
    buffers_.clear();
    std::unordered_map<Operation*, size_t> slots;
    // Pre-order visits a loop's descendants right after the loop, so the
    // last loop visited holds no other loop exactly when the next loop
    // visited is not inside it.
    Operation* last_loop = nullptr;
    root->walk([&](Operation* op) {
        if (isa<ForOp>(op)) {
            if (last_loop != nullptr && !last_loop->isAncestorOf(op))
                innermostLoops_.push_back(last_loop);
            last_loop = op;
            loops_.push_back(op);
            return;
        }
        if (isa<NodeOp>(op)) {
            nodes_.push_back(op);
            return;
        }
        if (isa<BufferOp>(op)) {
            buffers_.push_back(op);
            return;
        }
        if (isa<ScheduleOp>(op)) {
            schedules_.push_back(op);
            return;
        }
        AffineAccess access = affineAccessOf(op);
        if (!access)
            return;
        BufferOp buffer = QorEstimator::resolveBuffer(access.memref);
        if (!buffer ||
            buffer.type().memorySpace() == MemorySpace::kExternal ||
            buffer.type().shape().empty())
            return;
        auto [slot, inserted] =
            slots.try_emplace(buffer.op(), partitions_.size());
        if (inserted)
            partitions_.push_back({buffer.op(), buffer.type().shape(), {}, {}});
        Partition& entry = partitions_[slot->second];
        forEachLoopTerm(access, [&](unsigned d, Operation* loop,
                                    int64_t coeff) {
            if (d >= entry.shape.size())
                return;
            AccessTerm term{d, loop, std::max<int64_t>(std::abs(coeff), 1)};
            if (std::find(entry.terms.begin(), entry.terms.end(), term) ==
                entry.terms.end())
                entry.terms.push_back(term);
        });
    }, WalkOrder::kPreOrder);
    if (last_loop != nullptr)
        innermostLoops_.push_back(last_loop);
}

} // namespace hida
