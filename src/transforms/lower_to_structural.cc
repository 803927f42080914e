/**
 * @file
 * Functional -> Structural dataflow lowering (Section 6.3 / Figure 6).
 *
 * Three procedures, applied innermost-first so hierarchies nest cleanly:
 *  (1) buffer generation: memref.alloc / memref.weight become hida.buffer
 *      with default stages (ping-pong for on-chip activations);
 *  (2) dispatch -> schedule mapping;
 *  (3) task -> node mapping, materializing live-ins as explicit isolated
 *      arguments annotated with their analyzed memory effects.
 */

#include "src/analysis/memory_effects.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/dialect/memref/memref_ops.h"
#include "src/support/diagnostics.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

class LowerToStructuralPass : public Pass {
  public:
    explicit LowerToStructuralPass(FlowOptions options)
        : Pass("lower-to-structural"), options_(options) {}

    void
    runOnModule(ModuleOp module) override
    {
        convertBuffers(module);

        // Innermost dispatches first so nested schedules exist before the
        // enclosing task is isolated.
        std::vector<Operation*> dispatches;
        module.op()->walk([&](Operation* op) {
            if (isa<DispatchOp>(op))
                dispatches.push_back(op);
        }, WalkOrder::kPostOrder);

        for (Operation* dispatch : dispatches)
            convertDispatch(DispatchOp(dispatch));
    }

  private:
    /** Procedure (1): every allocation becomes a hida.buffer. */
    void
    convertBuffers(ModuleOp module)
    {
        std::vector<Operation*> allocs;
        module.op()->walk([&](Operation* op) {
            if (isa<AllocOp>(op) || isa<WeightOp>(op))
                allocs.push_back(op);
        });
        for (Operation* alloc : allocs) {
            OpBuilder builder;
            builder.setInsertionPointBefore(alloc);
            Type type = alloc->result(0)->type();
            bool is_weight = isa<WeightOp>(alloc);
            // Activation buffers inherently carry ping-pong semantics
            // (Section 5.2); external ones become double-buffered DRAM
            // regions (the depth-2 degenerate case of a soft FIFO).
            int64_t stages = is_weight ? 1 : 2;
            BufferOp buffer = BufferOp::create(
                builder, type, stages, alloc->result(0)->nameHint());
            if (is_weight) {
                buffer.op()->setIntAttr(WeightOp::seedId(),
                                        WeightOp(alloc).seed());
                buffer.op()->setAttr(BufferOp::constantId(), Attribute::unit());
            }
            alloc->result(0)->replaceAllUsesWith(buffer.op()->result(0));
            alloc->erase();
        }
    }

    /** Procedures (2)+(3) for one dispatch. */
    void
    convertDispatch(DispatchOp dispatch)
    {
        HIDA_ASSERT(dispatch.op()->numResults() == 0,
                    "dispatch results must be bufferized before structural "
                    "lowering");
        // Convert child tasks to nodes first.
        for (TaskOp task : dispatch.tasks())
            convertTask(task);

        // Now isolate the dispatch itself as a schedule.
        std::vector<Value*> live_ins = liveInValues(dispatch.op());
        OpBuilder builder;
        builder.setInsertionPointBefore(dispatch.op());
        ScheduleOp schedule = ScheduleOp::create(builder, live_ins);
        for (Operation* op : dispatch.body()->ops())
            op->moveToEnd(schedule.body());
        for (unsigned i = 0; i < live_ins.size(); ++i) {
            live_ins[i]->replaceUsesIf(
                schedule.body()->argument(i), [&](Operation* user) {
                    return schedule.op()->isAncestorOf(user) &&
                           user != schedule.op();
                });
        }
        dispatch.op()->erase();
    }

    void
    convertTask(TaskOp task)
    {
        HIDA_ASSERT(task.op()->numResults() == 0,
                    "task results must be bufferized before structural "
                    "lowering");
        std::vector<Value*> live_ins = liveInValues(task.op());
        auto accesses = collectAccesses(task.op());
        std::vector<MemoryEffect> effects;
        effects.reserve(live_ins.size());
        for (Value* value : live_ins) {
            if (value->type().isMemRef() || value->type().isStream()) {
                auto it = accesses.find(value);
                effects.push_back(it != accesses.end() ? it->second.effect()
                                                       : MemoryEffect::kNone);
            } else {
                effects.push_back(MemoryEffect::kNone);
            }
        }

        OpBuilder builder;
        builder.setInsertionPointBefore(task.op());
        // Per-pass (i.e. per-module) numbering: a process-global counter
        // would make node labels depend on how many modules other threads
        // compiled first, breaking run-to-run determinism of a sharded
        // sweep that compiles modules concurrently.
        NodeOp node = NodeOp::create(builder, live_ins, effects,
                                     "node" + std::to_string(nodeCounter_++));
        // Preserve task annotations (role/layer tags from the lowering).
        for (const auto& [key, value] : task.op()->attrs())
            node.op()->setAttr(key, value);
        for (Operation* op : task.body()->ops())
            op->moveToEnd(node.body());
        for (unsigned i = 0; i < live_ins.size(); ++i) {
            live_ins[i]->replaceUsesIf(
                node.innerArg(i), [&](Operation* user) {
                    return node.op()->isAncestorOf(user) && user != node.op();
                });
        }
        task.op()->erase();
    }

    FlowOptions options_;
    int nodeCounter_ = 0;
};

} // namespace

std::unique_ptr<Pass>
createLowerToStructuralPass(FlowOptions options)
{
    return std::make_unique<LowerToStructuralPass>(options);
}

} // namespace hida
