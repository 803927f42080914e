/**
 * @file
 * Functional dataflow construction — Algorithm 1 of the paper.
 *
 * Walking the module bottom-up, every "dispatchable" region (a region owned
 * by an iterative op — function or loop — containing at least two iterative
 * operations) is wrapped in a hida.dispatch, and every iterative operation
 * inside the new dispatch is wrapped in its own hida.task. Because tasks
 * and dispatches are transparent, wrapping never needs to thread values
 * through arguments; escaping SSA results are yielded.
 */

#include "src/transforms/passes.h"

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/dialect/nn/nn_ops.h"

namespace hida {

namespace {

/** Iterative ops are the units that become dataflow tasks. */
bool
isIterativeOp(Operation* op)
{
    if (isa<ForOp>(op))
        return true;
    if (isNnOp(op) && !isa<NnWeightOp>(op))
        return true;
    return false;
}

/** A region is dispatchable when it holds two or more iterative ops. */
bool
isDispatchable(Block* block)
{
    int count = 0;
    for (Operation* op : *block)
        if (isIterativeOp(op))
            ++count;
    return count >= 2;
}

/**
 * Wrap @p ops (contiguous, in block order) into a new op of task/dispatch
 * kind created by @p make_wrapper. Values escaping the wrapped set are
 * yielded and uses outside the set are redirected to the wrapper results.
 */
Operation*
wrapOps(const std::vector<Operation*>& ops,
        const std::function<Operation*(OpBuilder&, const std::vector<Type>&)>&
            make_wrapper)
{
    // Find values defined by `ops` (or nested) that are used outside.
    auto inside = [&](Operation* user) {
        for (Operation* op : ops)
            if (op == user || op->isAncestorOf(user))
                return true;
        return false;
    };
    std::vector<Value*> escaping;
    for (Operation* op : ops) {
        for (Value* result : op->results()) {
            for (Operation* user : result->users()) {
                if (!inside(user)) {
                    escaping.push_back(result);
                    break;
                }
            }
        }
    }
    std::vector<Type> result_types;
    result_types.reserve(escaping.size());
    for (Value* value : escaping)
        result_types.push_back(value->type());

    OpBuilder builder;
    builder.setInsertionPointAfter(ops.back());
    Operation* wrapper = make_wrapper(builder, result_types);
    Block* body = wrapper->body();
    for (Operation* op : ops)
        op->moveToEnd(body);
    if (!escaping.empty()) {
        OpBuilder yield_builder(body);
        YieldOp::create(yield_builder, escaping);
        for (unsigned i = 0; i < escaping.size(); ++i) {
            escaping[i]->replaceUsesIf(
                wrapper->result(i), [&](Operation* user) {
                    return !wrapper->isAncestorOf(user);
                });
        }
    }
    return wrapper;
}

class FuncDataflowConstructPass : public Pass {
  public:
    FuncDataflowConstructPass() : Pass("func-dataflow-construct") {}

    void
    runOnModule(ModuleOp module) override
    {
        // Post-order: inner regions are dispatched before outer ones.
        std::vector<Operation*> with_regions;
        module.op()->walk([&](Operation* op) {
            if (op->numRegions() > 0 && op != module.op() &&
                (isa<FuncOp>(op) || isa<ForOp>(op)))
                with_regions.push_back(op);
        }, WalkOrder::kPostOrder);

        for (Operation* op : with_regions) {
            Block* block = op->body();
            if (!isDispatchable(block))
                continue;
            // Wrap every op of the region in the dispatch except weights
            // and constants, which stay in the transparent context.
            std::vector<Operation*> to_wrap;
            for (Operation* child : *block)
                if (isIterativeOp(child))
                    to_wrap.push_back(child);
            if (to_wrap.size() < 2)
                continue;
            Operation* dispatch =
                wrapOps(to_wrap, [](OpBuilder& b, const std::vector<Type>& t) {
                    return DispatchOp::create(b, t).op();
                });
            // Wrap each iterative op in its own task.
            for (Operation* child : dispatch->body()->ops()) {
                if (isIterativeOp(child))
                    wrapOps({child},
                            [](OpBuilder& b, const std::vector<Type>& t) {
                                return TaskOp::create(b, t).op();
                            });
            }
        }
    }
};

} // namespace

std::unique_ptr<Pass>
createFuncDataflowConstructPass()
{
    return std::make_unique<FuncDataflowConstructPass>();
}

} // namespace hida
