/**
 * @file
 * Functional dataflow task fusion — Algorithm 2 of the paper.
 *
 * Phase 1 (lines 2-6): a pattern-driven worklist fuses adjacent tasks for a
 * set of profitable patterns (elementwise consumers, pooling after
 * convolution).
 * Phase 2 (lines 7-9): the two least-critical adjacent tasks are fused
 * repeatedly to rebalance workloads, until fusing would create a new
 * critical task.
 * Phase 3 (line 10): the dispatch hierarchy is simplified (directly nested
 * single tasks are flattened).
 */

#include <algorithm>
#include <cstdint>
#include <deque>

#include "src/dialect/hida/hida_ops.h"
#include "src/dialect/nn/nn_ops.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

/** The single nn compute op of a task, or nullptr if not exactly one. */
Operation*
singleNnOp(TaskOp task)
{
    Operation* found = nullptr;
    for (Operation* op : *task.body()) {
        if (isNnOp(op) && !isa<NnWeightOp>(op)) {
            if (found != nullptr)
                return nullptr;
            found = op;
        }
    }
    return found;
}

/** Tensor-level intensity of a task: summed nn op intensity. */
int64_t
taskIntensity(TaskOp task)
{
    int64_t total = 0;
    task.op()->walk([&](Operation* op) {
        if (isNnOp(op))
            total += nnOpIntensity(op);
    });
    return total;
}

/** The task (sibling of @p task) consuming one of @p task's results. */
TaskOp
consumerTask(TaskOp task)
{
    for (Value* result : task.op()->results()) {
        for (Operation* user : result->users()) {
            for (Operation* p = user; p != nullptr; p = p->parentOp()) {
                if (auto t = dynCast<TaskOp>(p)) {
                    if (t.op()->block() == task.op()->block())
                        return t;
                }
            }
        }
    }
    return TaskOp(nullptr);
}

/**
 * Fusion legality: the fused task sits at the later task's position, so
 * every external user of either task's results must come after the later
 * task (otherwise the rewired use would break dominance).
 */
bool
canFuse(TaskOp t0, TaskOp t1)
{
    if (t1.op()->isBeforeInBlock(t0.op()))
        std::swap(t0, t1);
    for (TaskOp t : {t0, t1}) {
        for (Value* result : t.op()->results()) {
            for (Operation* user : result->users()) {
                if (t0.op()->isAncestorOf(user) || t1.op()->isAncestorOf(user))
                    continue;
                // Hoist the user to the siblings' block for comparison.
                Operation* anchor = user;
                while (anchor != nullptr && anchor->block() != t1.op()->block())
                    anchor = anchor->parentOp();
                if (anchor == nullptr || anchor->isBeforeInBlock(t1.op()))
                    return false;
            }
        }
    }
    return true;
}

/**
 * Fuse two sibling tasks into a fresh task placed after the later one.
 * Internal uses of the earlier task's results are rewired to the yielded
 * values; escaping results become results of the fused task.
 */
TaskOp
fuseTasks(TaskOp t0, TaskOp t1)
{
    if (t1.op()->isBeforeInBlock(t0.op()))
        std::swap(t0, t1);

    auto yield_of = [](TaskOp t) -> Operation* {
        if (!t.body()->empty() && isa<YieldOp>(t.body()->back()))
            return t.body()->back();
        return nullptr;
    };
    Operation* yield0 = yield_of(t0);
    Operation* yield1 = yield_of(t1);

    // Map every old task result to its yielded internal value and decide
    // whether it escapes the fused pair.
    struct ResultInfo {
        Value* oldResult;
        Value* internal;
        bool escapes;
    };
    std::vector<ResultInfo> infos;
    auto analyze = [&](TaskOp t, Operation* yield) {
        for (unsigned i = 0; i < t.op()->numResults(); ++i) {
            Value* old_result = t.op()->result(i);
            Value* internal = yield != nullptr ? yield->operand(i) : nullptr;
            bool escapes = false;
            for (Operation* user : old_result->users()) {
                bool inside_pair = t0.op()->isAncestorOf(user) ||
                                   t1.op()->isAncestorOf(user);
                if (!inside_pair) {
                    escapes = true;
                    break;
                }
            }
            infos.push_back({old_result, internal, escapes});
        }
    };
    analyze(t0, yield0);
    analyze(t1, yield1);

    std::vector<Type> result_types;
    for (const ResultInfo& info : infos)
        if (info.escapes)
            result_types.push_back(info.oldResult->type());

    OpBuilder builder;
    builder.setInsertionPointAfter(t1.op());
    TaskOp fused = TaskOp::create(builder, result_types);

    if (yield0 != nullptr)
        yield0->erase();
    if (yield1 != nullptr)
        yield1->erase();
    for (Operation* op : t0.body()->ops())
        op->moveToEnd(fused.body());
    for (Operation* op : t1.body()->ops())
        op->moveToEnd(fused.body());

    // Rewire uses and build the fused yield.
    std::vector<Value*> yielded;
    unsigned slot = 0;
    for (const ResultInfo& info : infos) {
        if (info.internal != nullptr) {
            info.oldResult->replaceUsesIf(info.internal, [&](Operation* user) {
                return fused.op()->isAncestorOf(user);
            });
        }
        if (info.escapes) {
            info.oldResult->replaceAllUsesWith(fused.op()->result(slot));
            yielded.push_back(info.internal);
            ++slot;
        }
    }
    if (!yielded.empty()) {
        OpBuilder yield_builder(fused.body());
        YieldOp::create(yield_builder, yielded);
    }
    t0.op()->erase();
    t1.op()->erase();
    return fused;
}

/** Pattern predicate: should @p task absorb its consumer @p next? */
bool
matchesFusionPattern(TaskOp task, TaskOp next)
{
    Operation* consumer = singleNnOp(next);
    if (consumer == nullptr)
        return false;
    // Elementwise operations fusion (paper's canonical example).
    if (isa<ReluOp>(consumer) || isa<NnAddOp>(consumer) ||
        isa<FlattenOp>(consumer))
        return true;
    // Pooling fused after a producing convolution (LeNet Table 1 tasks).
    if (isa<MaxPoolOp>(consumer) || isa<AvgPoolOp>(consumer)) {
        bool has_conv = false;
        task.op()->walk([&](Operation* op) {
            if (isa<Conv2dOp>(op) || isa<DwConv2dOp>(op))
                has_conv = true;
        });
        return has_conv;
    }
    return false;
}

class TaskFusionPass : public Pass {
  public:
    explicit TaskFusionPass(FlowOptions options)
        : Pass("task-fusion"), options_(options) {}

    void
    runOnModule(ModuleOp module) override
    {
        // Pre-order per Algorithm 2 line 1: partition outer dispatches
        // before inner ones.
        std::vector<Operation*> dispatches;
        module.op()->walk([&](Operation* op) {
            if (isa<DispatchOp>(op))
                dispatches.push_back(op);
        }, WalkOrder::kPreOrder);

        for (Operation* dispatch_op : dispatches)
            runOnDispatch(DispatchOp(dispatch_op));
    }

  private:
    void
    runOnDispatch(DispatchOp dispatch)
    {
        // Phase 1: pattern-driven worklist (Alg. 2 lines 2-6).
        std::deque<Operation*> worklist;
        for (TaskOp task : dispatch.tasks())
            worklist.push_back(task.op());
        while (!worklist.empty()) {
            TaskOp task(worklist.front());
            worklist.pop_front();
            TaskOp next = consumerTask(task);
            if (next && matchesFusionPattern(task, next) &&
                canFuse(task, next)) {
                // fuseTasks erases both inputs: purge their worklist
                // entries before the memory is freed (a lazy dangling-
                // pointer probe here was flagged by ASan).
                auto stale = [&](Operation* op) {
                    worklist.erase(
                        std::remove(worklist.begin(), worklist.end(), op),
                        worklist.end());
                };
                stale(task.op());
                stale(next.op());
                TaskOp fused = fuseTasks(task, next);
                worklist.push_back(fused.op());
            }
        }

        // Phase 2: fuse the least critical adjacent pair until a fusion
        // would produce a new critical task (Alg. 2 lines 7-9).
        while (true) {
            std::vector<TaskOp> tasks = dispatch.tasks();
            if (tasks.size() < 3)
                break;
            int64_t critical = 0;
            for (TaskOp task : tasks)
                critical = std::max(critical, taskIntensity(task));
            // Least critical *connected* adjacent pair.
            TaskOp best0(nullptr), best1(nullptr);
            int64_t best_cost = INT64_MAX;
            for (TaskOp task : tasks) {
                TaskOp next = consumerTask(task);
                if (!next || !canFuse(task, next))
                    continue;
                int64_t cost = taskIntensity(task) + taskIntensity(next);
                if (cost < best_cost) {
                    best_cost = cost;
                    best0 = task;
                    best1 = next;
                }
            }
            if (!best0 || best_cost >= critical)
                break; // not profitable: would form a new critical task
            fuseTasks(best0, best1);
        }

        // Phase 3: simplify hierarchy (Alg. 2 line 10): flatten tasks whose
        // body is exactly one nested task (plus optional yield).
        for (TaskOp task : dispatch.tasks())
            simplifyTask(task);
    }

    void
    simplifyTask(TaskOp task)
    {
        Block* body = task.body();
        bool single_nested =
            (body->size() == 1 ||
             (body->size() == 2 && isa<YieldOp>(body->back()))) &&
            isa<TaskOp>(body->front());
        if (!single_nested)
            return;
        TaskOp inner(body->front());
        Operation* inner_yield =
            !inner.body()->empty() && isa<YieldOp>(inner.body()->back())
                ? inner.body()->back()
                : nullptr;
        // Inline the inner task's content into the outer task.
        std::vector<Value*> inner_yielded;
        if (inner_yield != nullptr) {
            inner_yielded = inner_yield->operands();
            inner_yield->erase();
        }
        Operation* anchor = inner.op();
        std::vector<Operation*> inner_ops = inner.body()->ops();
        for (auto it = inner_ops.rbegin(); it != inner_ops.rend(); ++it)
            (*it)->moveAfter(anchor);
        for (unsigned i = 0; i < inner.op()->numResults(); ++i)
            inner.op()->result(i)->replaceAllUsesWith(inner_yielded.at(i));
        inner.op()->erase();
    }

    FlowOptions options_;
};

} // namespace

std::unique_ptr<Pass>
createTaskFusionPass(FlowOptions options)
{
    return std::make_unique<TaskFusionPass>(options);
}

} // namespace hida
