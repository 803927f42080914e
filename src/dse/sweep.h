#ifndef HIDA_DSE_SWEEP_H
#define HIDA_DSE_SWEEP_H

/**
 * @file
 * The per-point sweep contract and its building blocks: cancellation,
 * stop limits, the work queue that slices a round over workers, the
 * canonical clone-the-prototype worker, and SweepPipeline, the one
 * per-point loop runStrategySweep (src/dse/strategy.h) drives batch by
 * batch on a StrategyWorkerPool.
 *
 * Sharing rules (see ROADMAP "Threading model"): workers share only the
 * internally synchronized process-wide tables (identifier interner, type
 * uniquer, attribute pools, op registry). Everything mutable is
 * per-worker by construction: the worker factory runs *on the worker
 * thread* and typically deep-clones the pre-lowered prototype module
 * (OwnedModule::clone), builds its own QorEstimator (all caches
 * thread-local by ownership) and its own passes. Results land in
 * disjoint slots of one preallocated vector indexed by grid order —
 * merging is a no-op and deterministic.
 *
 * Work distribution: every worker owns a contiguous range of a round's
 * positions — neighboring positions differ in few axes (exactly one
 * under PointOrder::kGrayCode), which keeps each worker's
 * directive-fingerprint memo hot exactly like a serial sweep. Under
 * SweepScheduler::kStatic the ranges are fixed; under kStealing a
 * worker that drains its own range steals the back half of a
 * straggler's remaining range, so uneven point costs no longer
 * serialize on the slowest worker. Neither the ordering nor the
 * scheduler can change a sweep's output: results are always stored by
 * canonical *grid index* and per-point results are history-independent
 * (warm == cold estimates, pinned by the differential fuzzer), so the
 * merged output is bit-identical across every {order} x {scheduler} x
 * {thread count} combination.
 *
 * The per-point contract (see ROADMAP "Error handling contract"): a
 * failed point becomes a structured PointFailure in the outcome (grid
 * order; surviving points are bit-identical to a clean run), the worker
 * rebuilds its clone from the prototype after a failure, a cooperative
 * CancelToken, a wall-clock deadline and a point budget stop every
 * worker between points, and an optional SweepJournal checkpoints
 * completed points so an interrupted sweep resumes instead of
 * restarting.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/dse/journal.h"
#include "src/support/diagnostics.h"
#include "src/support/fault_inject.h"
#include "src/support/function_ref.h"

namespace hida {

/**
 * Cooperative cancellation: any thread may cancel(); workers observe it
 * between points and stop their shard. Completed points stay valid.
 * A token may chain() to a parent (e.g. the process-wide shutdown
 * token, src/service/shutdown.h): cancelled() then reports true when
 * either this token or any ancestor was cancelled, so one SIGTERM stops
 * every request-scoped sweep without the service having to track them.
 */
class CancelToken {
  public:
    void cancel() { cancelled_.store(true, std::memory_order_release); }
    bool
    cancelled() const
    {
        if (cancelled_.load(std::memory_order_acquire))
            return true;
        const CancelToken* parent = parent_.load(std::memory_order_acquire);
        return parent != nullptr && parent->cancelled();
    }

    /** Also observe @p parent (not owned; must outlive this token;
     * nullptr unchains). Safe to call concurrently with cancelled(). */
    void
    chain(const CancelToken* parent)
    {
        parent_.store(parent, std::memory_order_release);
    }

  private:
    std::atomic<bool> cancelled_{false};
    std::atomic<const CancelToken*> parent_{nullptr};
};

/** One failed sweep point: where (grid index) and why (structured). */
struct PointFailure {
    size_t index = 0;
    Diagnostic diag;
};

/**
 * How a round's positions are handed to workers.
 *
 *  - kStatic: fixed contiguous ranges [w*n/W, (w+1)*n/W); a point's
 *    evaluation history depends only on its range.
 *  - kStealing: same owner ranges, but a worker that drains its own
 *    range steals the back half of a straggler's remaining range.
 *    Locality survives (owners consume from the front, thieves adopt a
 *    contiguous tail) and the output cannot change (results merge by
 *    grid index; per-point results are history-independent), but wall
 *    clock no longer serializes on the slowest worker.
 */
enum class SweepScheduler : uint8_t { kStatic, kStealing };

/**
 * Chunked work distribution over [0, count) for one round of the
 * strategy worker pool (src/dse/strategy.h). Each worker owns a
 * contiguous slot it consumes from the front in chunks; under kStealing
 * a dry worker steals the back half of a victim's remainder and adopts
 * it. reset() must happen-before the workers' take() calls (the pool's
 * condvar round hand-off provides that); take() is safe to call
 * concurrently from all workers.
 */
class WorkQueue {
  public:
    /** Largest chunk one take() hands out under kStealing. */
    static constexpr size_t kMaxChunk = 64;

    /** Carve [0, count) into @p workers owner slots. */
    void reset(size_t count, size_t workers, SweepScheduler scheduler);

    /**
     * Claim the next chunk for worker @p self as [*begin, *end).
     * Returns false when no work is left anywhere this worker can see
     * (a concurrent steal-adoption may retire a worker one chunk early;
     * work is never lost, only finished by the adopter).
     */
    bool take(size_t self, size_t* begin, size_t* end);

  private:
    struct Slot {
        std::mutex mutex;
        size_t next = 0;
        size_t end = 0;
    };
    // deque, not vector: Slot holds a std::mutex and must never move.
    std::deque<Slot> slots_;
    size_t chunk_ = 1;
    SweepScheduler scheduler_ = SweepScheduler::kStatic;
};

/** Stop conditions and checkpointing of one resilient sweep. */
struct SweepLimits {
    /** Wall-clock budget in seconds, measured from sweep entry and
     * checked between points. <= 0, or too far out for the steady
     * clock to represent (e.g. +inf), means no deadline. */
    double deadlineSeconds = 0.0;
    /** Max *newly evaluated* points across all shards (0: unbounded);
     * journal-restored points are free. The deterministic interrupt
     * knob for resume tests. */
    size_t pointBudget = 0;
    /** Cooperative cancellation (optional, not owned). */
    CancelToken* cancel = nullptr;
    /** Checkpoint journal (optional, not owned). Must be open()ed for
     * this grid's contentHash() and sizeof(R). */
    SweepJournal* journal = nullptr;
};

/** Aggregate counters of one sweep. */
struct SweepStats {
    size_t batches = 0;    ///< Non-empty batches (exhaustive: one).
    size_t proposed = 0;   ///< Indices proposed across all batches.
    size_t evaluated = 0;  ///< Points newly evaluated (restores are free).
    size_t restored = 0;   ///< Points restored from the journal.
    bool stopped = false;  ///< A SweepLimits condition ended the sweep.
    std::optional<Diagnostic> stopReason;  ///< Set when stopped.
    /** Workers lost to an exception escaping their factory or hooks
     * (guardWorker), code kWorkerFailed. Distinct from stopped: under
     * kStealing the survivors usually finish the dead worker's points,
     * so check allCompleted() to learn whether coverage suffered. */
    std::vector<Diagnostic> workerFailures;
    /** Estimator cache counters summed over all workers. */
    QorCacheStats cache;
};

/**
 * Outcome of a sweep. Indexes mirror grid order; a point is either
 * completed (results[i] valid), failed (a PointFailure carries its
 * diagnostic), or not reached (never proposed, or the sweep stopped
 * first).
 */
template <typename R>
struct SweepOutcome {
    std::vector<R> results;           ///< Valid where completed[i] != 0.
    std::vector<uint8_t> completed;   ///< Per grid index.
    std::vector<PointFailure> failures;  ///< Grid order.
    SweepStats stats;

    bool
    allCompleted() const
    {
        for (uint8_t c : completed)
            if (!c)
                return false;
        return true;
    }
};

/**
 * Per-worker hooks of a sweep, created on the worker's own thread.
 * evaluate returns the point's result or a Diagnostic; recover
 * (optional) restores the worker to a known-good state after a failed
 * point — a half-applied point may have corrupted the worker's clone,
 * so the canonical recover deep-clones the prototype again
 * (CloneSweepWorker::rebuild).
 */
template <typename R>
struct ResilientWorker {
    std::function<Result<R>(size_t index, const std::vector<int64_t>&)>
        evaluate;
    std::function<void()> recover;
    /** Optional: the worker's aggregate estimator cache counters,
     * sampled once when the worker retires (on its own thread) and
     * summed into SweepStats::cache. */
    std::function<QorCacheStats()> cacheStats;
    /**
     * Optional: called once when the worker retires, after cacheStats
     * and still on its thread. The service (src/service/service.h)
     * uses it to return a warm clone + estimator to its session pool so
     * the *next* request on the same prototype starts warm.
     */
    std::function<void()> retire;
};

/** Executor-level hooks of one StrategyWorkerPool worker. */
struct WorkerFns {
    /** Evaluate positions [begin, end) of the current round. */
    std::function<void(size_t begin, size_t end)> run;
    /** Called once when the worker retires, on the worker's thread
     * (thread_local stats are readable). Optional. */
    std::function<void()> finish;
};
/** Creates a worker's hooks; called once per worker, on its thread. */
using WorkerInit = std::function<WorkerFns()>;

/**
 * The worker boundary: run @p fn as worker @p index. An escaped
 * exception retires the worker as data (error contract: recoverable
 * failures are data) instead of calling std::terminate with unflushed
 * journals: it is emitted and returned as a kWorkerFailed Diagnostic at
 * "worker w<index>".
 */
std::optional<Diagnostic> guardWorker(size_t index, FunctionRef<void()> fn);

/**
 * The point boundary: evaluate point @p index through @p fn. An
 * exception escaping it is a per-point kWorkerFailed failure at
 * "point #<index>", not a dead worker, so the caller recovers the
 * worker and keeps its points.
 */
template <typename R, typename Fn>
Result<R>
guardPoint(size_t index, Fn&& fn)
{
    try {
        return fn();
    } catch (const std::exception& e) {
        return Diagnostic(ErrorCode::kWorkerFailed,
                          strCat("exception escaped evaluate: ", e.what()),
                          strCat("point #", index));
    } catch (...) {
        return Diagnostic(ErrorCode::kWorkerFailed,
                          "unknown exception escaped evaluate",
                          strCat("point #", index));
    }
}

/**
 * The canonical worker-local state of a clone-the-prototype sweep (the
 * Figure 1 shape: one pre-lowered module, per-point directive rewrites):
 * a private deep clone of the prototype, its top function, the per-point
 * directive pass, and a private estimator whose caches warm up over the
 * worker's points. Construct inside a worker factory — i.e. on the
 * worker thread — so every member is owned by that thread.
 */
struct CloneSweepWorker {
    ModuleOp prototype;
    OwnedModule module;
    FuncOp func;
    std::unique_ptr<Pass> perPointPass;
    QorEstimator estimator;

    CloneSweepWorker(ModuleOp prototype_module,
                     std::unique_ptr<Pass> per_point_pass,
                     const TargetDevice& device)
        : prototype(prototype_module),
          module(OwnedModule::clone(prototype_module)),
          func(topFunc(module.get())),
          perPointPass(std::move(per_point_pass)), estimator(device)
    {
        HIDA_ASSERT(func, "sweep prototype has no function to estimate");
    }

    /**
     * applyPoint + per-point pass + estimate on the worker's clone.
     * Every stage (directive binding, per-point pass, estimation)
     * reports failure as a Diagnostic instead of aborting. After a
     * failure call rebuild() — the clone may be half-transformed.
     */
    Result<DesignQor>
    evaluateChecked(const DesignPointGrid& grid,
                    const std::vector<int64_t>& values)
    {
        if (auto diag = applyPointChecked(module.get(), grid, values))
            return *diag;
        if (auto diag = perPointPass->runChecked(module.get()))
            return *diag;
        return estimator.estimateFuncChecked(func);
    }

    /**
     * Re-clone the prototype and drop every memoized estimate (the
     * caches key on operation addresses of the dead clone). Warm-vs-cold
     * estimate equality is pinned by the differential fuzzer, so a
     * rebuilt worker's surviving points stay bit-identical to a clean
     * run's.
     */
    void
    rebuild()
    {
        module = OwnedModule::clone(prototype);
        func = topFunc(module.get());
        estimator.invalidateCache();
    }
};

/**
 * Verify a sweep prototype before any worker starts, surfacing findings
 * as a structured Diagnostic (never an abort): a broken prototype fails
 * the sweep up front as data instead of panicking mid-sweep in some
 * worker. Runs under the setup fault scope so HIDA_FAULT_INJECT can
 * force this path in tests.
 */
std::optional<Diagnostic> verifySweepPrototype(ModuleOp prototype);

/**
 * The steady-clock instant @p seconds from now, or nullopt for no
 * deadline: @p seconds <= 0 or NaN, or too far out for the clock to
 * represent (1e12 s, +inf) — never an out-of-range conversion.
 */
std::optional<std::chrono::steady_clock::time_point>
sweepDeadline(double seconds);

/**
 * The per-point contract of runStrategySweep (src/dse/strategy.h).
 * Per point:
 * stop checks (cancel, deadline), journal restore, point budget,
 * FaultScope keyed on the grid index, exception-to-failure, worker
 * recovery; per worker: the failure merge and the retire hooks; per
 * sweep: the stop reason and the journal flush.
 *
 * The pipeline owns the outcome under construction. Each worker's
 * hooks come from workerFns(), on the worker's thread; the driver may
 * read and update outcome() between rounds and calls finish() once,
 * after every worker retired. Declare the pipeline before the executor
 * running those hooks: an executor's destructor may still retire
 * workers into it.
 *
 * R must be trivially copyable (journaled byte-exactly) and
 * default-constructible (placeholder for unreached points).
 */
template <typename R>
class SweepPipeline {
  public:
    SweepPipeline(const DesignPointGrid& grid, const SweepLimits& limits)
        : grid_(grid), limits_(limits),
          deadline_(sweepDeadline(limits.deadlineSeconds))
    {
        static_assert(std::is_trivially_copyable_v<R>,
                      "sweep results are journaled as raw bytes");
        HIDA_ASSERT(limits.journal == nullptr ||
                        limits.journal->payloadSize() == sizeof(R),
                    "journal payload size does not match the result type");
        outcome_.results.resize(grid.size());
        outcome_.completed.assign(grid.size(), 0);
    }

    /** The outcome so far; driver-only, between rounds. */
    SweepOutcome<R>& outcome() { return outcome_; }

    /** A stop condition fired: no further point will be evaluated. */
    bool
    stopped() const
    {
        return cause_.load(std::memory_order_relaxed) != kRunning;
    }

    /**
     * The hooks of one worker, built on the calling (worker) thread:
     * @p factory's worker, its run hook evaluating positions through
     * @p index_of (position -> grid index), its finish hook retiring it.
     */
    template <typename IndexOf>
    WorkerFns
    workerFns(const std::function<ResilientWorker<R>()>& factory,
              IndexOf index_of)
    {
        auto worker = std::make_shared<ResilientWorker<R>>(factory());
        WorkerFns fns;
        fns.run = [this, worker, index_of](size_t begin, size_t end) {
            run(*worker, begin, end, index_of);
        };
        fns.finish = [this, worker]() { retire(*worker); };
        return fns;
    }

    /**
     * Seal the sweep: failures in grid order, the counters, the stop
     * reason and the journal flush.
     */
    SweepOutcome<R>
    finish(std::vector<Diagnostic> worker_failures)
    {
        std::sort(outcome_.failures.begin(), outcome_.failures.end(),
                  [](const PointFailure& a, const PointFailure& b) {
                      return a.index < b.index;
                  });
        SweepStats& stats = outcome_.stats;
        stats.evaluated = evaluated_.load();
        stats.restored = restored_.load();
        stats.workerFailures = std::move(worker_failures);
        const char* const at = "strategy-sweep";
        switch (cause_.load()) {
          case kDeadline:
            stats.stopReason = Diagnostic(
                ErrorCode::kDeadlineExceeded,
                strCat("sweep deadline of ", limits_.deadlineSeconds,
                       "s expired"),
                at);
            break;
          case kCancel:
            stats.stopReason =
                Diagnostic(ErrorCode::kCancelled, "sweep cancelled", at);
            break;
          case kBudget:
            stats.stopReason = Diagnostic(
                ErrorCode::kCancelled,
                strCat("sweep point budget of ", limits_.pointBudget,
                       " exhausted"),
                at);
            break;
          default:
            break;
        }
        stats.stopped = stats.stopReason.has_value();
        if (limits_.journal != nullptr)
            limits_.journal->flush();
        return std::move(outcome_);
    }

  private:
    enum StopCause : int { kRunning, kDeadline, kCancel, kBudget };

    /** Evaluate positions [begin, end) on @p worker. */
    template <typename IndexOf>
    void
    run(ResilientWorker<R>& worker, size_t begin, size_t end,
        const IndexOf& index_of)
    {
        SweepJournal* journal = limits_.journal;
        std::vector<int64_t> values;
        std::vector<PointFailure> failures;
        for (size_t pos = begin; pos < end && !stopBeforePoint(); ++pos) {
            const size_t i = index_of(pos);
            if (journal != nullptr &&
                journal->restore(i, grid_.pointFingerprint(i),
                                 &outcome_.results[i])) {
                outcome_.completed[i] = 1;
                restored_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            if (!claimPoint())
                break;
            grid_.decode(i, values);
            // The fault key is the grid index: injected failures are
            // identical at any thread count.
            FaultScope fault_scope(i);
            Result<R> result =
                guardPoint<R>(i, [&] { return worker.evaluate(i, values); });
            if (result.ok()) {
                outcome_.results[i] = result.value();
                outcome_.completed[i] = 1;
                if (journal != nullptr)
                    journal->record(i, grid_.pointFingerprint(i),
                                    &outcome_.results[i]);
                continue;
            }
            Diagnostic diag = result.takeDiag();
            diag.severity = Severity::kWarning;
            emitDiagnostic(diag);
            failures.push_back({i, std::move(diag)});
            if (worker.recover)
                worker.recover();
        }
        if (failures.empty())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        outcome_.failures.insert(outcome_.failures.end(),
                                 std::make_move_iterator(failures.begin()),
                                 std::make_move_iterator(failures.end()));
    }

    /** Retire @p worker on its thread: sum its cache counters, then run
     * its retire hook. */
    void
    retire(ResilientWorker<R>& worker)
    {
        if (worker.cacheStats) {
            const QorCacheStats stats = worker.cacheStats();
            std::lock_guard<std::mutex> lock(mutex_);
            outcome_.stats.cache += stats;
        }
        if (worker.retire)
            worker.retire();
    }

    /** True when no further point may start; the first cause wins. */
    bool
    stopBeforePoint()
    {
        if (stopped())
            return true;
        if (limits_.cancel != nullptr && limits_.cancel->cancelled())
            return stop(kCancel);
        if (deadline_ && std::chrono::steady_clock::now() >= *deadline_)
            return stop(kDeadline);
        return false;
    }

    /** Record @p cause unless another came first; returns true. */
    bool
    stop(StopCause cause)
    {
        int running = kRunning;
        cause_.compare_exchange_strong(running, cause);
        return true;
    }

    /** Count one newly evaluated point; false once the budget is spent
     * (journal restores are free). */
    bool
    claimPoint()
    {
        const size_t prev = evaluated_.fetch_add(1, std::memory_order_relaxed);
        if (limits_.pointBudget == 0 || prev < limits_.pointBudget)
            return true;
        evaluated_.fetch_sub(1, std::memory_order_relaxed);
        return !stop(kBudget);
    }

    const DesignPointGrid& grid_;
    const SweepLimits limits_;
    const std::optional<std::chrono::steady_clock::time_point> deadline_;
    /** Workers write disjoint results/completed slots; failures and
     * stats.cache are merged under mutex_. */
    SweepOutcome<R> outcome_;
    std::mutex mutex_;
    std::atomic<int> cause_{kRunning};
    std::atomic<size_t> evaluated_{0};
    std::atomic<size_t> restored_{0};
};

/**
 * Worker count for benchmark sweeps: HIDA_BENCH_THREADS when set, else
 * std::thread::hardware_concurrency() (min 1). A set value must be a
 * positive integer — zero, garbage ("abc") or trailing characters
 * ("4x") are user errors (exit kFatalExitCode), never a silent
 * fallback. Output must never depend on this — the sweep merges in
 * grid order.
 */
unsigned dseThreadCount();

/** std::thread::hardware_concurrency(), floored at 1. */
unsigned dseHardwareConcurrency();

} // namespace hida

#endif // HIDA_DSE_SWEEP_H
