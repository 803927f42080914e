#ifndef HIDA_DSE_SWEEP_H
#define HIDA_DSE_SWEEP_H

/**
 * @file
 * Sharded sweep executor: evaluates every point of a DesignPointGrid
 * across worker threads and merges the per-point results in grid order,
 * so the output is bit-identical to a serial sweep at any thread count.
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
 * Work distribution: every worker owns a contiguous range of
 * *enumeration positions* — neighboring positions differ in few axes
 * (exactly one under PointOrder::kGrayCode), which keeps each worker's
 * directive-fingerprint memo hot exactly like the serial sweep it
 * replaces. Under SweepScheduler::kStatic the ranges are fixed (the
 * PR 5 behavior); under kStealing a worker that drains its own range
 * steals the back half of a straggler's remaining range, so uneven
 * point costs no longer serialize on the slowest shard. Neither the
 * ordering nor the scheduler can change a sweep's output: results are
 * always stored by canonical *grid index* and per-point results are
 * history-independent (warm == cold estimates, pinned by the
 * differential fuzzer), so the merged output is bit-identical across
 * every {order} x {scheduler} x {thread count} combination.
 *
 * Two execution modes:
 *  - run(): the PR 5 contract — every point must succeed; a panic in a
 *    worker aborts the process (compiler-bug semantics).
 *  - runResilient(): the fault-isolated contract (see ROADMAP "Error
 *    handling contract") — a failed point becomes a structured
 *    PointFailure in the outcome (grid order; surviving points are
 *    bit-identical to a clean run), the worker rebuilds its clone from
 *    the prototype after a failure, a cooperative CancelToken and a
 *    wall-clock deadline stop all shards between points, and an
 *    optional SweepJournal checkpoints completed points so an
 *    interrupted sweep resumes instead of restarting.
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
#include <type_traits>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/dse/journal.h"
#include "src/support/diagnostics.h"
#include "src/support/fault_inject.h"

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
 * How enumeration positions are handed to workers.
 *
 *  - kStatic: fixed contiguous ranges [w*n/W, (w+1)*n/W) — the PR 5
 *    behavior; a point's evaluation history depends only on its shard.
 *  - kStealing: same owner ranges, but a worker that drains its own
 *    range steals the back half of a straggler's remaining range.
 *    Locality survives (owners consume from the front, thieves adopt a
 *    contiguous tail) and the output cannot change (results merge by
 *    grid index; per-point results are history-independent), but wall
 *    clock no longer serializes on the slowest shard.
 */
enum class SweepScheduler : uint8_t { kStatic, kStealing };

/** Parse "static"|"steal" (nullopt on anything else). */
std::optional<SweepScheduler> parseSweepScheduler(std::string_view name);

/** Stable name of @p scheduler (the HIDA_DSE_SCHED spelling). */
std::string_view sweepSchedulerName(SweepScheduler scheduler);

/**
 * Evaluation order + scheduler of one sweep. The defaults are the fast
 * path (single-directive steps, no straggler serialization); kRowMajor
 * and kStatic reproduce the PR 5 behavior exactly. Neither field can
 * change a sweep's output — only its evaluation order and wall clock.
 */
struct SweepSchedule {
    PointOrder order = PointOrder::kGrayCode;
    SweepScheduler scheduler = SweepScheduler::kStealing;
};

/**
 * SweepSchedule from HIDA_DSE_ORDER ("gray"|"row-major") and
 * HIDA_DSE_SCHED ("steal"|"static"). Unset/empty keeps the defaults;
 * anything else is a user error (exits kFatalExitCode).
 */
SweepSchedule sweepScheduleFromEnv();

/**
 * Chunked work distribution over [0, count) for one pool of workers:
 * the shared core of ShardedSweep::runShards and the strategy worker
 * pool (src/dse/strategy.h). Each worker owns a contiguous slot it
 * consumes from the front in chunks; under kStealing a dry worker
 * steals the back half of a victim's remainder and adopts it. reset()
 * must happen-before the workers' take() calls (the callers' thread
 * create / condvar round handoff provides that); take() is safe to
 * call concurrently from all workers.
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
    /** Wall-clock budget in seconds (<= 0: unbounded), measured from
     * runResilient() entry and checked between points. */
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

/**
 * Outcome of a resilient sweep. Indexes mirror grid order; a point is
 * either completed (results[i] valid), failed (a PointFailure carries
 * its diagnostic), or not reached (sweep stopped first).
 */
template <typename R>
struct SweepOutcome {
    std::vector<R> results;           ///< Valid where completed[i] != 0.
    std::vector<uint8_t> completed;   ///< Per grid index.
    std::vector<PointFailure> failures;  ///< Grid order.
    /** Workers lost to an escaped exception (factory or evaluator
     * boundary), code kWorkerFailed. Distinct from stopped: under
     * kStealing the survivors usually finish the dead worker's points,
     * so check allCompleted() to learn whether coverage suffered. */
    std::vector<Diagnostic> workerFailures;
    size_t evaluated = 0;  ///< Points newly evaluated this run.
    size_t restored = 0;   ///< Points restored from the journal.
    bool stopped = false;  ///< Deadline/cancel/budget ended the sweep.
    std::optional<Diagnostic> stopReason;  ///< Set when stopped.

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
 * Per-worker hooks of a resilient sweep. evaluate returns the point's
 * result or a Diagnostic; recover (optional) restores the worker to a
 * known-good state after a failed point — a half-applied point may have
 * corrupted the worker's clone, so the canonical recover deep-clones
 * the prototype again (CloneSweepWorker::rebuild).
 */
template <typename R>
struct ResilientWorker {
    std::function<Result<R>(size_t index, const std::vector<int64_t>&)>
        evaluate;
    std::function<void()> recover;
    /**
     * Optional: the worker's aggregate estimator cache counters,
     * sampled once when the worker retires (on the worker's own
     * thread). The strategy executor (src/dse/strategy.h) sums these
     * across workers to prove warm-cache behavior; plain runResilient
     * ignores it.
     */
    std::function<QorCacheStats()> cacheStats;
    /**
     * Optional: called once when the strategy executor retires the
     * worker (after cacheStats, still on the worker's thread). The
     * service (src/service/service.h) uses it to return a warm clone +
     * estimator to its session pool so the *next* request on the same
     * prototype starts warm. Plain runResilient ignores it.
     */
    std::function<void()> retire;
};

/**
 * The canonical worker-local state of a clone-the-prototype sweep (the
 * Figure 1 shape: one pre-lowered module, per-point directive rewrites):
 * a private deep clone of the prototype, its top function, the per-point
 * directive pass, and a private estimator whose caches warm up over the
 * worker's shard. Construct inside a ShardedSweep worker factory — i.e.
 * on the worker thread — so every member is owned by that thread.
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

    /** applyPoint + per-point pass + estimate, on the worker's clone. */
    DesignQor
    evaluate(const DesignPointGrid& grid, const std::vector<int64_t>& values)
    {
        applyPoint(module.get(), grid, values);
        perPointPass->runOnModule(module.get());
        return estimator.estimateFunc(func);
    }

    /**
     * Fault-isolating evaluate: every per-point stage (directive
     * binding, per-point pass, estimation) reports failure as a
     * Diagnostic instead of aborting. After a failure call rebuild() —
     * the clone may be half-transformed.
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
 * Evaluates grid points through worker-local evaluation functions.
 * Non-template core (shard math, thread lifecycle) lives in sweep.cc;
 * the typed run()/runResilient() adapters store results by point index.
 */
class ShardedSweep {
  public:
    /** Worker-bound evaluation of the contiguous positions [begin,
     * end). Called once per claimed chunk — exactly once per worker
     * under kStatic, repeatedly under kStealing. */
    using ShardFn = std::function<void(size_t begin, size_t end)>;
    /**
     * Called once per worker on that worker's thread; returns the
     * shard evaluator bound to the worker-local state it sets up.
     */
    using ShardFactory = std::function<ShardFn()>;

    /**
     * Distribute [0, num_points) across @p threads workers and run them
     * concurrently (inline, spawning no thread, when one worker
     * suffices). Worker w owns [w*n/T, (w+1)*n/T); under kStatic it
     * evaluates exactly that range (the deterministic PR 5 contract —
     * a point's evaluation history depends only on its shard, never on
     * timing); under kStealing dry workers additionally adopt tail
     * halves of straggler ranges. Panics in a worker still abort the
     * process (compiler-bug semantics), but an *exception* escaping the
     * factory or the shard fn retires only that worker: it is caught at
     * the worker boundary, emitted, and returned as a kWorkerFailed
     * Diagnostic (error contract: recoverable failures are data).
     * Spawned workers tag their diagnostic lines "w<index>" (see
     * setDiagnosticThreadTag).
     */
    static std::vector<Diagnostic>
    runShards(size_t num_points, const ShardFactory& factory,
              unsigned threads,
              SweepScheduler scheduler = SweepScheduler::kStatic);

    /**
     * Evaluate every point of @p grid. @p factory runs once per worker
     * on the worker thread and returns the per-point evaluator; results
     * are returned in grid order regardless of @p threads or
     * @p schedule (positions walk schedule.order, results store by grid
     * index).
     */
    template <typename R>
    static std::vector<R>
    run(const DesignPointGrid& grid,
        const std::function<std::function<R(size_t index,
                                            const std::vector<int64_t>&)>()>&
            factory,
        unsigned threads, const SweepSchedule& schedule = SweepSchedule())
    {
        std::vector<R> results(grid.size());
        runShards(
            grid.size(),
            [&]() -> ShardFn {
                auto evaluate = factory();
                return [&results, &grid, &schedule,
                        evaluate = std::move(evaluate)](size_t begin,
                                                        size_t end) {
                    std::vector<int64_t> values;
                    for (size_t pos = begin; pos < end; ++pos) {
                        const size_t i =
                            grid.orderedIndex(pos, schedule.order);
                        grid.decode(i, values);
                        results[i] = evaluate(i, values);
                    }
                };
            },
            threads, schedule.scheduler);
        return results;
    }

    /**
     * Fault-isolated, deadline-bounded, resumable sweep over @p grid.
     *
     * Contract (pinned by tests/dse_fault_test.cc):
     *  - A failed point never takes the sweep down: its Diagnostic is
     *    recorded as a PointFailure (merged in grid order) and the
     *    worker's recover hook runs before the next point.
     *  - Surviving points are bit-identical to a clean run at any
     *    thread count (failures are decided by the deterministic fault
     *    key = grid index, never by shard/timing).
     *  - limits.deadlineSeconds / cancel / pointBudget stop all shards
     *    between points; completed results remain valid.
     *  - With limits.journal, completed points are checkpointed and a
     *    restarted sweep restores them byte-exactly instead of
     *    re-evaluating (same output hash as an uninterrupted run).
     *
     * R must be trivially copyable (journaled byte-exactly) and
     * default-constructible (placeholder for unreached points).
     */
    template <typename R>
    static SweepOutcome<R>
    runResilient(const DesignPointGrid& grid,
                 const std::function<ResilientWorker<R>()>& factory,
                 unsigned threads, const SweepLimits& limits = SweepLimits(),
                 const SweepSchedule& schedule = SweepSchedule())
    {
        static_assert(std::is_trivially_copyable_v<R>,
                      "sweep results are journaled as raw bytes");
        const size_t n = grid.size();
        SweepOutcome<R> outcome;
        outcome.results.resize(n);
        outcome.completed.assign(n, 0);

        SweepJournal* journal = limits.journal;
        HIDA_ASSERT(journal == nullptr ||
                        journal->payloadSize() == sizeof(R),
                    "journal payload size does not match the result type");

        std::atomic<bool> stop{false};
        // 0 = running, else the stop cause (first writer wins).
        std::atomic<int> stop_cause{0};
        std::atomic<size_t> evaluated{0};
        std::atomic<size_t> restored{0};
        const bool has_deadline = limits.deadlineSeconds > 0.0;
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    has_deadline ? limits.deadlineSeconds : 0.0));
        std::mutex failures_mutex;

        outcome.workerFailures = runShards(
            n,
            [&]() -> ShardFn {
                ResilientWorker<R> worker = factory();
                return [&, worker = std::move(worker)](size_t begin,
                                                       size_t end) {
                    std::vector<int64_t> values;
                    std::vector<PointFailure> local_failures;
                    for (size_t pos = begin; pos < end; ++pos) {
                        const size_t i =
                            grid.orderedIndex(pos, schedule.order);
                        if (stop.load(std::memory_order_relaxed))
                            break;
                        if (limits.cancel != nullptr &&
                            limits.cancel->cancelled()) {
                            int expected = 0;
                            stop_cause.compare_exchange_strong(expected, 2);
                            stop.store(true, std::memory_order_relaxed);
                            break;
                        }
                        if (has_deadline &&
                            std::chrono::steady_clock::now() >= deadline) {
                            int expected = 0;
                            stop_cause.compare_exchange_strong(expected, 1);
                            stop.store(true, std::memory_order_relaxed);
                            break;
                        }
                        if (journal != nullptr &&
                            journal->restore(i, grid.pointFingerprint(i),
                                             &outcome.results[i])) {
                            outcome.completed[i] = 1;
                            restored.fetch_add(1, std::memory_order_relaxed);
                            continue;
                        }
                        if (limits.pointBudget > 0) {
                            size_t prev = evaluated.fetch_add(
                                1, std::memory_order_relaxed);
                            if (prev >= limits.pointBudget) {
                                evaluated.fetch_sub(
                                    1, std::memory_order_relaxed);
                                int expected = 0;
                                stop_cause.compare_exchange_strong(expected,
                                                                   3);
                                stop.store(true, std::memory_order_relaxed);
                                break;
                            }
                        } else {
                            evaluated.fetch_add(1,
                                                std::memory_order_relaxed);
                        }
                        grid.decode(i, values);
                        // The fault key is the grid index: injected
                        // failures are identical at any thread count.
                        FaultScope fault_scope(i);
                        // An exception out of evaluate is a per-point
                        // failure, not a dead worker: catch it here so
                        // the worker recovers and keeps its shard.
                        Result<R> result = [&]() -> Result<R> {
                            try {
                                return worker.evaluate(i, values);
                            } catch (const std::exception& e) {
                                return Diagnostic(
                                    ErrorCode::kWorkerFailed,
                                    strCat("exception escaped evaluate: ",
                                           e.what()),
                                    strCat("point #", i));
                            } catch (...) {
                                return Diagnostic(
                                    ErrorCode::kWorkerFailed,
                                    "unknown exception escaped evaluate",
                                    strCat("point #", i));
                            }
                        }();
                        if (result.ok()) {
                            outcome.results[i] = result.value();
                            outcome.completed[i] = 1;
                            if (journal != nullptr)
                                journal->record(i, grid.pointFingerprint(i),
                                                &outcome.results[i]);
                        } else {
                            Diagnostic diag = result.takeDiag();
                            diag.severity = Severity::kWarning;
                            emitDiagnostic(diag);
                            local_failures.push_back({i, std::move(diag)});
                            if (worker.recover)
                                worker.recover();
                        }
                    }
                    if (!local_failures.empty()) {
                        std::lock_guard<std::mutex> lock(failures_mutex);
                        outcome.failures.insert(
                            outcome.failures.end(),
                            std::make_move_iterator(local_failures.begin()),
                            std::make_move_iterator(local_failures.end()));
                    }
                };
            },
            threads, schedule.scheduler);

        std::sort(outcome.failures.begin(), outcome.failures.end(),
                  [](const PointFailure& a, const PointFailure& b) {
                      return a.index < b.index;
                  });
        outcome.evaluated = evaluated.load();
        outcome.restored = restored.load();
        switch (stop_cause.load()) {
          case 1:
            outcome.stopped = true;
            outcome.stopReason = Diagnostic(
                ErrorCode::kDeadlineExceeded,
                strCat("sweep deadline of ", limits.deadlineSeconds,
                       "s expired"),
                "sweep");
            break;
          case 2:
            outcome.stopped = true;
            outcome.stopReason = Diagnostic(ErrorCode::kCancelled,
                                            "sweep cancelled", "sweep");
            break;
          case 3:
            outcome.stopped = true;
            outcome.stopReason = Diagnostic(
                ErrorCode::kCancelled,
                strCat("sweep point budget of ", limits.pointBudget,
                       " exhausted"),
                "sweep");
            break;
          default:
            break;
        }
        if (journal != nullptr)
            journal->flush();
        return outcome;
    }
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
