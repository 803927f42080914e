#ifndef HIDA_DSE_STRATEGY_H
#define HIDA_DSE_STRATEGY_H

/**
 * @file
 * Search strategies over a DesignPointGrid — the layer that makes the
 * design space tractable without enumerating it (the paper's own Figure
 * 1 motivation: >2.4e4 points for LeNet alone). A SearchStrategy
 * proposes batches of grid indices and consumes (index, objectives)
 * results; runStrategySweep() drives one through a StrategyWorkerPool
 * hosted on the calling thread — small batches run inline on one warm
 * worker, large ones fan out to lazily spawned helpers — so every batch
 * is evaluated with the same per-worker clone/estimator recipe (and the
 * same fault-isolation, journal, deadline and budget semantics) as
 * ShardedSweep::runResilient.
 *
 * Four built-in strategies (makeStrategy / HIDA_DSE_STRATEGY):
 *  - exhaustive: every point, one batch, proposed in the configured
 *    PointOrder (HIDA_DSE_ORDER; gray by default, so consecutive
 *    points mutate exactly one directive) — byte-identical output to
 *    the pre-strategy sweeps at any order/scheduler/thread count.
 *  - random: seeded uniform sampling without replacement.
 *  - lhs: latin-hypercube sampling over the named axes (every axis
 *    stratified into budget slices, permuted independently).
 *  - evolve: Pareto-guided evolutionary search — seeds with a
 *    latin-hypercube scatter, then mutates non-dominated archive
 *    members by stepping one or two axes to neighboring values, so
 *    consecutive points share most of their directive fingerprints and
 *    hit the warm node/schedule caches (QorEstimator::cacheStats()
 *    proves it). Dominated points are pruned from the parent pool on
 *    arrival (ParetoArchive).
 *
 * Determinism rules (pinned by tests/dse_strategy_test.cc):
 *  - propose()/consume() run only on the serial driver loop; workers
 *    never touch strategy state.
 *  - Every random decision is keyed on (seed, iteration, counter)
 *    through pure hashes — never a thread id, a clock, or an
 *    evaluation-completion order (the PR 6 fault-injection rule).
 *  - Batch results are fed back in batch order, and evaluation itself
 *    is deterministic (warm == cold, per the differential fuzzer), so
 *    a fixed seed reproduces the identical search at any
 *    HIDA_BENCH_THREADS.
 *
 * Thread-safety: a SearchStrategy is confined to the driver thread
 * (strictly per-driver in the ROADMAP sharing rules). StrategyWorkerPool
 * is internally synchronized; each pool worker (the driver as worker 0,
 * helpers on their own threads) owns its ResilientWorker state exactly
 * like a ShardedSweep worker.
 */

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "src/dse/pareto.h"
#include "src/dse/sweep.h"
#include "src/support/function_ref.h"

namespace hida {

/**
 * One evaluated point fed back to a strategy: its grid index and, when
 * ok, its objectives (cost minimized, value maximized). ok=false means
 * the point failed (structured PointFailure in the outcome) or was not
 * reached before a stop condition — either way the strategy learned
 * nothing about its objectives.
 */
struct StrategyResult {
    size_t index = 0;
    bool ok = false;
    double cost = 0.0;
    double value = 0.0;
};

/**
 * Batch-synchronous search strategy. The driver loop alternates
 * propose() and consume() until propose() returns an empty batch.
 *
 * Contract: a strategy never proposes the same index twice (across its
 * whole lifetime), proposes at most its configured budget, and keeps
 * batch composition independent of worker count — all state advances
 * only in propose()/consume() on the driver thread.
 *
 * Thread-safety: not synchronized; confine one strategy to one driver.
 */
class SearchStrategy {
  public:
    virtual ~SearchStrategy() = default;

    /** Stable strategy name (the HIDA_DSE_STRATEGY spelling). */
    virtual std::string_view name() const = 0;

    /**
     * Append the next batch of grid indices to @p out (left empty when
     * the search is finished). Indices are unique across the whole
     * search, so the executor evaluates each at most once.
     */
    virtual void propose(std::vector<size_t>& out) = 0;

    /**
     * Feed back the last proposed batch, in batch order (one entry per
     * proposed index). Called exactly once per non-empty propose().
     */
    virtual void consume(const std::vector<StrategyResult>& results) = 0;
};

/** The built-in strategy kinds (HIDA_DSE_STRATEGY spellings). */
enum class StrategyKind { kExhaustive, kRandom, kLhs, kEvolve };

/** Parse "exhaustive|random|lhs|evolve" (nullopt on anything else). */
std::optional<StrategyKind> parseStrategyKind(std::string_view name);

/** Stable name of @p kind (the inverse of parseStrategyKind). */
std::string_view strategyKindName(StrategyKind kind);

/** Construction parameters of the built-in strategies. */
struct StrategyOptions {
    StrategyKind kind = StrategyKind::kExhaustive;
    /** Root of every random decision (HIDA_DSE_SEED). */
    uint64_t seed = 42;
    /**
     * Max points a sampling strategy proposes per sweep
     * (HIDA_DSE_BUDGET); 0 = 10% of the grid (the acceptance budget).
     * Ignored by exhaustive.
     */
    size_t budget = 0;
    /**
     * evolve only: consumed points with cost above this never enter the
     * parent archive (infeasible region, e.g. utilization > 1.05);
     * 0 = no limit.
     */
    double costLimit = 0.0;
    /**
     * Enumeration order of the exhaustive strategy (HIDA_DSE_ORDER).
     * Gray code proposes single-directive steps for maximal estimator
     * memo reuse; sampling strategies choose their own batch
     * compositions and ignore it.
     */
    PointOrder order = PointOrder::kGrayCode;
};

/**
 * Build a strategy over @p grid (which must outlive the strategy).
 * Budget defaults are resolved against grid.size() here.
 */
std::unique_ptr<SearchStrategy> makeStrategy(const DesignPointGrid& grid,
                                             const StrategyOptions& options);

/**
 * StrategyOptions from the environment: HIDA_DSE_STRATEGY (default
 * exhaustive), HIDA_DSE_SEED (default 42), HIDA_DSE_BUDGET (default 0 =
 * 10% of grid), HIDA_DSE_ORDER (default gray). An unknown strategy
 * name or a malformed/overflowing number is a *user* error:
 * HIDA_FATAL, exit kFatalExitCode (65) — never a silent fallback to
 * exhaustive (and never a silent clamp of an overflowed seed).
 */
StrategyOptions strategyOptionsFromEnv();

/**
 * A help-while-waiting pool of persistent workers for batch-by-batch
 * sweeps. Unlike ShardedSweep::runShards (threads per call), the pool
 * keeps each worker — and therefore its module clone and warm estimator
 * caches — alive across batches, which is what lets an evolutionary
 * strategy's neighbor points hit the caches its earlier batches warmed.
 *
 * Worker 0 is the driver: the thread that calls runRound() always
 * evaluates, and its hooks are created on it at the first round. A
 * round over @p count positions fans out to participants(count) =
 * clamp(count / kFanOutGrain, 1, W) workers, so a small round runs
 * inline on the driver's one warm worker and a helper is woken only
 * when it gets at least one full chunk. Helper threads (workers 1..W-1)
 * are spawned, and their init run on them, at the first round that
 * fans out to them, never in the constructor.
 *
 * Participant w of a round owns the contiguous slice
 * [count*w/P, count*(w+1)/P) — the WorkQueue math over the round's P
 * participants, so under kStatic the point-to-worker assignment depends
 * only on (count, W). Under SweepScheduler::kStealing a dry participant
 * (the driver included) additionally adopts tail halves of straggler
 * slices through the shared WorkQueue (sweep.h).
 *
 * Exception safety: an exception escaping a worker's init or run hook
 * retires that worker as a kWorkerFailed Diagnostic (workerFailures())
 * instead of calling std::terminate — a dead helper keeps acking rounds
 * so the driver never deadlocks, and under kStealing the survivors
 * drain its slices. Once the driver's own worker is dead, every round
 * of a W > 1 pool fans out to at least two participants so stealing
 * helpers can drain slot 0.
 *
 * Thread-safety: every member function is driver-only, and shutdown()
 * must run on the driver thread (its finish hook runs there). The pool
 * internally synchronizes hand-off to its helpers (mutex + condvars),
 * so everything the driver wrote before runRound() is visible to
 * helpers, and helper writes are visible to the driver when runRound()
 * returns.
 */
class StrategyWorkerPool {
  public:
    /** Per-worker hooks, created on the worker's own thread. */
    struct WorkerFns {
        /** Evaluate batch positions [begin, end) of the current round. */
        std::function<void(size_t begin, size_t end)> run;
        /** Called once when the pool shuts down (still on the worker
         * thread — thread_local stats are readable). Optional. */
        std::function<void()> finish;
    };
    using WorkerInit = std::function<WorkerFns()>;

    /**
     * Positions per participant before a round fans out: the
     * WorkQueue's chunk cap, so a woken helper always gets at least one
     * full chunk. The measured reason (fig1 LeNet grid, 4-vCPU VM): an
     * evolve round holds 1-30 points of a few microseconds each, and
     * splitting such rounds over 3 workers cost 22.5 us of executor
     * overhead per point (0.7 us inline), two extra clones per sweep
     * and a memo hit ratio of 0.846 instead of 0.927. An exhaustive
     * round of 2400 points still fans out to every worker.
     */
    static constexpr size_t kFanOutGrain = WorkQueue::kMaxChunk;

    /** A pool of up to @p workers participants (the driver plus
     * workers - 1 lazily spawned helpers). @p init runs once per
     * worker, on that worker's thread. No thread is spawned here. */
    StrategyWorkerPool(unsigned workers, WorkerInit init,
                       SweepScheduler scheduler = SweepScheduler::kStatic);
    /** Joins (runs shutdown()) if the driver has not already. */
    ~StrategyWorkerPool();

    StrategyWorkerPool(const StrategyWorkerPool&) = delete;
    StrategyWorkerPool& operator=(const StrategyWorkerPool&) = delete;

    unsigned workers() const { return workers_; }

    /** Participants a round over @p count positions fans out to. */
    unsigned participants(size_t count) const;

    /** Run one round over @p count batch positions on the calling
     * (driver) thread plus participants(count) - 1 helpers; blocks
     * until every participant finished its slice. */
    void runRound(size_t count);

    /** Run every worker's finish hook and join the helper threads. */
    void shutdown();

    /** Workers retired by an escaped exception (code kWorkerFailed).
     * Read between rounds or after shutdown() — the round hand-off
     * orders helper writes before the driver's read. */
    const std::vector<Diagnostic>&
    workerFailures() const
    {
        return workerFailures_;
    }

  private:
    /** Create the driver's hooks on first use; false once it is dead. */
    bool driverAlive();
    /** Spawn helpers up to @p participants - 1, hand them a round. */
    void startHelpers(size_t count, unsigned participants);
    void helperMain(unsigned index, uint64_t seen);
    /** Run @p fn as worker @p index. An escaped exception retires the
     * worker as a kWorkerFailed diagnostic; returns false when it did. */
    bool guarded(unsigned index, FunctionRef<void()> fn);

    unsigned workers_ = 1;
    WorkerInit init_;
    SweepScheduler scheduler_ = SweepScheduler::kStatic;
    WorkQueue queue_;
    /** The driver's worker (slot 0), created lazily on its thread. */
    WorkerFns driver_;
    bool driverInit_ = false;
    bool driverDead_ = false;
    bool shutdown_ = false;

    std::mutex failuresMutex_;
    std::vector<Diagnostic> workerFailures_;

    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    uint64_t round_ = 0;         ///< Round generation counter.
    unsigned participants_ = 1;  ///< Participants of the current round.
    unsigned done_ = 0;          ///< Helpers finished with the round.
    bool exit_ = false;
    /** Helper w + 1 runs on threads_[w]; declared last, after all the
     * state helpers use. */
    std::vector<std::thread> threads_;
};

/** Aggregate counters of one strategy-driven sweep. */
struct StrategySweepStats {
    size_t batches = 0;    ///< Non-empty batches proposed.
    size_t proposed = 0;   ///< Indices proposed across all batches.
    size_t evaluated = 0;  ///< Points newly evaluated (restores are free).
    size_t restored = 0;   ///< Points restored from the journal.
    bool stopped = false;  ///< A SweepLimits condition ended the sweep.
    std::optional<Diagnostic> stopReason;  ///< Set when stopped.
    /** Workers retired by an escaped exception (code kWorkerFailed). */
    std::vector<Diagnostic> workerFailures;
    /** Estimator cache counters summed over all workers. */
    QorCacheStats cache;
};

/**
 * Outcome of runStrategySweep: results/completed are indexed by *grid*
 * index (untouched points default-constructed with completed[i] == 0),
 * failures are merged in grid order.
 */
template <typename R>
struct StrategyOutcome {
    std::vector<R> results;
    std::vector<uint8_t> completed;
    std::vector<PointFailure> failures;
    StrategySweepStats stats;
};

/**
 * Drive @p strategy over @p grid on a StrategyWorkerPool of up to
 * @p threads workers: the calling thread is worker 0, and a batch of
 * fewer than 2 * StrategyWorkerPool::kFanOutGrain points runs inline on
 * it alone, so its clone and caches stay warm across batches.
 *
 * Per batch: the strategy proposes indices (driver thread), the pool
 * evaluates them with exactly the runResilient per-point pipeline
 * (journal restore -> budget -> decode -> FaultScope(index) ->
 * evaluate, failures recovered per worker), and the batch's results are
 * fed back in batch order. SweepLimits compose unchanged: deadline /
 * cancel / point budget stop all workers between points, and a journal
 * restores completed points byte-exactly on resume.
 *
 * @p objective maps a completed result to its ParetoSample objectives
 * for strategy feedback (the index field is overwritten).
 *
 * @p schedule.scheduler picks the pool's round slicing (static or
 * stealing; output-invariant — results store by grid index). A batch
 * is sliced like runResilient only when it reaches every worker
 * (kFanOutGrain * threads points or more, e.g. an exhaustive batch).
 * @p schedule.order is a *strategy* concern: the exhaustive strategy
 * takes it from StrategyOptions at construction; batches arriving here
 * are evaluated in their proposed order.
 *
 * Determinism: for a fixed strategy seed the proposed indices, results
 * and failures are bit-identical at any @p threads, because strategy
 * state only advances on the driver and every failure decision keys on
 * the grid index (see the file comment).
 */
template <typename R>
StrategyOutcome<R>
runStrategySweep(const DesignPointGrid& grid, SearchStrategy& strategy,
                 const std::function<ResilientWorker<R>()>& factory,
                 const std::function<ParetoSample(size_t, const R&)>& objective,
                 unsigned threads, const SweepLimits& limits = SweepLimits(),
                 const SweepSchedule& schedule = SweepSchedule())
{
    static_assert(std::is_trivially_copyable_v<R>,
                  "sweep results are journaled as raw bytes");
    const size_t n = grid.size();
    StrategyOutcome<R> out;
    out.results.resize(n);
    out.completed.assign(n, 0);

    SweepJournal* journal = limits.journal;
    HIDA_ASSERT(journal == nullptr || journal->payloadSize() == sizeof(R),
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
    std::mutex merge_mutex;  // Guards failures + aggregated cache stats.

    // The current batch: written by the driver between rounds, read by
    // workers during one (the pool's round hand-off orders the two).
    std::vector<size_t> batch;

    unsigned workers = std::max(1u, threads);
    workers = std::min(workers, static_cast<unsigned>(std::max<size_t>(n, 1)));
    StrategyWorkerPool pool(
        workers,
        [&]() -> StrategyWorkerPool::WorkerFns {
            auto worker =
                std::make_shared<ResilientWorker<R>>(factory());
            StrategyWorkerPool::WorkerFns fns;
            fns.run = [&, worker](size_t begin, size_t end) {
                std::vector<int64_t> values;
                std::vector<PointFailure> local_failures;
                for (size_t pos = begin; pos < end; ++pos) {
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
                    const size_t i = batch[pos];
                    if (journal != nullptr &&
                        journal->restore(i, grid.pointFingerprint(i),
                                         &out.results[i])) {
                        out.completed[i] = 1;
                        restored.fetch_add(1, std::memory_order_relaxed);
                        continue;
                    }
                    if (limits.pointBudget > 0) {
                        size_t prev = evaluated.fetch_add(
                            1, std::memory_order_relaxed);
                        if (prev >= limits.pointBudget) {
                            evaluated.fetch_sub(1, std::memory_order_relaxed);
                            int expected = 0;
                            stop_cause.compare_exchange_strong(expected, 3);
                            stop.store(true, std::memory_order_relaxed);
                            break;
                        }
                    } else {
                        evaluated.fetch_add(1, std::memory_order_relaxed);
                    }
                    grid.decode(i, values);
                    // The fault key is the grid index: injected failures
                    // are identical at any thread count.
                    FaultScope fault_scope(i);
                    // An exception out of evaluate is a per-point
                    // failure, not a dead worker: catch it here so the
                    // worker recovers and keeps evaluating.
                    Result<R> result = [&]() -> Result<R> {
                        try {
                            return worker->evaluate(i, values);
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
                        out.results[i] = result.value();
                        out.completed[i] = 1;
                        if (journal != nullptr)
                            journal->record(i, grid.pointFingerprint(i),
                                            &out.results[i]);
                    } else {
                        Diagnostic diag = result.takeDiag();
                        diag.severity = Severity::kWarning;
                        emitDiagnostic(diag);
                        local_failures.push_back({i, std::move(diag)});
                        if (worker->recover)
                            worker->recover();
                    }
                }
                if (!local_failures.empty()) {
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    out.failures.insert(
                        out.failures.end(),
                        std::make_move_iterator(local_failures.begin()),
                        std::make_move_iterator(local_failures.end()));
                }
            };
            fns.finish = [&, worker]() {
                if (worker->cacheStats) {
                    QorCacheStats stats = worker->cacheStats();
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    out.stats.cache += stats;
                }
                if (worker->retire)
                    worker->retire();
            };
            return fns;
        },
        schedule.scheduler);

    std::vector<uint8_t> proposed_ever(n, 0);
    std::vector<StrategyResult> feedback;
    while (!stop.load(std::memory_order_relaxed)) {
        batch.clear();
        strategy.propose(batch);
        if (batch.empty())
            break;
        for (size_t i : batch) {
            HIDA_ASSERT(i < n, "strategy proposed index out of range");
            HIDA_ASSERT(!proposed_ever[i],
                        "strategy proposed the same index twice");
            proposed_ever[i] = 1;
        }
        ++out.stats.batches;
        out.stats.proposed += batch.size();
        pool.runRound(batch.size());
        feedback.clear();
        feedback.reserve(batch.size());
        for (size_t i : batch) {
            StrategyResult r;
            r.index = i;
            r.ok = out.completed[i] != 0;
            if (r.ok) {
                ParetoSample s = objective(i, out.results[i]);
                r.cost = s.cost;
                r.value = s.value;
            }
            feedback.push_back(r);
        }
        strategy.consume(feedback);
    }
    pool.shutdown();
    out.stats.workerFailures = pool.workerFailures();

    std::sort(out.failures.begin(), out.failures.end(),
              [](const PointFailure& a, const PointFailure& b) {
                  return a.index < b.index;
              });
    out.stats.evaluated = evaluated.load();
    out.stats.restored = restored.load();
    switch (stop_cause.load()) {
      case 1:
        out.stats.stopped = true;
        out.stats.stopReason = Diagnostic(
            ErrorCode::kDeadlineExceeded,
            strCat("sweep deadline of ", limits.deadlineSeconds,
                   "s expired"),
            "strategy-sweep");
        break;
      case 2:
        out.stats.stopped = true;
        out.stats.stopReason = Diagnostic(
            ErrorCode::kCancelled, "sweep cancelled", "strategy-sweep");
        break;
      case 3:
        out.stats.stopped = true;
        out.stats.stopReason = Diagnostic(
            ErrorCode::kCancelled,
            strCat("sweep point budget of ", limits.pointBudget,
                   " exhausted"),
            "strategy-sweep");
        break;
      default:
        break;
    }
    if (journal != nullptr)
        journal->flush();
    return out;
}

} // namespace hida

#endif // HIDA_DSE_STRATEGY_H
