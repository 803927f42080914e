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
 * worker, large ones fan out to lazily spawned helpers. It is the one
 * sweep entry point: every batch runs through the SweepPipeline of
 * src/dse/sweep.h (per-worker clone/estimator recipe, fault isolation,
 * journal, deadline, budget and worker hooks), and a whole-grid sweep is
 * the exhaustive strategy.
 *
 * Four built-in strategies (makeStrategy / HIDA_DSE_STRATEGY):
 *  - exhaustive: every point, one batch, proposed in the configured
 *    PointOrder (gray by default, so consecutive points mutate exactly
 *    one directive) — byte-identical output at any order, scheduler,
 *    grain and thread count.
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
 * helpers on their own threads) owns its ResilientWorker state.
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
     * Enumeration order of the exhaustive strategy. Gray code proposes
     * single-directive steps for maximal estimator memo reuse; row-major
     * is the grid's index order. Sampling strategies choose their own
     * batch compositions and ignore it.
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
 * 10% of grid); the order stays gray. An unknown strategy name or a
 * malformed/overflowing number is a *user* error:
 * HIDA_FATAL, exit kFatalExitCode (65) — never a silent fallback to
 * exhaustive (and never a silent clamp of an overflowed seed).
 */
StrategyOptions strategyOptionsFromEnv();

/**
 * A help-while-waiting pool of persistent workers for batch-by-batch
 * sweeps. The pool keeps each worker — and therefore its module clone
 * and warm estimator caches — alive across batches, which is what lets
 * an evolutionary strategy's neighbor points hit the caches its earlier
 * batches warmed.
 *
 * Worker 0 is the driver: the thread that calls runRound() always
 * evaluates, and its hooks are created on it at the first round. A
 * round over @p count positions fans out to participants(count) =
 * clamp(count / grain, 1, W) workers. At the default grain
 * (kFanOutGrain) a small round runs inline on the driver's one warm
 * worker and a helper is woken only when it gets at least one full
 * chunk; at grain 1 every position gets a worker, up to W. Helper
 * threads (workers 1..W-1) are spawned, and their init run on them, at
 * the first round that fans out to them, never in the constructor.
 *
 * Participant w of a round owns the contiguous slice
 * [count*w/P, count*(w+1)/P) — the WorkQueue math over the round's P
 * participants, so under kStatic the point-to-worker assignment depends
 * only on (count, W). Under SweepScheduler::kStealing a dry participant
 * (the driver included) additionally adopts tail halves of straggler
 * slices through the shared WorkQueue (sweep.h).
 *
 * Exception safety: an exception escaping a worker's init, run or
 * finish hook retires that worker through guardWorker (sweep.h), as a
 * kWorkerFailed Diagnostic in workerFailures() instead of a call to
 * std::terminate — a dead worker never finishes, a dead helper keeps
 * acking rounds so the driver never deadlocks, and under kStealing the
 * survivors drain its slices. Once the driver's own worker is dead,
 * every round of a W > 1 pool fans out to at least two participants so
 * stealing helpers can drain slot 0.
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
     * workers - 1 lazily spawned helpers) whose rounds fan out one
     * participant per @p grain positions (at least 1). @p init runs
     * once per worker, on that worker's thread. No thread is spawned
     * here. */
    StrategyWorkerPool(unsigned workers, WorkerInit init,
                       SweepScheduler scheduler = SweepScheduler::kStatic,
                       size_t grain = kFanOutGrain);
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
    /** Run @p fn as worker @p index under guardWorker; false (and the
     * diagnostic recorded) when an escaped exception retired it. */
    bool guarded(unsigned index, FunctionRef<void()> fn);

    unsigned workers_ = 1;
    WorkerInit init_;
    SweepScheduler scheduler_ = SweepScheduler::kStatic;
    size_t grain_ = kFanOutGrain;
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

/** SweepOutcome under its older name, which benchmark/sweeps.cc uses. */
template <typename R>
using StrategyOutcome = SweepOutcome<R>;

/**
 * How runStrategySweep spreads each batch over its pool. Neither field
 * can change a sweep's output — only which worker evaluates which point
 * and the wall clock.
 */
struct SweepSchedule {
    /** The pool's round slicing. */
    SweepScheduler scheduler = SweepScheduler::kStealing;
    /**
     * Batch positions per participant before a round fans out (see
     * StrategyWorkerPool). The default suits points of a few
     * microseconds; a sweep whose every point is a full compile (Figures
     * 10 and 11: 20-25 ResNet-18 compiles of 7-14 ms each) passes 1, so
     * each point gets a worker up to the thread count.
     */
    size_t grain = StrategyWorkerPool::kFanOutGrain;
};

/**
 * Drive @p strategy over @p grid on a StrategyWorkerPool of up to
 * @p threads workers: the calling thread is worker 0, and a batch of
 * fewer than 2 * @p schedule.grain points runs inline on it alone, so
 * its clone and caches stay warm across batches. A whole-grid sweep is
 * the exhaustive strategy.
 *
 * Per batch: the strategy proposes indices (driver thread), the pool
 * evaluates them through the SweepPipeline (fault isolation, journal
 * restore, deadline / cancel / point budget, and the cache and retire
 * hooks), and the batch's results are fed back in batch order —
 * journal-restored points like evaluated ones.
 *
 * @p objective maps a completed result to its ParetoSample objectives
 * for strategy feedback (the index field is overwritten). It may be
 * empty for a strategy that ignores objectives (exhaustive): feedback
 * then carries only which points completed.
 *
 * @p schedule picks the pool's round slicing and fan-out grain; both
 * are output-invariant, since results store by grid index. The
 * evaluation order is a *strategy* concern: the exhaustive strategy
 * takes it from StrategyOptions at construction, and batches arriving
 * here are evaluated in their proposed order.
 *
 * Determinism: for a fixed strategy seed the proposed indices, results
 * and failures are bit-identical at any @p threads, because strategy
 * state only advances on the driver and every failure decision keys on
 * the grid index (see the file comment).
 */
template <typename R>
SweepOutcome<R>
runStrategySweep(const DesignPointGrid& grid, SearchStrategy& strategy,
                 const std::function<ResilientWorker<R>()>& factory,
                 const std::function<ParetoSample(size_t, const R&)>& objective,
                 unsigned threads, const SweepLimits& limits = SweepLimits(),
                 const SweepSchedule& schedule = SweepSchedule())
{
    const size_t n = grid.size();
    // Declared before the pool, whose destructor may still retire
    // workers into it.
    SweepPipeline<R> pipeline(grid, limits);
    SweepOutcome<R>& out = pipeline.outcome();
    // The current batch: written by the driver between rounds, read by
    // workers during one (the pool's round hand-off orders the two).
    std::vector<size_t> batch;
    const size_t workers =
        std::min<size_t>(std::max(1u, threads), std::max<size_t>(n, 1));
    StrategyWorkerPool pool(
        static_cast<unsigned>(workers),
        [&]() {
            return pipeline.workerFns(
                factory, [&batch](size_t pos) { return batch[pos]; });
        },
        schedule.scheduler, schedule.grain);

    std::vector<uint8_t> proposed_ever(n, 0);
    std::vector<StrategyResult> feedback;
    while (!pipeline.stopped()) {
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
            if (r.ok && objective) {
                ParetoSample s = objective(i, out.results[i]);
                r.cost = s.cost;
                r.value = s.value;
            }
            feedback.push_back(r);
        }
        strategy.consume(feedback);
    }
    pool.shutdown();
    return pipeline.finish(pool.workerFailures());
}

} // namespace hida

#endif // HIDA_DSE_STRATEGY_H
