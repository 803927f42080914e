#ifndef HIDA_SERVICE_SERVICE_H
#define HIDA_SERVICE_SERVICE_H

/**
 * @file
 * Long-lived, multi-tenant DSE service core (docs/service.md): a
 * fair-queued scheduler in front of the resilient sweep engine, built
 * so the expensive artifacts — lowered prototypes, warm per-session
 * QorEstimator clones, and the persistent fingerprint-keyed QoR store —
 * outlive any single request or process.
 *
 * Robustness contract (the whole point — pinned by
 * tests/service_test.cc):
 *  - Every submitted request receives exactly one terminal
 *    ServiceResponse, always: completed, partial (deadline/shutdown),
 *    shed (kOverloaded), rejected (kInvalidRequest/kShutdown) or failed
 *    (kService fault retries exhausted). No tenant-triggerable
 *    condition — malformed request, faulting point, dying worker,
 *    overload burst, corrupt store file — ever aborts the process or
 *    another tenant's request.
 *  - Per-request deadlines ride the existing SweepLimits plumbing; the
 *    wall clock spent queued counts against the deadline.
 *  - Transient per-point failures (kFaultInjected, kWorkerFailed) are
 *    retried at once, in place, inside the sweep's evaluate hook:
 *    attempt k of point i rebuilds the clone and re-rolls under
 *    FaultScope(hash(hash(i), k)), the same deterministic key
 *    discipline as the sweep engine, so a fault-injected run is
 *    bit-identical at any thread count, and the strategy sees one
 *    answer per point: a request whose faults all recover answers like
 *    a clean one. Request-level kService faults re-roll the same way
 *    on the executor lane, keyed on the request id (or the caller's
 *    faultKey).
 *  - Admission control sheds (or, when configured, degrades to a
 *    sampled strategy with a smaller budget) once the queue exceeds a
 *    depth/age bound, so overload answers fast instead of timing out
 *    everyone.
 *  - Graceful shutdown: beginShutdown() — or SIGINT/SIGTERM via a
 *    CancelToken chained to processShutdownToken() — finishes in-flight
 *    requests early (partial results), answers every queued request
 *    with kShutdown, and flushes the store.
 *
 * Threading model (ROADMAP rules): submit()/wait() are any-thread; a
 * blocked wait() sleeps on a condition variable of its own, which only
 * its request's answer notifies. ServiceOptions::concurrency executor
 * threads each run one request at a time end to end, drawn from
 * per-tenant FIFOs under deficit-weighted fair queuing
 * (src/service/fair_queue.h) so one chatty tenant cannot starve the
 * rest. Each in-flight request exclusively leases a Session
 * — prototype plus warm clone pool — from a per-model warm-session
 * pool; two concurrent requests on the same model get *independent*
 * Session instances, so no IR is ever shared across requests. Within a
 * request, the sweep runs through a StrategyWorkerPool of at most
 * ServiceOptions::sweepThreads workers, the lane thread included, each
 * claiming a clone from the leased session only (pool join
 * happens-before the lease is returned, so estimator caches stay warm
 * without cross-request sharing). A batch below two fan-out grains
 * (StrategyWorkerPool::kFanOutGrain) runs on the lane alone, so small
 * requests spawn no thread and claim one clone. A housekeeping thread
 * appends batched QoR-store records to disk off the request threads.
 * Results are bit-identical at any concurrency x sweepThreads
 * combination: every retry/fault decision keys on (point or request,
 * attempt), never on timing or executor placement.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/qor_store.h"
#include "src/dse/strategy.h"
#include "src/dse/sweep.h"
#include "src/service/fair_queue.h"

namespace hida {

/**
 * One tenant request: which prototype (model/batch/dataflow — the
 * session key), which design space (grid), and how to search it
 * (strategy options incl. budget). deadlineSeconds covers queue wait
 * plus sweep time (0, or too far out for the steady clock such as
 * +inf = unbounded).
 */
struct ServiceRequest {
    std::string model = "lenet";  ///< dnnModelNames() entry or "lenet".
    int64_t batch = 1;            ///< LeNet batch (ignored otherwise).
    bool dataflow = true;         ///< kHida vs kVitis flow.
    DesignPointGrid grid;
    StrategyOptions strategy;
    double deadlineSeconds = 0.0;
    /** Fair-queuing lane ("" = the shared default tenant). Dispatch
     * slots are granted per tenant under deficit round robin with the
     * weights in ServiceOptions::tenantWeights. */
    std::string tenant;
    /** Deterministic key for request-level fault/retry decisions; 0
     * (default) uses the request id. Benches set it to their workload
     * sequence number so per-request payloads are reproducible even
     * when concurrent clients race on submission order. */
    uint64_t faultKey = 0;
};

/** Trivially copyable per-point result: the QoR store payload. */
struct ServicePoint {
    double util = 0.0;        ///< max resource utilization fraction.
    double throughput = 0.0;  ///< images/s (batch-adjusted).
};

/** Terminal state of one request. */
enum class RequestStatus : uint8_t {
    kCompleted,  ///< Ran to the strategy's natural end.
    kPartial,    ///< Stopped early (deadline/shutdown); results valid.
    kShed,       ///< Admission control refused it (kOverloaded).
    kRejected,   ///< Never run: kInvalidRequest or kShutdown.
    kFailed,     ///< Request-level failure (retries exhausted).
};

/** Stable name of @p status ("completed", "partial", ...). */
const char* requestStatusName(RequestStatus status);

/**
 * The exactly-once terminal answer. results/completed are indexed by
 * grid index (like SweepOutcome); failures lists the points that
 * stayed failed after retries, in grid order. Each point the sweep
 * reached counts once, in storeHits or in evaluated, however many
 * attempts it took.
 */
struct ServiceResponse {
    uint64_t id = 0;
    RequestStatus status = RequestStatus::kFailed;
    bool degraded = false;  ///< Admitted with a downgraded strategy.
    Diagnostic diag;        ///< Cause for every non-kCompleted status.
    std::vector<ServicePoint> results;
    std::vector<uint8_t> completed;
    std::vector<PointFailure> failures;
    /** Sweep workers retired by escaped exceptions (kWorkerFailed). */
    std::vector<Diagnostic> workerFailures;
    size_t evaluated = 0;       ///< Points newly evaluated (not store hits).
    size_t storeHits = 0;       ///< Points served from the QoR store.
    size_t pointRetries = 0;    ///< Per-point retry attempts spent.
    size_t requestRetries = 0;  ///< Request-level retry attempts spent.
    double queueSeconds = 0.0;  ///< Wall clock from submit to dispatch.
    double runSeconds = 0.0;
};

/** Service tuning; fromEnv() reads the documented HIDA_SERVICE_* knobs. */
struct ServiceOptions {
    /** In-flight request executors (HIDA_SERVICE_CONCURRENCY; 0 = auto:
     * min(4, hardware cores)). Results are bit-identical at any
     * value — concurrency shapes wall clock only. */
    unsigned concurrency = 0;
    /** Most workers per request sweep, the lane thread included
     * (HIDA_SERVICE_WORKERS, default 1); small batches use fewer. */
    unsigned sweepThreads = 1;
    /** Dispatch slots per fair-queue visit for named tenants
     * (HIDA_SERVICE_TENANT_WEIGHTS, "name=w,name=w"); unnamed tenants
     * weigh 1. */
    std::map<std::string, uint64_t> tenantWeights;
    /** Admission bound: submit() sheds at this many *queued-not-yet-
     * started* requests (HIDA_SERVICE_QUEUE_DEPTH; 0 = unbounded). */
    size_t maxQueueDepth = 64;
    /** Degrade instead of shed from this depth up (0 = never): the
     * request is admitted with a random strategy and an eighth of its
     * budget, marked degraded in its response. */
    size_t degradeQueueDepth = 0;
    /** Shed a queued request older than this at dequeue (0 = never). */
    double maxQueueAgeSeconds = 0.0;
    /** Bounded in-place retries per failed point / failed request
     * (HIDA_SERVICE_RETRIES). */
    size_t maxRetries = 2;
    /** QoR store path (HIDA_QOR_STORE; "" = in-memory memo only). */
    std::string storePath;
    TargetDevice device = TargetDevice::pynqZ2();

    /**
     * Defaults overridden by HIDA_SERVICE_CONCURRENCY /
     * HIDA_SERVICE_WORKERS / HIDA_SERVICE_QUEUE_DEPTH /
     * HIDA_SERVICE_RETRIES / HIDA_SERVICE_TENANT_WEIGHTS /
     * HIDA_QOR_STORE. Malformed numbers or weight lists are user
     * errors (exit kFatalExitCode).
     */
    static ServiceOptions fromEnv();
};

/** Monotone service-wide counters (stats()), plus one high-water mark. */
struct ServiceStats {
    size_t submitted = 0;
    size_t answered = 0;  ///< Terminal responses produced.
    size_t completed = 0;
    size_t partial = 0;
    size_t shed = 0;
    size_t rejected = 0;
    size_t failed = 0;
    size_t degraded = 0;
    size_t pointRetries = 0;
    size_t requestRetries = 0;
    size_t maxInFlight = 0;   ///< Peak concurrently executing requests.
    size_t blockedWaits = 0;  ///< wait() calls that blocked for the answer.
};

class DseService {
  public:
    /** Opens the store and starts the executor + housekeeping threads.
     * A corrupt or foreign store file is reported and degraded to
     * misses — never an error. */
    explicit DseService(ServiceOptions options);
    /** shutdown()s if the owner has not already. */
    ~DseService();

    DseService(const DseService&) = delete;
    DseService& operator=(const DseService&) = delete;

    /**
     * Admit, degrade, or immediately answer (shed/reject) @p request.
     * Always returns a request id whose terminal response wait() will
     * deliver — including for shed and rejected requests, which are
     * answered synchronously here. Any thread.
     */
    uint64_t submit(ServiceRequest request);

    /**
     * Block until @p id's terminal response and consume it. Exactly one
     * wait() per submit() (a second call on the same id panics — the
     * response was already handed out, or another thread waits on it).
     * The answer wakes this thread alone. Any thread.
     */
    ServiceResponse wait(uint64_t id);

    /**
     * Stop admitting, answer every queued request with kShutdown, let
     * in-flight requests finish early (partial results), flush the
     * store. Idempotent; also triggered by
     * processShutdownToken() cancellation (SIGINT/SIGTERM). Responses
     * stay waitable after.
     */
    void beginShutdown();

    /** beginShutdown() + join executors and housekeeping. Idempotent. */
    void shutdown();

    ServiceStats stats() const;
    /** Currently queued (admitted, not yet started) requests. */
    size_t queueDepth() const;
    /** Resolved executor-lane count (auto already applied). */
    unsigned concurrency() const { return options_.concurrency; }
    QorStore::Stats storeStats() const { return store_.stats(); }

  private:
    /** Warm per-session state: one lowered prototype plus the idle
     * clone pool the leasing request's workers claim from. A Session is
     * leased *exclusively* by one in-flight request at a time (the
     * warm-session pool hands concurrent same-model requests
     * independent instances), so only `idle` needs its mutex — it is
     * claimed/returned by that request's pool workers. */
    struct Session {
        OwnedModule prototype;
        FlowOptions partitionOptions;
        int64_t batch = 1;
        uint64_t modelHash = 0;  ///< Process-independent store key base.
        std::optional<Diagnostic> buildDiag;  ///< Prototype rejected.
        std::mutex mutex;
        std::vector<std::shared_ptr<CloneSweepWorker>> idle;
    };

    struct Pending {
        uint64_t id = 0;
        ServiceRequest request;
        bool degraded = false;
        std::chrono::steady_clock::time_point enqueued;
    };

    /** One submitted request from submit() until wait() consumes its
     * response. */
    struct Answer {
        std::optional<ServiceResponse> response;
        /** The blocked wait()'s own condvar, notified by the answer. */
        std::condition_variable* waiter = nullptr;
    };

    /** Exclusive lease of a warm (or freshly built) Session; returns
     * it to the pool on destruction. */
    class SessionLease;

    void executorMain(unsigned lane);
    void housekeepingMain();
    void runRequest(Pending pending);
    std::unique_ptr<Session> acquireSession(const std::string& key,
                                            const ServiceRequest& request);
    void releaseSession(const std::string& key,
                        std::unique_ptr<Session> session);
    std::unique_ptr<Session> buildSession(const ServiceRequest& request);
    std::shared_ptr<CloneSweepWorker> claimWorker(Session& session);
    static void releaseWorker(Session& session,
                              std::shared_ptr<CloneSweepWorker> worker);
    /** Serve one point from the store or evaluate and store it: one
     * attempt. A store hit increments @p store_hits, the calling
     * request's own counter (atomic: a round of 128 points or more fans
     * out to helpers). */
    Result<ServicePoint> evaluatePoint(Session& session,
                                       CloneSweepWorker& worker,
                                       const DesignPointGrid& grid,
                                       size_t index,
                                       const std::vector<int64_t>& values,
                                       std::atomic<size_t>& store_hits);
    void respond(ServiceResponse response);
    /** Hold @p response for its wait() and wake that thread alone. */
    void respondLocked(ServiceResponse response);
    /** Answer every queued request with kShutdown. */
    void drainQueueLocked();

    ServiceOptions options_;
    QorStore store_;
    CancelToken cancel_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_;   ///< Executor wakeups.
    std::condition_variable houseCv_;   ///< Housekeeping wakeups.
    WeightedFairQueue<Pending> queue_;  ///< Admitted, per-tenant DRR.
    size_t inFlight_ = 0;
    /** Every submitted, not yet consumed request: the totality check
     * and the response hand-off. */
    std::unordered_map<uint64_t, Answer> answers_;
    ServiceStats stats_;
    uint64_t nextId_ = 1;
    bool shuttingDown_ = false;
    bool stop_ = false;

    /** Warm-session pool: idle Session instances per session key, each
     * leased exclusively by one request at a time. */
    std::mutex sessionsMutex_;
    std::unordered_map<std::string,
                       std::vector<std::unique_ptr<Session>>>
        warmSessions_;

    std::vector<std::thread> executors_;
    std::thread housekeeper_;
};

} // namespace hida

#endif // HIDA_SERVICE_SERVICE_H
