#include "src/service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "src/models/dnn_models.h"
#include "src/service/shutdown.h"
#include "src/support/env.h"
#include "src/support/fault_inject.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

/** Bump whenever ServicePoint's layout *or meaning* (estimator
 * semantics) changes: the store header carries this folded tag, so a
 * process with different semantics treats old files as misses. */
constexpr uint64_t kStoreSchemaVersion = 1;

uint64_t
serviceStoreTag()
{
    return hashCombine(hashMix(UINT64_C(0x71737431)),  // 'qst1'
                       hashCombine(kStoreSchemaVersion,
                                   sizeof(ServicePoint)));
}

/** Process-independent base of this session's store keys: the request
 * coordinates that select the prototype, hashed by *content* (name
 * bytes, not intern ids) like DesignPointGrid::contentHash. */
uint64_t
serviceModelHash(const ServiceRequest& request)
{
    uint64_t h = hashMix(UINT64_C(0x48494441));  // 'HIDA'
    for (unsigned char c : request.model)
        h = hashCombine(h, c);
    h = hashCombine(h, static_cast<uint64_t>(request.batch));
    return hashCombine(h, request.dataflow ? 1 : 0);
}

/** Warm-session pool key: the coordinates that select the prototype.
 * Built without a stream: it is made once per request. */
std::string
sessionKey(const ServiceRequest& request)
{
    std::string key = request.model;
    key += "|b";
    key += std::to_string(request.batch);
    key += request.dataflow ? "|df" : "|nodf";
    return key;
}

bool
knownServiceModel(const std::string& model)
{
    if (model == "lenet")
        return true;
    for (const std::string& name : dnnModelNames())
        if (name == model)
            return true;
    return false;
}

/** A transient per-point failure, worth a deterministic re-roll; every
 * other code is a property of the design point itself and would fail
 * identically again. */
bool
transientPointFailure(const Result<ServicePoint>& result)
{
    if (result.ok())
        return false;
    const ErrorCode code = result.diag().code;
    return code == ErrorCode::kFaultInjected ||
           code == ErrorCode::kWorkerFailed;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Parse HIDA_SERVICE_TENANT_WEIGHTS ("name=w,name=w"). Malformed
 * entries are user errors (exit kFatalExitCode), consistent with the
 * numeric knob parsers in src/support/env.h. */
std::map<std::string, uint64_t>
parseTenantWeights(const char* text)
{
    std::map<std::string, uint64_t> weights;
    const std::string raw = text;
    size_t pos = 0;
    while (pos < raw.size()) {
        size_t end = raw.find(',', pos);
        if (end == std::string::npos)
            end = raw.size();
        const std::string entry = raw.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty())
            continue;
        const size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size())
            HIDA_FATAL("HIDA_SERVICE_TENANT_WEIGHTS entry '", entry,
                       "' is not name=weight");
        constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
        uint64_t weight = 0;
        for (size_t i = eq + 1; i < entry.size(); ++i) {
            const char c = entry[i];
            if (c < '0' || c > '9')
                HIDA_FATAL("HIDA_SERVICE_TENANT_WEIGHTS entry '", entry,
                           "' has a non-numeric weight");
            const uint64_t digit = static_cast<uint64_t>(c - '0');
            if (weight > (kMax - digit) / 10)
                HIDA_FATAL("HIDA_SERVICE_TENANT_WEIGHTS entry '", entry,
                           "' has a weight that does not fit in 64 bits");
            weight = weight * 10 + digit;
        }
        if (weight == 0)
            HIDA_FATAL("HIDA_SERVICE_TENANT_WEIGHTS entry '", entry,
                       "' has weight 0 (must be >= 1)");
        weights[entry.substr(0, eq)] = weight;
    }
    return weights;
}

} // namespace

const char*
requestStatusName(RequestStatus status)
{
    switch (status) {
      case RequestStatus::kCompleted:
        return "completed";
      case RequestStatus::kPartial:
        return "partial";
      case RequestStatus::kShed:
        return "shed";
      case RequestStatus::kRejected:
        return "rejected";
      case RequestStatus::kFailed:
        return "failed";
    }
    return "unknown";
}

ServiceOptions
ServiceOptions::fromEnv()
{
    ServiceOptions options;
    options.concurrency = static_cast<unsigned>(
        envUint("HIDA_SERVICE_CONCURRENCY", options.concurrency));
    options.sweepThreads = static_cast<unsigned>(
        envUint("HIDA_SERVICE_WORKERS", options.sweepThreads));
    options.maxQueueDepth =
        envUint("HIDA_SERVICE_QUEUE_DEPTH", options.maxQueueDepth);
    options.maxRetries = envUint("HIDA_SERVICE_RETRIES", options.maxRetries);
    if (const char* weights = std::getenv("HIDA_SERVICE_TENANT_WEIGHTS"))
        options.tenantWeights = parseTenantWeights(weights);
    if (const char* store = std::getenv("HIDA_QOR_STORE"))
        options.storePath = store;
    return options;
}

/** Exclusive lease of a Session for one in-flight request: checked out
 * of the warm pool (or freshly built) on construction, returned on
 * destruction through every exit path of runRequest. */
class DseService::SessionLease {
  public:
    SessionLease(DseService& service, const ServiceRequest& request)
        : service_(service), key_(sessionKey(request)),
          session_(service.acquireSession(key_, request))
    {
    }

    ~SessionLease() { service_.releaseSession(key_, std::move(session_)); }

    SessionLease(const SessionLease&) = delete;
    SessionLease& operator=(const SessionLease&) = delete;

    Session& operator*() { return *session_; }
    Session* operator->() { return session_.get(); }

  private:
    DseService& service_;
    std::string key_;
    std::unique_ptr<Session> session_;
};

DseService::DseService(ServiceOptions options) : options_(std::move(options))
{
    // One SIGINT/SIGTERM (shutdown.h) cancels every request-observing
    // loop of this service through the chain.
    cancel_.chain(&processShutdownToken());
    if (options_.concurrency == 0)
        options_.concurrency = std::min(4u, dseHardwareConcurrency());
    if (options_.concurrency == 0)
        options_.concurrency = 1;
    for (const auto& [tenant, weight] : options_.tenantWeights)
        queue_.setWeight(tenant, weight);
    if (auto diag =
            store_.open(options_.storePath, serviceStoreTag(),
                        sizeof(ServicePoint)))
        emitDiagnostic(*diag);  // degraded to misses, never an error
    executors_.reserve(options_.concurrency);
    for (unsigned lane = 0; lane < options_.concurrency; ++lane)
        executors_.emplace_back([this, lane] { executorMain(lane); });
    housekeeper_ = std::thread([this] { housekeepingMain(); });
}

DseService::~DseService() { shutdown(); }

uint64_t
DseService::submit(ServiceRequest request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t id = nextId_++;
    ++stats_.submitted;
    answers_.try_emplace(id);

    auto answerLocked = [&](RequestStatus status, ErrorCode code,
                            std::string message) {
        ServiceResponse response;
        response.id = id;
        response.status = status;
        response.diag =
            Diagnostic(code, std::move(message), "service admission");
        respondLocked(std::move(response));
        return id;
    };

    if (shuttingDown_)
        return answerLocked(RequestStatus::kRejected, ErrorCode::kShutdown,
                            "service shutting down; request not run");
    // Tenant-input validation: malformed requests are answered, never
    // fataled — the process serves other tenants too.
    if (!knownServiceModel(request.model))
        return answerLocked(RequestStatus::kRejected,
                            ErrorCode::kInvalidRequest,
                            strCat("unknown model '", request.model, "'"));
    if (request.grid.numAxes() == 0)
        return answerLocked(RequestStatus::kRejected,
                            ErrorCode::kInvalidRequest,
                            "request grid has no axes");
    if (request.batch <= 0)
        return answerLocked(RequestStatus::kRejected,
                            ErrorCode::kInvalidRequest,
                            strCat("invalid batch ", request.batch));
    if (request.deadlineSeconds < 0.0)
        return answerLocked(RequestStatus::kRejected,
                            ErrorCode::kInvalidRequest,
                            "negative deadline");

    // Admission control on queued (not yet started) requests: shed at
    // the hard depth bound; optionally degrade (sampled strategy, 1/8
    // budget) from the soft bound up, so an overload burst answers
    // fast-and-cheap instead of rejecting.
    if (options_.maxQueueDepth > 0 &&
        queue_.size() >= options_.maxQueueDepth)
        return answerLocked(
            RequestStatus::kShed, ErrorCode::kOverloaded,
            strCat("queue depth ", queue_.size(), " at bound ",
                   options_.maxQueueDepth, "; request shed"));
    Pending pending;
    pending.id = id;
    if (options_.degradeQueueDepth > 0 &&
        queue_.size() >= options_.degradeQueueDepth) {
        const size_t budget =
            request.strategy.budget != 0
                ? request.strategy.budget
                : std::max<size_t>(1, request.grid.size() / 10);
        request.strategy.kind = StrategyKind::kRandom;
        request.strategy.budget = std::max<size_t>(1, budget / 8);
        pending.degraded = true;
    }
    pending.request = std::move(request);
    pending.enqueued = std::chrono::steady_clock::now();
    const std::string tenant = pending.request.tenant;
    queue_.push(tenant, std::move(pending));
    queueCv_.notify_one();
    return id;
}

ServiceResponse
DseService::wait(uint64_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = answers_.find(id);
    HIDA_ASSERT(it != answers_.end() && it->second.waiter == nullptr,
                "wait() on unknown or already-consumed request id ", id);
    // The node outlives rehashes by other submits; the iterator may not.
    Answer& answer = it->second;
    if (!answer.response) {
        ++stats_.blockedWaits;
        // The condvar lives on this stack: respondLocked notifies it
        // under the lock, before this thread can see the response.
        std::condition_variable answered;
        answer.waiter = &answered;
        answered.wait(lock, [&] { return answer.response.has_value(); });
    }
    ServiceResponse response = std::move(*answer.response);
    answers_.erase(id);
    return response;
}

void
DseService::beginShutdown()
{
    cancel_.cancel();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shuttingDown_ = true;
        drainQueueLocked();
    }
    queueCv_.notify_all();
}

void
DseService::shutdown()
{
    beginShutdown();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    queueCv_.notify_all();
    houseCv_.notify_all();
    for (std::thread& executor : executors_)
        if (executor.joinable())
            executor.join();
    if (housekeeper_.joinable())
        housekeeper_.join();
    store_.flush();
}

ServiceStats
DseService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

size_t
DseService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void
DseService::respond(ServiceResponse response)
{
    std::lock_guard<std::mutex> lock(mutex_);
    respondLocked(std::move(response));
}

void
DseService::respondLocked(ServiceResponse response)
{
    // The totality invariant: exactly one terminal response per
    // submitted id. A double answer is a service bug, not tenant input.
    auto it = answers_.find(response.id);
    HIDA_ASSERT(it != answers_.end() && !it->second.response, "request ",
                response.id, " answered twice (or never submitted)");
    ++stats_.answered;
    switch (response.status) {
      case RequestStatus::kCompleted:
        ++stats_.completed;
        break;
      case RequestStatus::kPartial:
        ++stats_.partial;
        break;
      case RequestStatus::kShed:
        ++stats_.shed;
        break;
      case RequestStatus::kRejected:
        ++stats_.rejected;
        break;
      case RequestStatus::kFailed:
        ++stats_.failed;
        break;
    }
    if (response.degraded)
        ++stats_.degraded;
    stats_.pointRetries += response.pointRetries;
    stats_.requestRetries += response.requestRetries;
    Answer& answer = it->second;
    answer.response = std::move(response);
    // Only the thread waiting on this id has anything to wake for.
    if (answer.waiter != nullptr)
        answer.waiter->notify_one();
}

void
DseService::drainQueueLocked()
{
    Pending pending;
    while (queue_.pop(&pending)) {
        ServiceResponse response;
        response.id = pending.id;
        response.degraded = pending.degraded;
        response.status = RequestStatus::kRejected;
        response.diag =
            Diagnostic(ErrorCode::kShutdown,
                       "service shutting down; request not run", "service");
        response.queueSeconds = secondsSince(pending.enqueued);
        respondLocked(std::move(response));
    }
}

void
DseService::executorMain(unsigned lane)
{
    setDiagnosticThreadTag(strCat("svc", lane));
    for (;;) {
        Pending pending;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            // wait_for, not wait: a signal handler cannot notify a
            // condvar, so signal-driven shutdown is noticed on the
            // poll tick through the chained cancel token.
            queueCv_.wait_for(lock, std::chrono::milliseconds(50), [&] {
                return stop_ || shuttingDown_ || !queue_.empty();
            });
            if (cancel_.cancelled())
                shuttingDown_ = true;
            if (shuttingDown_ || stop_) {
                drainQueueLocked();
                break;
            }
            if (!queue_.pop(&pending))
                continue;
            ++inFlight_;
            stats_.maxInFlight = std::max(stats_.maxInFlight, inFlight_);
        }
        runRequest(std::move(pending));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
        }
    }
    setDiagnosticThreadTag("");
}

void
DseService::housekeepingMain()
{
    setDiagnosticThreadTag("svchk");
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        // The 50ms store-flush tick.
        houseCv_.wait_for(lock, std::chrono::milliseconds(50),
                          [&] { return stop_; });
        if (stop_)
            break;
        if (store_.needsFlush()) {
            // Append I/O outside the scheduler lock: submits and
            // executors proceed while the queued records hit disk.
            lock.unlock();
            store_.flush();
            lock.lock();
        }
    }
    lock.unlock();
    setDiagnosticThreadTag("");
}

std::unique_ptr<DseService::Session>
DseService::acquireSession(const std::string& key,
                           const ServiceRequest& request)
{
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        auto it = warmSessions_.find(key);
        if (it != warmSessions_.end() && !it->second.empty()) {
            std::unique_ptr<Session> session = std::move(it->second.back());
            it->second.pop_back();
            return session;
        }
    }
    // Pool empty (first request on this key, or every warm instance is
    // leased by a concurrent request): build a fresh independent
    // Session *outside* the pool lock, so concurrent builds — even of
    // the same model — proceed in parallel and never share IR.
    return buildSession(request);
}

void
DseService::releaseSession(const std::string& key,
                           std::unique_ptr<Session> session)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    std::vector<std::unique_ptr<Session>>& pool = warmSessions_[key];
    // At most one warm instance per executor lane can ever be useful.
    if (pool.size() < options_.concurrency)
        pool.push_back(std::move(session));
}

std::unique_ptr<DseService::Session>
DseService::buildSession(const ServiceRequest& request)
{
    // The expensive artifact: build + lower the prototype once; every
    // later request leasing this instance reuses it (and the warm
    // clones its sweeps leave in `idle`).
    auto session = std::make_unique<Session>();
    session->batch = request.batch;
    session->modelHash = serviceModelHash(request);
    OwnedModule module = request.model == "lenet"
                             ? buildLeNet(request.batch)
                             : buildDnnModel(request.model);
    FlowOptions options =
        optionsFor(request.dataflow ? Flow::kHida : Flow::kVitis);
    options.enableTiling = false;
    options.enableParallelization = false;
    compile(module.get(), options, options_.device);
    if (auto diag = verifySweepPrototype(module.get()))
        session->buildDiag = *diag;  // served as kFailed, never an abort
    session->prototype = std::move(module);
    session->partitionOptions = options;
    session->partitionOptions.enableParallelization = true;
    return session;
}

std::shared_ptr<CloneSweepWorker>
DseService::claimWorker(Session& session)
{
    {
        std::lock_guard<std::mutex> lock(session.mutex);
        if (!session.idle.empty()) {
            std::shared_ptr<CloneSweepWorker> worker =
                std::move(session.idle.back());
            session.idle.pop_back();
            return worker;
        }
    }
    return std::make_shared<CloneSweepWorker>(
        session.prototype.get(),
        createArrayPartitionPass(session.partitionOptions),
        options_.device);
}

void
DseService::releaseWorker(Session& session,
                          std::shared_ptr<CloneSweepWorker> worker)
{
    std::lock_guard<std::mutex> lock(session.mutex);
    session.idle.push_back(std::move(worker));
}

Result<ServicePoint>
DseService::evaluatePoint(Session& session, CloneSweepWorker& worker,
                          const DesignPointGrid& grid, size_t index,
                          const std::vector<int64_t>& values,
                          std::atomic<size_t>& store_hits)
{
    ServicePoint point;
    // Process-independent key: any process (or tenant) that evaluated
    // this exact (prototype, directive assignment) already paid for it.
    const uint64_t key =
        hashCombine(session.modelHash, grid.pointFingerprint(index));
    if (store_.lookup(key, &point)) {
        ++store_hits;
        return point;
    }
    Result<DesignQor> qor = worker.evaluateChecked(grid, values);
    if (!qor.ok())
        return qor.takeDiag();
    point.util = qor.value().res.utilization(options_.device);
    point.throughput = qor.value().throughput(options_.device) *
                       static_cast<double>(session.batch);
    store_.insert(key, &point);
    return point;
}

void
DseService::runRequest(Pending pending)
{
    // Request-scoped tag via the RAII scope: this thread is reused by
    // the next request, so a bare set would leak the tag across tenants
    // (pinned by tests/diagnostics_test.cc).
    DiagnosticTagScope tag("req" + std::to_string(pending.id));
    const auto start = std::chrono::steady_clock::now();
    ServiceResponse response;
    response.id = pending.id;
    response.degraded = pending.degraded;
    response.queueSeconds = secondsSince(pending.enqueued);

    // Age-based shedding at dispatch: a request that already waited
    // past the bound would only add to the backlog it suffered from.
    if (options_.maxQueueAgeSeconds > 0.0 &&
        response.queueSeconds > options_.maxQueueAgeSeconds) {
        response.status = RequestStatus::kShed;
        response.diag = Diagnostic(
            ErrorCode::kOverloaded,
            strCat("request waited ", response.queueSeconds, "s (bound ",
                   options_.maxQueueAgeSeconds, "s); request shed"),
            "service");
        respond(std::move(response));
        return;
    }

    const bool has_deadline = pending.request.deadlineSeconds > 0.0;
    double remaining = 0.0;
    if (has_deadline) {
        // Queue wait counts against the tenant's deadline: a request
        // that waited it out is answered now, not after a futile sweep.
        remaining = pending.request.deadlineSeconds - response.queueSeconds;
        if (remaining <= 0.0) {
            response.status = RequestStatus::kPartial;
            response.diag =
                Diagnostic(ErrorCode::kDeadlineExceeded,
                           "deadline exhausted while queued", "service");
            respond(std::move(response));
            return;
        }
    }

    // Request-level fault site, with the same bounded deterministic
    // retry discipline as failed points: attempt k re-rolls at once
    // under key hash(faultKey, k), so the schedule is identical at any
    // concurrency.
    const uint64_t fault_key =
        pending.request.faultKey != 0 ? pending.request.faultKey : pending.id;
    for (size_t attempt = 0;; ++attempt) {
        FaultScope scope(attempt == 0
                             ? fault_key
                             : hashCombine(hashMix(fault_key), attempt));
        // Check the verdict before building the site string: the clean
        // path runs once per request.
        if (!shouldInjectFault(FaultSite::kService))
            break;
        if (attempt >= options_.maxRetries) {
            response.status = RequestStatus::kFailed;
            response.diag = *maybeInjectFault(
                FaultSite::kService, strCat("request #", pending.id));
            respond(std::move(response));
            return;
        }
        ++response.requestRetries;
    }

    SessionLease session(*this, pending.request);
    if (session->buildDiag) {
        response.status = RequestStatus::kFailed;
        response.diag = *session->buildDiag;
        respond(std::move(response));
        return;
    }

    const DesignPointGrid& grid = pending.request.grid;
    SweepLimits limits;
    limits.cancel = &cancel_;
    if (has_deadline)
        limits.deadlineSeconds = remaining;

    // This request's store hits and point retries. The store's own hit
    // counter is shared by every lane, so a delta of it would also count
    // the hits of requests running at the same time.
    std::atomic<size_t> store_hits{0};
    std::atomic<size_t> point_retries{0};
    std::function<ResilientWorker<ServicePoint>()> factory =
        [this, &session, &grid, &store_hits, &point_retries]() {
            std::shared_ptr<CloneSweepWorker> w = claimWorker(*session);
            ResilientWorker<ServicePoint> worker;
            // A transient failure re-rolls in place, on a rebuilt clone:
            // attempt k of point i runs under key hash(i, k), never
            // under timing or thread placement, so the strategy sees one
            // answer per point and a recovered fault leaves no trace.
            worker.evaluate =
                [this, &session, &grid, &store_hits, &point_retries, w](
                    size_t index,
                    const std::vector<int64_t>& values)
                -> Result<ServicePoint> {
                auto attempt = [&] {
                    return guardPoint<ServicePoint>(index, [&] {
                        return evaluatePoint(*session, *w, grid, index, values,
                                             store_hits);
                    });
                };
                Result<ServicePoint> result = attempt();
                for (size_t k = 1; k <= options_.maxRetries; ++k) {
                    if (!transientPointFailure(result))
                        break;
                    w->rebuild();
                    FaultScope scope(hashCombine(hashMix(index), k));
                    ++point_retries;
                    result = attempt();
                }
                return result;
            };
            worker.recover = [w]() { w->rebuild(); };
            worker.cacheStats = [w]() { return w->estimator.cacheStats(); };
            worker.retire = [&session, w]() { releaseWorker(*session, w); };
            return worker;
        };

    std::unique_ptr<SearchStrategy> strategy =
        makeStrategy(grid, pending.request.strategy);
    SweepOutcome<ServicePoint> outcome =
        runStrategySweep<ServicePoint>(
            grid, *strategy, factory,
            [](size_t index, const ServicePoint& point) {
                return ParetoSample{index, point.util, point.throughput};
            },
            options_.sweepThreads, limits);

    response.results = std::move(outcome.results);
    response.completed = std::move(outcome.completed);
    response.failures = std::move(outcome.failures);
    response.workerFailures = std::move(outcome.stats.workerFailures);
    // The sweep counts every point it evaluated once, however many
    // attempts it took — including the points the store answered.
    // "evaluated" reports genuinely recomputed points, so warm-started
    // requests read as (evaluated 0, storeHits N).
    response.storeHits = store_hits.load();
    response.evaluated = outcome.stats.evaluated - response.storeHits;
    response.pointRetries = point_retries.load();
    response.runSeconds = secondsSince(start);
    if (outcome.stats.stopped && outcome.stats.stopReason) {
        response.status = RequestStatus::kPartial;
        // The only canceller of this token chain is shutdown (service
        // or process signal) — report it as such, not as a bare cancel.
        if (outcome.stats.stopReason->code == ErrorCode::kCancelled &&
            cancel_.cancelled())
            response.diag = Diagnostic(
                ErrorCode::kShutdown,
                "service shutting down; partial results", "service");
        else
            response.diag = *outcome.stats.stopReason;
    } else {
        response.status = RequestStatus::kCompleted;
    }
    respond(std::move(response));
}

} // namespace hida
