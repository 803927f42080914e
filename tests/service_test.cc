/**
 * @file
 * Robustness tests for the DSE service core (src/service/) and the
 * crash-safe persistent QoR store (src/dse/qor_store.h).
 *
 * The pinned contracts (the PR's acceptance criteria):
 *  - Totality: every submitted request — valid, malformed, faulting,
 *    shed, degraded, or caught by shutdown — receives exactly one
 *    terminal ServiceResponse; the service never aborts on
 *    tenant-triggerable conditions.
 *  - Determinism: under HIDA_FAULT_INJECT-style configs, surviving
 *    points are bit-identical at any sweepThreads count, and retry
 *    re-rolls are keyed on (point index, attempt) — never timing. A
 *    point retries in place, so a request whose faults all recover
 *    answers byte-identically to the same request run clean.
 *  - Durability: a second service instance opened on the same
 *    HIDA_QOR_STORE path warm-starts with a hit rate above 50%
 *    (here: 100%); corrupt or foreign store bytes degrade to misses
 *    (kStoreCorrupt), never to wrong answers or aborts.
 *  - Concurrency and fairness: per-request payloads are bit-identical
 *    at any HIDA_SERVICE_CONCURRENCY, and deficit-weighted fair
 *    queuing keeps a chatty tenant from starving a light one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/dse/grid.h"
#include "src/dse/qor_store.h"
#include "src/service/service.h"
#include "src/support/fault_inject.h"
#include "src/support/utils.h"

namespace hida {
namespace {

/** Fresh temp path (removed before use so tests cannot see stale
 * state from a previous run). */
std::string
tempPath(const std::string& name)
{
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return path;
}

/** The 8-point LeNet factor sub-grid every service test sweeps. */
DesignPointGrid
smallGrid()
{
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 3}, 1, "kpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 4}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 6}, 2, "cpf_loop");
    return grid;
}

ServiceRequest
smallRequest()
{
    ServiceRequest request;
    request.model = "lenet";
    request.batch = 1;
    request.dataflow = true;
    request.grid = smallGrid();
    request.strategy.kind = StrategyKind::kExhaustive;
    return request;
}

/** The full 2400-point Table 1 LeNet grid, behind an unbound leading
 * axis of @p repetitions values when that is nonzero. */
DesignPointGrid
bigGrid(int64_t repetitions = 0)
{
    DesignPointGrid grid;
    if (repetitions > 0) {
        std::vector<int64_t> values(static_cast<size_t>(repetitions));
        std::iota(values.begin(), values.end(), 0);
        grid.addAxis("rep", std::move(values));
    }
    grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    return grid;
}

FaultConfig
faultsAt(FaultSite site, uint64_t seed, double rate)
{
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(site);
    config.seed = seed;
    config.rate = rate;
    return config;
}

/** Every test leaves fault injection off for the next one. */
class ServiceTest : public ::testing::Test {
  protected:
    void TearDown() override { setFaultConfig(FaultConfig()); }
};

using QorStoreTest = ServiceTest;

// ---------------------------------------------------------------------------
// QorStore: durability mechanics.
// ---------------------------------------------------------------------------

TEST_F(QorStoreTest, RoundTripsRecordsAcrossProcesses)
{
    const std::string path = tempPath("hida_store_roundtrip.qst");
    const uint64_t tag = 0x1234;
    {
        QorStore store;
        EXPECT_FALSE(store.open(path, tag, sizeof(uint64_t)));
        for (uint64_t key = 1; key <= 5; ++key) {
            const uint64_t payload = key * 100;
            store.insert(key, &payload);
        }
        store.flush();
    }
    // "Another process": a fresh store on the same path adopts all five.
    QorStore store;
    EXPECT_FALSE(store.open(path, tag, sizeof(uint64_t)));
    EXPECT_EQ(store.stats().restored, 5u);
    for (uint64_t key = 1; key <= 5; ++key) {
        uint64_t payload = 0;
        EXPECT_TRUE(store.lookup(key, &payload));
        EXPECT_EQ(payload, key * 100);
    }
    EXPECT_EQ(store.stats().hits, 5u);
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, ForeignContentTagDegradesToEmptyStore)
{
    const std::string path = tempPath("hida_store_foreign.qst");
    {
        QorStore store;
        EXPECT_FALSE(store.open(path, /*content_tag=*/1, sizeof(uint64_t)));
        const uint64_t payload = 7;
        store.insert(9, &payload);
        store.flush();
    }
    // A reader with different payload semantics must never trust the
    // file: reported recoverably, served as misses.
    QorStore store;
    std::optional<Diagnostic> diag =
        store.open(path, /*content_tag=*/2, sizeof(uint64_t));
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kStoreCorrupt);
    EXPECT_TRUE(store.stats().headerMismatch);
    EXPECT_EQ(store.size(), 0u);
    uint64_t payload = 0;
    EXPECT_FALSE(store.lookup(9, &payload));
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, CorruptRecordBytesAreDroppedNotTrusted)
{
    const std::string path = tempPath("hida_store_corrupt.qst");
    {
        QorStore store;
        EXPECT_FALSE(store.open(path, 1, sizeof(uint64_t)));
        for (uint64_t key = 1; key <= 3; ++key)
            store.insert(key, &key);
        store.flush();
    }
    {
        // Flip the last byte: the final record's checksum no longer
        // matches, so it (and only it) must be dropped.
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(-1, std::ios::end);
        char byte = 0;
        f.get(byte);
        f.seekp(-1, std::ios::end);
        f.put(static_cast<char>(byte ^ 0x5a));
    }
    QorStore store;
    std::optional<Diagnostic> diag = store.open(path, 1, sizeof(uint64_t));
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kStoreCorrupt);
    EXPECT_EQ(store.stats().restored, 2u);
    EXPECT_GE(store.stats().droppedCorrupt, 1u);
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, StaleTmpFromCrashedFlushIsRemovedOnOpen)
{
    const std::string path = tempPath("hida_store_staletmp.qst");
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        out << "torn partial snapshot";
    }
    QorStore store;
    EXPECT_FALSE(store.open(path, 1, sizeof(uint64_t)));
    std::ifstream probe(tmp, std::ios::binary);
    EXPECT_FALSE(probe.good()) << "stale .tmp survived open()";
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, EmptyPathIsAPureInMemoryMemo)
{
    QorStore store;
    EXPECT_FALSE(store.open("", 1, sizeof(uint64_t)));
    const uint64_t payload = 11;
    store.insert(3, &payload);
    store.flush();  // must be a no-op, not a crash
    uint64_t out = 0;
    EXPECT_TRUE(store.lookup(3, &out));
    EXPECT_EQ(out, 11u);
}

TEST_F(QorStoreTest, StoreFaultSiteForcesDeterministicMisses)
{
    QorStore store;
    EXPECT_FALSE(store.open("", 1, sizeof(uint64_t)));
    const uint64_t payload = 5;
    store.insert(1, &payload);

    setFaultConfig(faultsAt(FaultSite::kStore, 42, 1.0));
    {
        // Sites only fire under an active FaultScope — the sweep's
        // per-point key — so the forced miss is deterministic.
        FaultScope scope(0);
        uint64_t out = 0;
        EXPECT_FALSE(store.lookup(1, &out));
    }
    EXPECT_EQ(store.stats().injectedMisses, 1u);
    setFaultConfig(FaultConfig());
    uint64_t out = 0;
    EXPECT_TRUE(store.lookup(1, &out));
    EXPECT_EQ(out, 5u);
}

// ---------------------------------------------------------------------------
// DseService: request lifecycle.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, MalformedRequestsAreRejectedNotFataled)
{
    ServiceOptions options;
    DseService service(options);

    ServiceRequest bad_model = smallRequest();
    bad_model.model = "no-such-model";
    ServiceRequest no_axes = smallRequest();
    no_axes.grid = DesignPointGrid();
    ServiceRequest bad_batch = smallRequest();
    bad_batch.batch = 0;
    ServiceRequest bad_deadline = smallRequest();
    bad_deadline.deadlineSeconds = -1.0;

    for (ServiceRequest* request :
         {&bad_model, &no_axes, &bad_batch, &bad_deadline}) {
        ServiceResponse response =
            service.wait(service.submit(std::move(*request)));
        EXPECT_EQ(response.status, RequestStatus::kRejected);
        EXPECT_EQ(response.diag.code, ErrorCode::kInvalidRequest);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.answered, 4u);
    EXPECT_EQ(stats.rejected, 4u);
}

TEST_F(ServiceTest, ExhaustiveRequestCompletesAndMemoizes)
{
    ServiceOptions options;
    DseService service(options);

    ServiceResponse first = service.wait(service.submit(smallRequest()));
    ASSERT_EQ(first.status, RequestStatus::kCompleted)
        << first.diag.message;
    ASSERT_EQ(first.results.size(), 8u);
    EXPECT_EQ(first.evaluated, 8u);
    EXPECT_EQ(first.storeHits, 0u);
    for (uint8_t done : first.completed)
        EXPECT_EQ(done, 1);
    for (const ServicePoint& point : first.results) {
        EXPECT_GT(point.util, 0.0);
        EXPECT_GT(point.throughput, 0.0);
    }

    // The identical request is served entirely from the (in-memory)
    // QoR store: same answers, zero recomputation.
    ServiceResponse second = service.wait(service.submit(smallRequest()));
    ASSERT_EQ(second.status, RequestStatus::kCompleted);
    EXPECT_EQ(second.storeHits, 8u);
    EXPECT_EQ(second.evaluated, 0u);
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(second.results[i].util, first.results[i].util);
        EXPECT_EQ(second.results[i].throughput,
                  first.results[i].throughput);
    }
}

TEST_F(ServiceTest, FaultedRunsAreBitIdenticalAtAnyThreadCount)
{
    // The acceptance contract: same faults, same failures, and
    // surviving points byte-equal to a clean run — at 1 and 2 workers.
    // Retries are off so the injected failures themselves stay visible;
    // each run uses a fresh service (empty store), so every lookup
    // misses and every point genuinely rolls the estimator fault dice.
    auto runFaulted = [](unsigned threads) {
        ServiceOptions options;
        options.sweepThreads = threads;
        options.maxRetries = 0;
        DseService service(options);
        setFaultConfig(faultsAt(FaultSite::kEstimator, 42, 0.5));
        ServiceResponse response =
            service.wait(service.submit(smallRequest()));
        setFaultConfig(FaultConfig());
        return response;
    };

    DseService clean_service((ServiceOptions()));
    ServiceResponse clean =
        clean_service.wait(clean_service.submit(smallRequest()));
    ASSERT_EQ(clean.status, RequestStatus::kCompleted)
        << clean.diag.message;

    ServiceResponse fault1 = runFaulted(1);
    ServiceResponse fault2 = runFaulted(2);

    ASSERT_EQ(clean.results.size(), 8u);
    ASSERT_EQ(fault1.completed.size(), 8u);
    // Some (not all) points must fail for this test to mean anything —
    // seed 42 at rate 0.5 over keys 0..7 is a fixed, known verdict set.
    ASSERT_FALSE(fault1.failures.empty());
    EXPECT_LT(fault1.failures.size(), 8u);

    ASSERT_EQ(fault1.failures.size(), fault2.failures.size());
    for (size_t i = 0; i < fault1.failures.size(); ++i) {
        EXPECT_EQ(fault1.failures[i].index, fault2.failures[i].index);
        EXPECT_EQ(fault1.failures[i].diag.code,
                  fault2.failures[i].diag.code);
    }
    for (size_t i = 0; i < 8; ++i) {
        ASSERT_EQ(fault1.completed[i], fault2.completed[i]) << i;
        if (!fault1.completed[i])
            continue;
        // Survivors match each other and the clean reference exactly.
        EXPECT_EQ(fault1.results[i].util, fault2.results[i].util) << i;
        EXPECT_EQ(fault1.results[i].throughput,
                  fault2.results[i].throughput)
            << i;
        EXPECT_EQ(fault1.results[i].util, clean.results[i].util) << i;
        EXPECT_EQ(fault1.results[i].throughput, clean.results[i].throughput)
            << i;
    }
}

TEST_F(ServiceTest, PointRetriesRecoverTransientFaults)
{
    // Rate 0.4 faults some of the 8 points; the deterministic re-roll
    // under hash(index, attempt) recovers them (two attempts at 0.4
    // leave ~2.6% residual per faulted point), so with retries on the
    // request completes with every point evaluated.
    ServiceOptions options;
    options.maxRetries = 4;
    DseService service(options);
    setFaultConfig(faultsAt(FaultSite::kEstimator, 7, 0.4));
    ServiceResponse response = service.wait(service.submit(smallRequest()));
    setFaultConfig(FaultConfig());

    ASSERT_EQ(response.status, RequestStatus::kCompleted)
        << response.diag.message;
    EXPECT_GT(response.pointRetries, 0u);
    EXPECT_TRUE(response.failures.empty());
    for (uint8_t done : response.completed)
        EXPECT_EQ(done, 1);
    // A retried point still counts once.
    EXPECT_EQ(response.storeHits + response.evaluated, 8u);
    EXPECT_EQ(service.stats().pointRetries, response.pointRetries);

    // Rate 1.0: every attempt faults, so each point spends all of its
    // retries and stays failed; the request itself still completes.
    ServiceOptions exhausting;
    exhausting.maxRetries = 2;
    DseService exhausted_service(exhausting);
    setFaultConfig(faultsAt(FaultSite::kEstimator, 42, 1.0));
    ServiceResponse exhausted =
        exhausted_service.wait(exhausted_service.submit(smallRequest()));
    setFaultConfig(FaultConfig());
    EXPECT_EQ(exhausted.status, RequestStatus::kCompleted);
    ASSERT_EQ(exhausted.failures.size(), 8u);
    for (const PointFailure& failure : exhausted.failures)
        EXPECT_EQ(failure.diag.code, ErrorCode::kFaultInjected);
    EXPECT_EQ(exhausted.pointRetries, 16u);
}

TEST_F(ServiceTest, RecoveredFaultsDoNotShowInTheAnswer)
{
    // An evolve search picks its next points from the QoR of earlier
    // ones. A point retries in place, so the strategy sees its recovered
    // answer, never the fault: when every fault recovers, the request
    // answers byte-identically to the same request run clean. Each run
    // uses a fresh service (empty store), so every point rolls the
    // estimator fault dice.
    auto run = [](uint64_t fault_seed) {
        ServiceOptions options;
        options.maxRetries = 4;
        DseService service(options);
        if (fault_seed != 0)
            setFaultConfig(faultsAt(FaultSite::kEstimator, fault_seed, 0.2));
        ServiceRequest request = smallRequest();
        request.grid = bigGrid();
        request.strategy.kind = StrategyKind::kEvolve;
        request.strategy.budget = 120;
        request.strategy.seed = 42;
        request.strategy.costLimit = 1.05;
        ServiceResponse response = service.wait(service.submit(request));
        setFaultConfig(FaultConfig());
        return response;
    };

    const ServiceResponse clean = run(0);
    ASSERT_EQ(clean.status, RequestStatus::kCompleted)
        << clean.diag.message;
    ASSERT_EQ(clean.results.size(), bigGrid().size());
    // Fault seeds 1-8 at rate 0.2 leave no point failed after four
    // retries, so each answer must equal the clean one.
    for (uint64_t fault_seed = 1; fault_seed <= 8; ++fault_seed) {
        SCOPED_TRACE(fault_seed);
        const ServiceResponse faulted = run(fault_seed);
        ASSERT_EQ(faulted.status, RequestStatus::kCompleted)
            << faulted.diag.message;
        ASSERT_TRUE(faulted.failures.empty());
        EXPECT_GT(faulted.pointRetries, 0u);
        EXPECT_EQ(faulted.completed, clean.completed);
        ASSERT_EQ(faulted.results.size(), clean.results.size());
        EXPECT_EQ(std::memcmp(faulted.results.data(), clean.results.data(),
                              clean.results.size() * sizeof(ServicePoint)),
                  0);
        size_t completed = 0;
        for (uint8_t done : faulted.completed)
            completed += done;
        EXPECT_EQ(faulted.storeHits + faulted.evaluated, completed);
    }
}

TEST_F(ServiceTest, RequestLevelFaultExhaustsRetriesIntoFailed)
{
    // Rate 1.0 on the service site: the request re-rolls maxRetries
    // times and then fails terminally — never aborts, never hangs.
    ServiceOptions options;
    options.maxRetries = 2;
    DseService service(options);
    setFaultConfig(faultsAt(FaultSite::kService, 42, 1.0));
    ServiceResponse response = service.wait(service.submit(smallRequest()));
    setFaultConfig(FaultConfig());

    EXPECT_EQ(response.status, RequestStatus::kFailed);
    EXPECT_EQ(response.diag.code, ErrorCode::kFaultInjected);
    EXPECT_EQ(response.requestRetries, 2u);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.requestRetries, 2u);
}

TEST_F(ServiceTest, DeadlineExhaustedWhileQueuedAnswersPartial)
{
    ServiceOptions options;
    DseService service(options);
    ServiceRequest request = smallRequest();
    request.deadlineSeconds = 1e-9;  // gone before it can be dequeued
    ServiceResponse response = service.wait(service.submit(request));
    EXPECT_EQ(response.status, RequestStatus::kPartial);
    EXPECT_EQ(response.diag.code, ErrorCode::kDeadlineExceeded);
    EXPECT_TRUE(response.results.empty());
}

TEST_F(ServiceTest, UnrepresentableDeadlineIsNoDeadline)
{
    // Admission takes any non-negative deadline; one too far out for the
    // steady clock (1e12 s, +inf) must run the sweep to completion, not
    // expire before its first point.
    ServiceOptions options;
    DseService service(options);
    for (double seconds : {1e12, std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(seconds);
        ServiceRequest request = smallRequest();
        request.deadlineSeconds = seconds;
        ServiceResponse response = service.wait(service.submit(request));
        EXPECT_EQ(response.status, RequestStatus::kCompleted)
            << response.diag.message;
        ASSERT_EQ(response.completed.size(), 8u);
        for (uint8_t done : response.completed)
            EXPECT_EQ(done, 1);
    }
}

// ---------------------------------------------------------------------------
// Admission control and shutdown.
// ---------------------------------------------------------------------------

/** Repetitions of the Table 1 grid in a blocker's sweep. */
constexpr int64_t kBlockerRepetitions = 100;

/** Occupy one executor lane by construction: the Table 1 grid behind an
 * unbound 100-value repetition axis. Each point is a fresh store key
 * and, the repetition axis being the slowest, a real directive change,
 * so the 240,000-point sweep takes over a second in a Release build,
 * far longer than a test takes to arrange the queue behind it: it ends
 * at @p deadline_seconds (0 = none) or at beginShutdown(). Returns once
 * the request left the queue, i.e. the lane owns it. */
uint64_t
submitBlocker(DseService& service, double deadline_seconds = 0.0)
{
    ServiceRequest request = smallRequest();
    request.grid = bigGrid(kBlockerRepetitions);
    // Row-major proposes the grid in index order, the cheapest way to
    // propose this many points under a sanitizer.
    request.strategy.order = PointOrder::kRowMajor;
    request.deadlineSeconds = deadline_seconds;
    const uint64_t id = service.submit(std::move(request));
    while (service.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return id;
}

TEST_F(ServiceTest, OverloadShedsAtDepthBoundAndDegradesBelowIt)
{
    ServiceOptions options;
    options.concurrency = 1;  // the only lane is pinned by the blocker
    options.maxQueueDepth = 2;
    options.degradeQueueDepth = 1;
    DseService service(options);

    const uint64_t blocker = submitBlocker(service);
    // The lane sweeps until shutdown; these submits see a static queue.
    const uint64_t plain = service.submit(smallRequest());     // depth 0->1
    const uint64_t degraded = service.submit(smallRequest());  // depth 1->2
    const uint64_t shed = service.submit(smallRequest());      // at bound

    ServiceResponse shed_response = service.wait(shed);
    EXPECT_EQ(shed_response.status, RequestStatus::kShed);
    EXPECT_EQ(shed_response.diag.code, ErrorCode::kOverloaded);

    // Drain the two queued requests via graceful shutdown: both get
    // terminal kShutdown answers, and the degraded flag is preserved.
    service.beginShutdown();
    ServiceResponse plain_response = service.wait(plain);
    EXPECT_EQ(plain_response.status, RequestStatus::kRejected);
    EXPECT_EQ(plain_response.diag.code, ErrorCode::kShutdown);
    EXPECT_FALSE(plain_response.degraded);
    ServiceResponse degraded_response = service.wait(degraded);
    EXPECT_EQ(degraded_response.status, RequestStatus::kRejected);
    EXPECT_TRUE(degraded_response.degraded);

    // The in-flight blocker is stopped early with partial results —
    // shutdown never orphans it.
    ServiceResponse blocker_response = service.wait(blocker);
    EXPECT_EQ(blocker_response.status, RequestStatus::kPartial);
    EXPECT_EQ(blocker_response.diag.code, ErrorCode::kShutdown);

    // A submit after shutdown is rejected, still with a response.
    ServiceResponse late = service.wait(service.submit(smallRequest()));
    EXPECT_EQ(late.status, RequestStatus::kRejected);
    EXPECT_EQ(late.diag.code, ErrorCode::kShutdown);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 5u);
    EXPECT_EQ(stats.answered, 5u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.rejected, 3u);
    EXPECT_EQ(stats.partial, 1u);
    EXPECT_EQ(stats.degraded, 1u);
}

TEST_F(ServiceTest, StaleQueuedRequestsAreShedAtDequeue)
{
    ServiceOptions options;
    options.concurrency = 1;
    options.maxQueueAgeSeconds = 0.2;
    DseService service(options);

    // The blocker holds the only lane until its 0.4s deadline. Queued
    // behind it with a 0.2s age bound, the next request has waited too
    // long by the time the lane reaches it: running it would be
    // overload amplification, so it is shed instead.
    const uint64_t blocker = submitBlocker(service, 0.4);
    const uint64_t stale = service.submit(smallRequest());

    ServiceResponse response = service.wait(stale);
    EXPECT_EQ(response.status, RequestStatus::kShed);
    EXPECT_EQ(response.diag.code, ErrorCode::kOverloaded);
    EXPECT_GE(response.queueSeconds, 0.2);
    service.wait(blocker);
}

TEST_F(ServiceTest, WeightedFairQueuingPreventsStarvation)
{
    // Six heavy-tenant requests queued ahead of one light-tenant
    // request behind a busy lane. FIFO would run all six first; under
    // deficit round robin (heavy weighted 2, light 1) the light request
    // is dispatched after at most two heavies.
    ServiceOptions options;
    options.concurrency = 1;
    options.tenantWeights["heavy"] = 2;
    DseService service(options);

    const uint64_t blocker = submitBlocker(service, 0.3);
    std::vector<uint64_t> heavy;
    for (int i = 0; i < 6; ++i) {
        ServiceRequest request = smallRequest();
        request.tenant = "heavy";
        heavy.push_back(service.submit(request));
    }
    ServiceRequest light_request = smallRequest();
    light_request.tenant = "light";
    const uint64_t light = service.submit(light_request);

    service.wait(blocker);
    ServiceResponse light_response = service.wait(light);
    ASSERT_EQ(light_response.status, RequestStatus::kCompleted)
        << light_response.diag.message;
    size_t after_light = 0;
    for (uint64_t id : heavy) {
        ServiceResponse response = service.wait(id);
        ASSERT_EQ(response.status, RequestStatus::kCompleted);
        // Everything was enqueued at once and dispatch is serial, so
        // queueSeconds orders the lane's dispatch sequence.
        if (response.queueSeconds > light_response.queueSeconds)
            ++after_light;
    }
    EXPECT_GE(after_light, 4u);
}

TEST_F(ServiceTest, ConcurrentRequestsShareTheLanes)
{
    ServiceOptions options;
    options.concurrency = 4;
    DseService service(options);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        ServiceRequest request = smallRequest();
        request.grid = bigGrid();
        request.strategy.kind = StrategyKind::kRandom;
        // Enough points that a request outlasts a loaded host's delay
        // in starting a second lane.
        request.strategy.budget = 512;
        request.strategy.seed = 7;
        ids.push_back(service.submit(request));
    }
    for (uint64_t id : ids) {
        ServiceResponse response = service.wait(id);
        EXPECT_EQ(response.status, RequestStatus::kCompleted)
            << response.diag.message;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.answered, 4u);
    // Identical sweeps take long enough that at least two of the four
    // lanes must have overlapped.
    EXPECT_GE(stats.maxInFlight, 2u);
}

TEST_F(ServiceTest, EveryAnswerWakesItsOwnWaiterOnce)
{
    // Eight clients (the benchmark's open-loop waiter count) share two
    // lanes. Each answer wakes only its own waiter, so every response
    // must reach the thread waiting on its id, once. A malformed request
    // and any shed one are answered inside submit(), before their
    // wait(); a request waited on at once usually blocks, and the first
    // of a pair waited on second is usually answered meanwhile.
    ServiceOptions options;
    options.concurrency = 2;
    options.maxQueueDepth = 12;  // two lanes, up to 16 requests out
    DseService service(options);
    constexpr size_t kClients = 8, kPairs = 150;
    std::vector<std::atomic<int>> answers(1 + 2 * kClients * kPairs);
    std::atomic<size_t> wrong{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            auto take = [&](uint64_t id, bool malformed) {
                const ServiceResponse response = service.wait(id);
                answers[id].fetch_add(1);
                const bool expected =
                    malformed ? response.status == RequestStatus::kRejected &&
                                    response.diag.code ==
                                        ErrorCode::kInvalidRequest
                              : response.status == RequestStatus::kShed ||
                                    (response.status ==
                                         RequestStatus::kCompleted &&
                                     response.results.size() == 8);
                if (response.id != id || !expected)
                    ++wrong;
            };
            for (size_t k = 0; k < kPairs; ++k) {
                ServiceRequest request = smallRequest();
                request.tenant = strCat("client", c);
                const bool malformed = k % 10 == 0;
                if (malformed)
                    request.batch = 0;
                const uint64_t first = service.submit(request);
                request.batch = 1;
                const uint64_t second = service.submit(request);
                take(second, false);
                take(first, malformed);
            }
        });
    for (std::thread& client : clients)
        client.join();
    EXPECT_EQ(wrong.load(), 0u);
    const ServiceStats stats = service.stats();
    ASSERT_EQ(stats.submitted, answers.size() - 1);
    EXPECT_EQ(stats.answered, stats.submitted);
    EXPECT_EQ(stats.rejected, kClients * kPairs / 10);
    for (size_t id = 1; id < answers.size(); ++id)
        ASSERT_EQ(answers[id].load(), 1) << "request " << id;
    // Both orders ran: some waits blocked, and besides the malformed
    // requests' waits, some found a lane's answer already there.
    EXPECT_GT(stats.blockedWaits, 0u);
    EXPECT_LT(stats.blockedWaits, stats.submitted - stats.rejected);
}

TEST_F(ServiceTest, StoreAccountingIsPerRequestUnderConcurrency)
{
    // storeHits and evaluated describe the request's own points: at
    // K = 4 the other lanes hit the same shared store at the same time,
    // and none of their hits may land in this response. Rounds of 192
    // points fan out to a helper, so a request's hits are counted from
    // two threads.
    ServiceOptions options;
    options.concurrency = 4;
    options.sweepThreads = 2;
    DseService service(options);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 8; ++i) {
        ServiceRequest request = smallRequest();
        request.grid = bigGrid();
        request.strategy.kind = StrategyKind::kRandom;
        request.strategy.budget = 192;
        request.strategy.seed = 11 + i % 2;
        ids.push_back(service.submit(request));
    }
    size_t hits = 0;
    for (uint64_t id : ids) {
        ServiceResponse response = service.wait(id);
        ASSERT_EQ(response.status, RequestStatus::kCompleted)
            << response.diag.message;
        ASSERT_TRUE(response.failures.empty());
        size_t completed = 0;
        for (uint8_t done : response.completed)
            completed += done;
        EXPECT_EQ(response.storeHits + response.evaluated, completed)
            << "request " << id << ": " << response.storeHits
            << " store hits + " << response.evaluated << " evaluated";
        hits += response.storeHits;
    }
    // Two seeds over eight requests: most points repeat.
    EXPECT_GT(hits, 0u);
}

TEST_F(ServiceTest, ResponsesAreBitIdenticalAcrossConcurrency)
{
    // The acceptance contract: the same 8-request multi-tenant mix,
    // clean and under "any"-site faults, must produce byte-identical
    // per-request payloads at concurrency 1, 2 and 4 — every
    // retry/fault decision keys on (point or faultKey, attempt), never
    // on timing or lane placement. The faulted leg's spec (seed 3, rate
    // 0.1) retries points and a request and completes every request, so
    // it compares recovered faults, not a clean run with itself.
    auto runMix = [](unsigned concurrency, bool faulted) {
        ServiceOptions options;
        options.concurrency = concurrency;
        options.sweepThreads = 2;
        options.maxRetries = 2;
        DseService service(options);
        if (faulted) {
            FaultConfig config;
            config.enabled = true;
            config.siteMask = faultSiteBit(FaultSite::kEstimator) |
                              faultSiteBit(FaultSite::kStore) |
                              faultSiteBit(FaultSite::kService);
            config.seed = 3;
            config.rate = 0.1;
            setFaultConfig(config);
        }
        std::vector<uint64_t> ids;
        for (size_t seq = 0; seq < 8; ++seq) {
            ServiceRequest request = smallRequest();
            request.tenant = strCat("t", seq % 3);
            request.faultKey = seq + 1;
            if (seq % 2 == 1) {
                request.strategy.kind = StrategyKind::kRandom;
                request.strategy.budget = 4;
                request.strategy.seed = 42 + seq;
            }
            ids.push_back(service.submit(request));
        }
        std::vector<ServiceResponse> responses;
        for (uint64_t id : ids)
            responses.push_back(service.wait(id));
        setFaultConfig(FaultConfig());
        return responses;
    };

    for (bool faulted : {false, true}) {
        std::vector<ServiceResponse> base = runMix(1, faulted);
        if (faulted) {
            size_t point_retries = 0;
            size_t completed = 0;
            for (const ServiceResponse& response : base) {
                point_retries += response.pointRetries;
                completed += response.status == RequestStatus::kCompleted;
            }
            EXPECT_GE(point_retries, 1u) << "the faulted leg retried no point";
            EXPECT_GE(completed, 1u) << "the faulted leg completed nothing";
        }
        for (unsigned concurrency : {2u, 4u}) {
            std::vector<ServiceResponse> got = runMix(concurrency, faulted);
            ASSERT_EQ(got.size(), base.size());
            for (size_t i = 0; i < base.size(); ++i) {
                const ServiceResponse& a = base[i];
                const ServiceResponse& b = got[i];
                EXPECT_EQ(a.status, b.status)
                    << "request " << i << " at concurrency " << concurrency;
                EXPECT_EQ(a.requestRetries, b.requestRetries) << i;
                EXPECT_EQ(a.completed, b.completed) << i;
                ASSERT_EQ(a.results.size(), b.results.size()) << i;
                for (size_t p = 0; p < a.results.size(); ++p)
                    EXPECT_EQ(std::memcmp(&a.results[p], &b.results[p],
                                          sizeof(ServicePoint)),
                              0)
                        << "request " << i << " point " << p;
                ASSERT_EQ(a.failures.size(), b.failures.size()) << i;
                for (size_t f = 0; f < a.failures.size(); ++f) {
                    EXPECT_EQ(a.failures[f].index, b.failures[f].index);
                    EXPECT_EQ(a.failures[f].diag.code,
                              b.failures[f].diag.code);
                }
            }
        }
    }
}

TEST_F(ServiceTest, ShutdownMidSweepYieldsPartialResults)
{
    ServiceOptions options;
    DseService service(options);

    // The blocker sweeps until shutdown, so beginShutdown() lands
    // mid-run.
    const uint64_t id = submitBlocker(service);
    service.beginShutdown();

    ServiceResponse response = service.wait(id);
    ASSERT_EQ(response.status, RequestStatus::kPartial);
    EXPECT_EQ(response.diag.code, ErrorCode::kShutdown);
    EXPECT_EQ(response.results.size(),
              bigGrid(kBlockerRepetitions).size());
    EXPECT_LT(response.evaluated, response.results.size());
}

// ---------------------------------------------------------------------------
// Persistence across service instances (the warm-start acceptance bar).
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, RestartWarmStartsFromPersistentStore)
{
    const std::string path = tempPath("hida_service_warm.qst");
    ServiceOptions options;
    options.storePath = path;
    {
        DseService service(options);
        ServiceResponse response =
            service.wait(service.submit(smallRequest()));
        ASSERT_EQ(response.status, RequestStatus::kCompleted)
            << response.diag.message;
        EXPECT_EQ(response.evaluated, 8u);
        service.shutdown();  // flushes the store
    }
    // "Restarted process": a brand-new service on the same path serves
    // the identical workload entirely from disk — hit rate 100%,
    // comfortably above the >50% acceptance bar.
    DseService service(options);
    ServiceResponse response = service.wait(service.submit(smallRequest()));
    ASSERT_EQ(response.status, RequestStatus::kCompleted);
    EXPECT_EQ(response.storeHits, 8u);
    EXPECT_EQ(response.evaluated, 0u);
    const QorStore::Stats store = service.storeStats();
    EXPECT_EQ(store.restored, 8u);
    EXPECT_GT(static_cast<double>(store.hits),
              0.5 * static_cast<double>(store.hits + store.misses));
    std::remove(path.c_str());
}

TEST_F(ServiceTest, TotalityHoldsUnderMixedFaultTraffic)
{
    // The scaled-down soak: "any"-site faults, mixed strategies, two
    // workers — every request still gets exactly one terminal answer.
    // The spec (seed 4, rate 0.2) leaves the setup verify alone: points
    // and requests fault, most recover, and some points stay failed.
    ServiceOptions options;
    options.sweepThreads = 2;
    options.maxRetries = 2;
    DseService service(options);
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kEstimator) |
                      faultSiteBit(FaultSite::kPass) |
                      faultSiteBit(FaultSite::kVerifier) |
                      faultSiteBit(FaultSite::kStore) |
                      faultSiteBit(FaultSite::kService);
    config.seed = 4;
    config.rate = 0.2;
    setFaultConfig(config);

    std::vector<uint64_t> ids;
    for (size_t seq = 0; seq < 8; ++seq) {
        ServiceRequest request = smallRequest();
        if (seq % 2 == 1) {
            request.strategy.kind = StrategyKind::kRandom;
            request.strategy.budget = 4;
            request.strategy.seed = 42 + seq;
        }
        ids.push_back(service.submit(request));
    }
    size_t terminal = 0;
    size_t point_retries = 0;
    size_t completed = 0;
    for (uint64_t id : ids) {
        ServiceResponse response = service.wait(id);
        EXPECT_TRUE(response.status == RequestStatus::kCompleted ||
                    response.status == RequestStatus::kPartial ||
                    response.status == RequestStatus::kFailed)
            << requestStatusName(response.status);
        ++terminal;
        point_retries += response.pointRetries;
        completed += response.status == RequestStatus::kCompleted;
    }
    setFaultConfig(FaultConfig());
    EXPECT_EQ(terminal, ids.size());
    EXPECT_GE(point_retries, 1u) << "no point ran under a fault";
    EXPECT_GE(completed, 1u) << "no request completed";
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, ids.size());
    EXPECT_EQ(stats.answered, ids.size());
}

TEST_F(ServiceTest, FromEnvReadsTheDocumentedKnobs)
{
    setenv("HIDA_SERVICE_CONCURRENCY", "3", 1);
    setenv("HIDA_SERVICE_WORKERS", "3", 1);
    setenv("HIDA_SERVICE_QUEUE_DEPTH", "5", 1);
    setenv("HIDA_SERVICE_RETRIES", "7", 1);
    setenv("HIDA_SERVICE_TENANT_WEIGHTS", "alice=4,bob=2", 1);
    setenv("HIDA_QOR_STORE", "/tmp/hida-env-store.qst", 1);
    ServiceOptions options = ServiceOptions::fromEnv();
    unsetenv("HIDA_SERVICE_CONCURRENCY");
    unsetenv("HIDA_SERVICE_WORKERS");
    unsetenv("HIDA_SERVICE_QUEUE_DEPTH");
    unsetenv("HIDA_SERVICE_RETRIES");
    unsetenv("HIDA_SERVICE_TENANT_WEIGHTS");
    unsetenv("HIDA_QOR_STORE");
    EXPECT_EQ(options.concurrency, 3u);
    EXPECT_EQ(options.sweepThreads, 3u);
    EXPECT_EQ(options.maxQueueDepth, 5u);
    EXPECT_EQ(options.maxRetries, 7u);
    ASSERT_EQ(options.tenantWeights.size(), 2u);
    EXPECT_EQ(options.tenantWeights["alice"], 4u);
    EXPECT_EQ(options.tenantWeights["bob"], 2u);
    EXPECT_EQ(options.storePath, "/tmp/hida-env-store.qst");

    // Unset knobs keep the struct's defaults; the largest 64-bit weight
    // still parses.
    setenv("HIDA_SERVICE_TENANT_WEIGHTS", "alice=18446744073709551615", 1);
    ServiceOptions defaults = ServiceOptions::fromEnv();
    unsetenv("HIDA_SERVICE_TENANT_WEIGHTS");
    EXPECT_EQ(defaults.sweepThreads, ServiceOptions().sweepThreads);
    EXPECT_EQ(defaults.concurrency, ServiceOptions().concurrency);
    EXPECT_EQ(defaults.maxQueueDepth, ServiceOptions().maxQueueDepth);
    EXPECT_EQ(defaults.maxRetries, ServiceOptions().maxRetries);
    EXPECT_EQ(defaults.tenantWeights["alice"],
              std::numeric_limits<uint64_t>::max());
}

TEST(ServiceDeathTest, TenantWeightBeyond64BitsIsFatal)
{
    // setenv() before EXPECT_EXIT is inherited by the forked child. A
    // weight must fit in 64 bits, as envUint's numbers must: past
    // 2^64 - 1 it is fatal, never wrapped (2^64 + 1 to weight 1).
    auto expectFatal = [](const char* weights) {
        SCOPED_TRACE(weights);
        setenv("HIDA_SERVICE_TENANT_WEIGHTS", weights, 1);
        EXPECT_EXIT(ServiceOptions::fromEnv(),
                    ::testing::ExitedWithCode(kFatalExitCode),
                    "does not fit in 64 bits");
    };
    expectFatal("alice=18446744073709551616");
    expectFatal("alice=18446744073709551617");
    expectFatal("alice=36893488147419103234");
    expectFatal("alice=99999999999999999999999");
    unsetenv("HIDA_SERVICE_TENANT_WEIGHTS");
}

} // namespace
} // namespace hida
