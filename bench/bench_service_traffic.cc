/**
 * @file
 * Synthetic heavy-traffic soak of the DSE service core (src/service/):
 * a closed-loop client fleet drives a deterministic multi-tenant mix of
 * fig1-, fig10- and fig11-shaped requests (exhaustive / random-sampled
 * / evolve searches over LeNet factor grids at several batch sizes and
 * both dataflow modes) through one DseService, and the bench reports
 * requests/sec, end-to-end p99, and the queue-wait vs execution-time
 * breakdown that makes scheduler changes attributable.
 *
 * This is the robustness proving ground, not a throughput contest:
 *  - Under HIDA_FAULT_INJECT (store/service/any sites included) every
 *    request must still get exactly one terminal response — the bench
 *    exits non-zero if totality is violated.
 *  - Per-request payloads are digested (in sequence order, independent
 *    of submission interleaving) into "response_digest": the same
 *    workload must produce the same digest at any
 *    HIDA_SERVICE_CONCURRENCY, clean or faulted — scripts/
 *    service_soak.sh compares digests across concurrency 1/2/4.
 *    "result_digest" folds the same payloads without the retry
 *    counts, so a faulted run whose faults all recovered must match
 *    the clean run's; the soak checks that too.
 *  - SIGINT/SIGTERM mid-run drains gracefully: in-flight requests
 *    finish early (partial), queued ones are answered kShutdown, the
 *    store is flushed, and the bench exits 128+sig — so a kill/restart
 *    pair warm-starts from the persistent store (scripts/
 *    service_soak.sh drives exactly that, checks hit rate > 50%, and
 *    requires the restart's "store_records_at_open" to equal the
 *    killed run's "store_records").
 *    The first answered request prints "service traffic: first
 *    response" to stderr, the soak's cue to send the signal.
 *
 * Knobs (all documented in the README table):
 *   HIDA_SERVICE_REQUESTS     total requests to submit (default 60)
 *   HIDA_SERVICE_CLIENTS      closed-loop client threads (default 4)
 *   HIDA_SERVICE_DEADLINE_MS  per-request deadline (0 = none)
 *   HIDA_SERVICE_STATS        JSON output path for bench.sh
 *   HIDA_QOR_STORE, HIDA_SERVICE_CONCURRENCY, HIDA_SERVICE_WORKERS,
 *   HIDA_SERVICE_QUEUE_DEPTH, HIDA_SERVICE_RETRIES,
 *   HIDA_SERVICE_TENANT_WEIGHTS  service tuning (ServiceOptions::fromEnv)
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/dse/grid.h"
#include "src/service/service.h"
#include "src/service/shutdown.h"
#include "src/support/env.h"
#include "src/support/utils.h"

using namespace hida;

namespace {

/** The Table 1 LeNet factor grid (the fig1 design space). */
DesignPointGrid
fullFactorGrid()
{
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    return grid;
}

/** A reduced 32-point slice of the same space: cheap enough that an
 * exhaustive request finishes in service-traffic time. */
DesignPointGrid
smallFactorGrid()
{
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {2, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {2, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 16}, 3, "cpf_loop");
    return grid;
}

/**
 * The deterministic traffic mix, keyed only on the request sequence
 * number so every run (and a restarted run) resubmits the identical
 * workload — which is what makes both the warm-start hit-rate check
 * and the cross-concurrency digest comparison of scripts/
 * service_soak.sh meaningful. Three tenants round-robin the sequence
 * (exercising the fair-queue path), and faultKey pins request-level
 * fault/retry decisions to the sequence number, not to the
 * timing-dependent submission order.
 */
ServiceRequest
shapedRequest(size_t seq, double deadline_seconds)
{
    const int64_t batches[3] = {1, 5, 10};
    ServiceRequest request;
    request.model = "lenet";
    request.batch = batches[(seq / 3) % 3];
    request.dataflow = (seq / 9) % 2 == 0;
    request.deadlineSeconds = deadline_seconds;
    request.tenant = strCat("tenant", seq % 3);
    request.faultKey = seq + 1;
    switch (seq % 3) {
      case 0:  // fig1-shaped: exhaustive over the reduced space
        request.grid = smallFactorGrid();
        request.strategy.kind = StrategyKind::kExhaustive;
        break;
      case 1:  // fig10-shaped: random sample of the full space
        request.grid = fullFactorGrid();
        request.strategy.kind = StrategyKind::kRandom;
        request.strategy.budget = 24;
        request.strategy.seed = 42 + seq;
        break;
      default:  // fig11-shaped: Pareto-guided evolve search
        request.grid = fullFactorGrid();
        request.strategy.kind = StrategyKind::kEvolve;
        request.strategy.budget = 24;
        request.strategy.seed = 42 + seq;
        request.strategy.costLimit = 1.05;
        break;
    }
    return request;
}

/** Everything timing-independent about one terminal response, folded
 * into one hash: status, degraded flag, retry count (unless
 * @p with_retries is false), result bytes, completion bitmap and
 * surviving failures. Counters that legitimately vary with scheduling
 * (storeHits, evaluated, latencies) are excluded by construction.
 * Without the retry count it digests the answer alone, which faults
 * that all recovered leave equal to a clean run's. */
uint64_t
responseDigest(const ServiceResponse& response, bool with_retries)
{
    uint64_t h = hashMix(static_cast<uint64_t>(response.status));
    h = hashCombine(h, response.degraded ? 1 : 0);
    if (with_retries)
        h = hashCombine(h, response.requestRetries);
    for (const ServicePoint& point : response.results) {
        uint64_t bits = 0;
        std::memcpy(&bits, &point.util, sizeof(bits));
        h = hashCombine(h, bits);
        std::memcpy(&bits, &point.throughput, sizeof(bits));
        h = hashCombine(h, bits);
    }
    for (uint8_t done : response.completed)
        h = hashCombine(h, done);
    for (const PointFailure& failure : response.failures) {
        h = hashCombine(h, failure.index);
        h = hashCombine(h, static_cast<uint64_t>(failure.diag.code));
    }
    return h;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[std::min(
        samples.size() - 1,
        static_cast<size_t>(p * static_cast<double>(samples.size())))];
}

/** Per-sequence-slot sample; slots are disjoint across clients, so the
 * fleet fills them without locking. */
struct Sample {
    bool answered = false;
    double latencySeconds = 0.0;
    double queueSeconds = 0.0;
    double runSeconds = 0.0;
    uint64_t digest = 0;
    uint64_t resultDigest = 0;
};

} // namespace

int
main()
{
    installShutdownHandlers();

    const size_t requests = envUint("HIDA_SERVICE_REQUESTS", 60);
    const size_t clients = std::max<uint64_t>(
        1, envUint("HIDA_SERVICE_CLIENTS", 4));
    const double deadline_seconds =
        envDouble("HIDA_SERVICE_DEADLINE_MS", 0.0) / 1000.0;

    ServiceOptions options = ServiceOptions::fromEnv();
    // Soft-degrade from half the hard bound up: bursts answer cheap
    // (sampled, 1/8 budget) instead of queueing into the shed zone.
    if (options.maxQueueDepth > 0)
        options.degradeQueueDepth = std::max<size_t>(
            1, options.maxQueueDepth / 2);
    DseService service(options);
    // What the store adopted from a previous process: the soak compares
    // it with the record count that process left behind.
    const size_t store_records_at_open = service.storeStats().records;

    std::mutex merge_mutex;
    size_t completed = 0, partial = 0, shed = 0, rejected = 0, failed = 0,
           degraded = 0, answered = 0;
    size_t store_hits = 0, points_evaluated = 0, point_failures = 0;
    std::vector<Sample> samples(requests);

    const auto bench_start = std::chrono::steady_clock::now();
    std::vector<std::thread> fleet;
    for (size_t c = 0; c < clients; ++c) {
        fleet.emplace_back([&, c]() {
            // Closed loop: each client walks its own slice of the
            // request sequence, one outstanding request at a time.
            for (size_t seq = c; seq < requests; seq += clients) {
                const auto t0 = std::chrono::steady_clock::now();
                uint64_t id =
                    service.submit(shapedRequest(seq, deadline_seconds));
                ServiceResponse response = service.wait(id);
                Sample& sample = samples[seq];
                sample.answered = true;
                sample.latencySeconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                sample.queueSeconds = response.queueSeconds;
                sample.runSeconds = response.runSeconds;
                sample.digest = responseDigest(response, true);
                sample.resultDigest = responseDigest(response, false);
                std::lock_guard<std::mutex> lock(merge_mutex);
                // The one progress line: a kill-and-restart driver
                // (scripts/service_soak.sh) signals once it appears.
                if (++answered == 1)
                    std::fprintf(stderr,
                                 "service traffic: first response\n");
                store_hits += response.storeHits;
                points_evaluated += response.evaluated;
                point_failures += response.failures.size();
                if (response.degraded)
                    ++degraded;
                switch (response.status) {
                  case RequestStatus::kCompleted:
                    ++completed;
                    break;
                  case RequestStatus::kPartial:
                    ++partial;
                    break;
                  case RequestStatus::kShed:
                    ++shed;
                    break;
                  case RequestStatus::kRejected:
                    ++rejected;
                    break;
                  case RequestStatus::kFailed:
                    ++failed;
                    break;
                }
            }
        });
    }
    for (std::thread& t : fleet)
        t.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      bench_start)
            .count();
    service.shutdown();

    // Totality is the acceptance criterion: every submitted request got
    // exactly one terminal response, even under faults and signals.
    const ServiceStats stats = service.stats();
    if (answered != requests || stats.answered != stats.submitted) {
        std::fprintf(stderr,
                     "FAIL: totality violated (%zu/%zu client responses, "
                     "%zu/%zu service answers)\n",
                     answered, requests, stats.answered, stats.submitted);
        return 1;
    }

    // Sequence-ordered fold over the per-request digests: identical
    // workloads must match at any concurrency x workers combination.
    uint64_t response_digest = hashMix(UINT64_C(0x53564344));  // 'SVCD'
    uint64_t result_digest = response_digest;
    std::vector<double> latencies, queue_waits, exec_times;
    latencies.reserve(requests);
    for (const Sample& sample : samples) {
        if (!sample.answered)
            continue;
        response_digest = hashCombine(response_digest, sample.digest);
        result_digest = hashCombine(result_digest, sample.resultDigest);
        latencies.push_back(sample.latencySeconds);
        queue_waits.push_back(sample.queueSeconds);
        exec_times.push_back(sample.runSeconds);
    }

    const double p99 = percentile(latencies, 0.99);
    const QorStore::Stats store = service.storeStats();
    const size_t lookups = store.hits + store.misses;
    const double hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(store.hits) /
                           static_cast<double>(lookups);
    const double rps = wall <= 0.0 ? 0.0
                                   : static_cast<double>(answered) / wall;
    const double shed_rate =
        requests == 0 ? 0.0
                      : static_cast<double>(shed) /
                            static_cast<double>(requests);

    std::printf("service traffic: %zu requests (%zu clients, "
                "concurrency %u), %.2f req/s, p99 %.3fs\n",
                requests, clients, service.concurrency(), rps, p99);
    std::printf("  breakdown: queue wait p50 %.4fs / p99 %.4fs, "
                "exec p50 %.4fs / p99 %.4fs\n",
                percentile(queue_waits, 0.5), percentile(queue_waits, 0.99),
                percentile(exec_times, 0.5), percentile(exec_times, 0.99));
    std::printf("  terminal: %zu completed, %zu partial, %zu shed, "
                "%zu rejected, %zu failed (%zu degraded)\n",
                completed, partial, shed, rejected, failed, degraded);
    std::printf("  points: %zu evaluated, %zu store hits "
                "(hit rate %.1f%%), retries %zu point / %zu request, "
                "%zu failed points\n",
                points_evaluated, store_hits, hit_rate * 100.0,
                stats.pointRetries, stats.requestRetries, point_failures);
    std::printf("  response digest: %016" PRIx64 "\n", response_digest);
    std::printf("  result digest: %016" PRIx64 "\n", result_digest);

    if (const char* stats_path = std::getenv("HIDA_SERVICE_STATS")) {
        if (*stats_path != '\0') {
            std::FILE* f = std::fopen(stats_path, "w");
            if (f == nullptr)
                HIDA_FATAL("cannot write HIDA_SERVICE_STATS file '",
                           stats_path, "'");
            std::fprintf(
                f,
                "{\n"
                "  \"requests\": %zu,\n"
                "  \"clients\": %zu,\n"
                "  \"concurrency\": %u,\n"
                "  \"requests_per_sec\": %.3f,\n"
                "  \"p99_latency_s\": %.4f,\n"
                "  \"queue_wait_p50_s\": %.4f,\n"
                "  \"queue_wait_p99_s\": %.4f,\n"
                "  \"exec_p50_s\": %.4f,\n"
                "  \"exec_p99_s\": %.4f,\n"
                "  \"shed_rate\": %.4f,\n"
                "  \"store_hit_rate\": %.4f,\n"
                "  \"store_hits\": %zu,\n"
                "  \"store_misses\": %zu,\n"
                "  \"store_records_at_open\": %zu,\n"
                "  \"store_records\": %zu,\n"
                "  \"completed\": %zu,\n"
                "  \"partial\": %zu,\n"
                "  \"shed\": %zu,\n"
                "  \"rejected\": %zu,\n"
                "  \"failed\": %zu,\n"
                "  \"degraded\": %zu,\n"
                "  \"point_retries\": %zu,\n"
                "  \"request_retries\": %zu,\n"
                "  \"point_failures\": %zu,\n"
                "  \"max_in_flight\": %zu,\n"
                "  \"service_submitted\": %zu,\n"
                "  \"service_answered\": %zu,\n"
                "  \"response_digest\": \"%016" PRIx64 "\",\n"
                "  \"result_digest\": \"%016" PRIx64 "\",\n"
                "  \"interrupted\": %s\n"
                "}\n",
                requests, clients, service.concurrency(), rps, p99,
                percentile(queue_waits, 0.5), percentile(queue_waits, 0.99),
                percentile(exec_times, 0.5), percentile(exec_times, 0.99),
                shed_rate, hit_rate, store.hits, store.misses,
                store_records_at_open, store.records, completed,
                partial, shed, rejected, failed, degraded,
                stats.pointRetries, stats.requestRetries, point_failures,
                stats.maxInFlight, stats.submitted, stats.answered,
                response_digest, result_digest,
                shutdownSignal() != 0 ? "true" : "false");
            std::fclose(f);
        }
    }

    // A signal-interrupted run still answered everything (checked
    // above); exit with the conventional code so wrappers see the
    // interrupt, with all state flushed.
    if (int sig = shutdownSignal())
        return shutdownExitCode(sig);
    return 0;
}
