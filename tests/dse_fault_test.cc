/**
 * @file
 * Robustness tests for the resilient DSE engine — the SweepPipeline
 * per-point contract behind runStrategySweep: fault isolation,
 * deterministic fault injection, stop conditions (deadline / cancel /
 * point budget) and the checkpoint journal.
 *
 * The pinned contracts, each at two fan-out grains of the exhaustive
 * sweep: 1, which spreads the 48-point grid over every worker, and the
 * default, which runs it inline on the calling thread:
 *  - Injected failures land at the exact same grid points at 1, 2 or 4
 *    workers, and surviving points are bit-identical to a clean run —
 *    the fault key is the grid index, never a thread or a clock.
 *  - Failures surface as PointFailure records in grid order; the sweep
 *    itself never dies.
 *  - An interrupted sweep (point budget here; wall-clock deadline in the
 *    benches) resumed from its journal reproduces the clean run's
 *    results byte-exactly, including across a truncated or corrupted
 *    journal tail; a resumed evolve search retraces its uninterrupted
 *    run.
 *  - A deadline the clock cannot represent is no deadline.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/dse/journal.h"
#include "src/dse/strategy.h"
#include "src/dse/sweep.h"
#include "src/estimator/qor.h"
#include "src/models/dnn_models.h"
#include "src/support/fault_inject.h"
#include "src/transforms/passes.h"

namespace hida {
namespace {

bool
qorEq(const DesignQor& a, const DesignQor& b)
{
    return a.latencyCycles == b.latencyCycles &&
           a.intervalCycles == b.intervalCycles && a.res.dsp == b.res.dsp &&
           a.res.bram18k == b.res.bram18k && a.res.lut == b.res.lut &&
           a.res.ff == b.res.ff;
}

/** Name of a SweepContractTest grain: one worker per point, or the
 * pool's default. */
std::string
grainName(const ::testing::TestParamInfo<size_t>& info)
{
    return info.param == 1 ? "WorkerPerPoint" : "DefaultGrain";
}

using WorkerFactory = std::function<ResilientWorker<DesignQor>()>;

/**
 * Shared LeNet sweep setup (one compile for the whole suite): the same
 * prototype + 48-point Table 1 sub-grid as dse_parallel_test, evaluated
 * through the resilient CloneSweepWorker recipe of the fig1 bench.
 */
struct LeNetSweep {
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype;
    FlowOptions partitionOptions;
    DesignPointGrid grid;
    std::vector<DesignQor> clean;  ///< A plain serial evaluateChecked loop.

    LeNetSweep() : prototype(buildLeNet(1))
    {
        FlowOptions options = optionsFor(Flow::kHida);
        options.enableTiling = false;
        options.enableParallelization = false;
        compile(prototype.get(), options, device);
        partitionOptions = options;
        partitionOptions.enableParallelization = true;

        grid.addDirectiveAxis("kpf1", {1, 3}, 1, "kpf_loop");
        grid.addDirectiveAxis("kpf2", {1, 4, 16}, 2, "kpf_loop");
        grid.addDirectiveAxis("cpf2", {1, 6}, 2, "cpf_loop");
        grid.addDirectiveAxis("kpf3", {2, 8}, 3, "kpf_loop");
        grid.addDirectiveAxis("cpf3", {1, 16}, 3, "cpf_loop");

        CloneSweepWorker worker(prototype.get(),
                                createArrayPartitionPass(partitionOptions),
                                device);
        std::vector<int64_t> vals;
        for (size_t i = 0; i < grid.size(); ++i) {
            grid.decode(i, vals);
            clean.push_back(worker.evaluateChecked(grid, vals).value());
        }
    }

    WorkerFactory
    factory()
    {
        return [this]() {
            auto w = std::make_shared<CloneSweepWorker>(
                prototype.get(), createArrayPartitionPass(partitionOptions),
                device);
            ResilientWorker<DesignQor> worker;
            worker.evaluate =
                [w, this](size_t,
                          const std::vector<int64_t>& vals)
                -> Result<DesignQor> {
                return w->evaluateChecked(grid, vals);
            };
            worker.recover = [w]() { w->rebuild(); };
            return worker;
        };
    }

    /** Sweep the whole grid (the exhaustive strategy, gray order) at
     * fan-out @p grain under @p scheduler; @p worker_factory defaults
     * to factory(). */
    SweepOutcome<DesignQor>
    run(size_t grain, unsigned threads,
        const SweepLimits& limits = SweepLimits(),
        SweepScheduler scheduler = SweepScheduler::kStealing,
        WorkerFactory worker_factory = nullptr)
    {
        SweepSchedule schedule;
        schedule.scheduler = scheduler;
        schedule.grain = grain;
        return runStrategy(StrategyOptions(), threads, limits, schedule,
                           worker_factory);
    }

    SweepOutcome<DesignQor>
    runStrategy(const StrategyOptions& options, unsigned threads,
                const SweepLimits& limits,
                const SweepSchedule& schedule = SweepSchedule(),
                WorkerFactory worker_factory = nullptr)
    {
        std::unique_ptr<SearchStrategy> strategy = makeStrategy(grid, options);
        return runStrategySweep<DesignQor>(
            grid, *strategy, worker_factory ? worker_factory : factory(),
            [this](size_t index, const DesignQor& q) {
                return ParetoSample{index, q.res.utilization(device),
                                    q.throughput(device)};
            },
            threads, limits, schedule);
    }
};

/** One compile for the whole suite; tests only read it. */
LeNetSweep&
lenet()
{
    static LeNetSweep sweep;
    return sweep;
}

/** Resets the process-wide fault config so tests cannot leak faults. */
class DseFaultTest : public ::testing::Test {
  protected:
    void TearDown() override { setFaultConfig(FaultConfig()); }
};

/** The per-point contract cases, once per fan-out grain. */
class SweepContractTest : public DseFaultTest,
                          public ::testing::WithParamInterface<size_t> {};

INSTANTIATE_TEST_SUITE_P(BothGrains, SweepContractTest,
                         ::testing::Values(size_t{1},
                                           StrategyWorkerPool::kFanOutGrain),
                         grainName);

std::string
tempJournalPath(const std::string& name)
{
    std::string path = ::testing::TempDir() + "hida_" + name + ".jrnl";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return path;
}

//===----------------------------------------------------------------------===//
// Fault isolation and determinism
//===----------------------------------------------------------------------===//

TEST_P(SweepContractTest, CleanRunMatchesSerialLoop)
{
    LeNetSweep& s = lenet();
    SweepOutcome<DesignQor> outcome = s.run(GetParam(), 4);
    ASSERT_EQ(outcome.results.size(), s.grid.size());
    EXPECT_TRUE(outcome.allCompleted());
    EXPECT_TRUE(outcome.failures.empty());
    EXPECT_FALSE(outcome.stats.stopped);
    EXPECT_EQ(outcome.stats.evaluated, s.grid.size());
    EXPECT_EQ(outcome.stats.restored, 0u);
    for (size_t i = 0; i < s.grid.size(); ++i)
        EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i])) << "point " << i;
}

TEST_P(SweepContractTest, InjectedFailuresIdenticalAtAnyThreadCount)
{
    LeNetSweep& s = lenet();
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kEstimator);
    config.seed = 42;
    config.rate = 0.25;
    setFaultConfig(config);

    std::vector<size_t> reference;
    for (unsigned threads : {1u, 2u, 4u}) {
        SweepOutcome<DesignQor> outcome = s.run(GetParam(), threads);
        EXPECT_FALSE(outcome.stats.stopped);

        // (b) failures arrive in grid order as structured records.
        std::vector<size_t> failed;
        for (size_t f = 0; f < outcome.failures.size(); ++f) {
            const PointFailure& failure = outcome.failures[f];
            if (f > 0) {
                EXPECT_LT(outcome.failures[f - 1].index, failure.index);
            }
            EXPECT_EQ(failure.diag.code, ErrorCode::kFaultInjected);
            EXPECT_FALSE(outcome.completed[failure.index]);
            failed.push_back(failure.index);
        }
        ASSERT_FALSE(failed.empty()) << "seed injected nothing";
        ASSERT_LT(failed.size(), s.grid.size()) << "seed killed every point";

        // Failure *set* is a function of (seed, site, index) only.
        if (threads == 1)
            reference = failed;
        else
            EXPECT_EQ(failed, reference) << "threads=" << threads;

        // (a) survivors are bit-identical to the clean run.
        size_t survivors = 0;
        for (size_t i = 0; i < s.grid.size(); ++i) {
            if (!outcome.completed[i])
                continue;
            ++survivors;
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "surviving point " << i << " diverged at threads="
                << threads;
        }
        EXPECT_EQ(survivors + failed.size(), s.grid.size());
    }
}

TEST_P(SweepContractTest, WorkerRecoversAfterMidPipelineFault)
{
    // Pass-site faults fire *after* applyPoint touched the worker's
    // clone: the recover hook (rebuild from the prototype) is what keeps
    // later points on that worker bit-identical to a clean run.
    LeNetSweep& s = lenet();
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kPass);
    config.seed = 7;
    config.rate = 0.2;
    setFaultConfig(config);

    SweepOutcome<DesignQor> outcome = s.run(GetParam(), 2);
    ASSERT_FALSE(outcome.failures.empty());
    for (const PointFailure& failure : outcome.failures)
        EXPECT_EQ(failure.diag.code, ErrorCode::kFaultInjected);
    for (size_t i = 0; i < s.grid.size(); ++i) {
        if (outcome.completed[i]) {
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i << " after a recovery";
        }
    }
}

TEST_F(DseFaultTest, PrototypeVerifierFaultSurfacesBeforeTheSweep)
{
    LeNetSweep& s = lenet();
    EXPECT_FALSE(verifySweepPrototype(s.prototype.get()).has_value());

    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kVerifier);
    config.seed = 1;
    config.rate = 1.0;
    setFaultConfig(config);
    auto diag = verifySweepPrototype(s.prototype.get());
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kFaultInjected);
}

TEST_F(DseFaultTest, InvalidDirectiveFailsThePointNotTheSweep)
{
    LeNetSweep& s = lenet();
    // A bound axis with a non-positive factor: applyPointChecked rejects
    // those points before any IR write; the rest of the grid proceeds.
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {0, 3}, 1, "kpf_loop");
    grid.addDirectiveAxis("kpf3", {2, 8}, 3, "kpf_loop");
    ASSERT_EQ(grid.size(), 4u);

    std::unique_ptr<SearchStrategy> exhaustive =
        makeStrategy(grid, StrategyOptions());
    SweepSchedule schedule;
    schedule.grain = 1;  // Both workers get points.
    SweepOutcome<DesignQor> outcome = runStrategySweep<DesignQor>(
        grid, *exhaustive,
        [&]() {
            auto w = std::make_shared<CloneSweepWorker>(
                s.prototype.get(),
                createArrayPartitionPass(s.partitionOptions), s.device);
            ResilientWorker<DesignQor> worker;
            worker.evaluate =
                [w, &grid](size_t, const std::vector<int64_t>& vals)
                -> Result<DesignQor> {
                return w->evaluateChecked(grid, vals);
            };
            worker.recover = [w]() { w->rebuild(); };
            return worker;
        },
        nullptr, 2, SweepLimits(), schedule);

    // Points 0 and 1 carry kpf1 = 0.
    ASSERT_EQ(outcome.failures.size(), 2u);
    EXPECT_EQ(outcome.failures[0].index, 0u);
    EXPECT_EQ(outcome.failures[1].index, 1u);
    for (const PointFailure& failure : outcome.failures)
        EXPECT_EQ(failure.diag.code, ErrorCode::kInvalidDirective);
    EXPECT_TRUE(outcome.completed[2]);
    EXPECT_TRUE(outcome.completed[3]);
    EXPECT_FALSE(outcome.stats.stopped);
}

//===----------------------------------------------------------------------===//
// Worker-boundary exceptions
//===----------------------------------------------------------------------===//

/**
 * A LeNetSweep factory whose Nth invocation throws — the "worker dies
 * during setup" scenario. Calls are counted process-wide; which OS
 * thread draws the short straw is scheduling-dependent, so tests only
 * assert scheduler-level outcomes, never which slice was lost.
 */
WorkerFactory
throwingFactory(LeNetSweep& s, std::shared_ptr<std::atomic<int>> calls,
                int fatal_call)
{
    auto inner = s.factory();
    return [inner, calls, fatal_call]() {
        if (calls->fetch_add(1) + 1 == fatal_call)
            throw std::runtime_error("worker init blew up");
        return inner();
    };
}

TEST_F(DseFaultTest, WorkerFactoryExceptionBecomesDiagnostic)
{
    // Static scheduler, two workers, one factory throws: the sweep must
    // survive, report the dead worker as a kWorkerFailed Diagnostic
    // (not a crash, not `stopped`), and leave exactly the dead worker's
    // fixed slice unevaluated.
    LeNetSweep& s = lenet();
    auto calls = std::make_shared<std::atomic<int>>(0);
    SweepOutcome<DesignQor> outcome =
        s.run(1, 2, SweepLimits(), SweepScheduler::kStatic,
              throwingFactory(s, calls, 2));

    ASSERT_EQ(outcome.stats.workerFailures.size(), 1u);
    EXPECT_EQ(outcome.stats.workerFailures[0].code,
              ErrorCode::kWorkerFailed);
    EXPECT_FALSE(outcome.stats.stopped);
    EXPECT_TRUE(outcome.failures.empty());
    EXPECT_FALSE(outcome.allCompleted());
    size_t completed = 0;
    for (size_t i = 0; i < s.grid.size(); ++i)
        if (outcome.completed[i]) {
            ++completed;
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
        }
    // Static halves of a 48-point grid: the survivor finished its 24.
    EXPECT_EQ(completed, s.grid.size() / 2);
}

TEST_F(DseFaultTest, StealingRescuesADeadWorkersShard)
{
    // Same dead worker, stealing scheduler: the survivor drains the
    // dead worker's slot, so the sweep still completes every point —
    // the failure is reported but costs coverage nothing.
    LeNetSweep& s = lenet();
    auto calls = std::make_shared<std::atomic<int>>(0);
    SweepOutcome<DesignQor> outcome =
        s.run(1, 2, SweepLimits(), SweepScheduler::kStealing,
              throwingFactory(s, calls, 2));

    ASSERT_EQ(outcome.stats.workerFailures.size(), 1u);
    EXPECT_EQ(outcome.stats.workerFailures[0].code,
              ErrorCode::kWorkerFailed);
    EXPECT_FALSE(outcome.stats.stopped);
    EXPECT_TRUE(outcome.allCompleted());
    for (size_t i = 0; i < s.grid.size(); ++i)
        EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i])) << "point " << i;
}

TEST_P(SweepContractTest, EvaluatorExceptionBecomesPointFailure)
{
    // An exception escaping worker.evaluate is a *per-point* failure:
    // the worker recovers and keeps its slice; only the throwing point
    // is lost, as a structured kWorkerFailed record.
    LeNetSweep& s = lenet();
    constexpr size_t kBadIndex = 7;
    auto inner = s.factory();
    SweepOutcome<DesignQor> outcome = s.run(
        GetParam(), 2, SweepLimits(), SweepScheduler::kStealing, [&]() {
            ResilientWorker<DesignQor> worker = inner();
            auto evaluate = worker.evaluate;
            worker.evaluate =
                [evaluate](size_t index, const std::vector<int64_t>& vals)
                -> Result<DesignQor> {
                if (index == kBadIndex)
                    throw std::runtime_error("estimator exploded");
                return evaluate(index, vals);
            };
            return worker;
        });

    EXPECT_TRUE(outcome.stats.workerFailures.empty());
    EXPECT_FALSE(outcome.stats.stopped);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, kBadIndex);
    EXPECT_EQ(outcome.failures[0].diag.code, ErrorCode::kWorkerFailed);
    EXPECT_FALSE(outcome.completed[kBadIndex]);
    for (size_t i = 0; i < s.grid.size(); ++i)
        if (i != kBadIndex) {
            ASSERT_TRUE(outcome.completed[i]) << "point " << i;
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
        }
}

//===----------------------------------------------------------------------===//
// Stop conditions
//===----------------------------------------------------------------------===//

TEST_P(SweepContractTest, ExpiredDeadlineStopsBetweenPoints)
{
    LeNetSweep& s = lenet();
    SweepLimits limits;
    limits.deadlineSeconds = 1e-9;  // expired by the first check
    SweepOutcome<DesignQor> outcome = s.run(GetParam(), 2, limits);
    EXPECT_TRUE(outcome.stats.stopped);
    ASSERT_TRUE(outcome.stats.stopReason.has_value());
    EXPECT_EQ(outcome.stats.stopReason->code, ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(outcome.stats.evaluated, 0u);
    EXPECT_FALSE(outcome.allCompleted());
    EXPECT_TRUE(outcome.failures.empty());
}

TEST_P(SweepContractTest, UnrepresentableDeadlineIsNoDeadline)
{
    // Past about 9.2e9 s a deadline overflows the steady clock's int64
    // nanoseconds. Converting it anyway is undefined behavior that on
    // x86 lands in the past and stops the sweep before its first point.
    LeNetSweep& s = lenet();
    for (double seconds : {1e12, std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(seconds);
        SweepLimits limits;
        limits.deadlineSeconds = seconds;
        SweepOutcome<DesignQor> outcome = s.run(GetParam(), 2, limits);
        EXPECT_FALSE(outcome.stats.stopped);
        EXPECT_FALSE(outcome.stats.stopReason.has_value());
        EXPECT_TRUE(outcome.allCompleted());
        EXPECT_EQ(outcome.stats.evaluated, s.grid.size());
    }
}

TEST_P(SweepContractTest, CancelTokenStopsAllShards)
{
    LeNetSweep& s = lenet();
    CancelToken cancel;
    cancel.cancel();
    SweepLimits limits;
    limits.cancel = &cancel;
    SweepOutcome<DesignQor> outcome = s.run(GetParam(), 2, limits);
    EXPECT_TRUE(outcome.stats.stopped);
    ASSERT_TRUE(outcome.stats.stopReason.has_value());
    EXPECT_EQ(outcome.stats.stopReason->code, ErrorCode::kCancelled);
    EXPECT_EQ(outcome.stats.evaluated, 0u);
}

//===----------------------------------------------------------------------===//
// Checkpoint / resume
//===----------------------------------------------------------------------===//

TEST_P(SweepContractTest, InterruptedSweepResumesFromJournalByteExactly)
{
    LeNetSweep& s = lenet();
    std::string path = tempJournalPath("resume");

    // Leg 1: one worker, hard point budget — a deterministic "kill" 12
    // points in. The engine flushes the journal on the way out.
    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, s.grid.contentHash(),
                                  sizeof(DesignQor)));
        SweepLimits limits;
        limits.pointBudget = 12;
        limits.journal = &journal;
        SweepOutcome<DesignQor> outcome = s.run(GetParam(), 1, limits);
        EXPECT_TRUE(outcome.stats.stopped);
        ASSERT_TRUE(outcome.stats.stopReason.has_value());
        EXPECT_EQ(outcome.stats.stopReason->code, ErrorCode::kCancelled);
        EXPECT_EQ(outcome.stats.evaluated, 12u);
        EXPECT_FALSE(outcome.allCompleted());
    }

    // Leg 2: a fresh process would open the journal anew; 4 workers.
    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, s.grid.contentHash(),
                                  sizeof(DesignQor)));
        EXPECT_EQ(journal.size(), 12u);
        SweepLimits limits;
        limits.journal = &journal;
        SweepOutcome<DesignQor> outcome = s.run(GetParam(), 4, limits);
        EXPECT_TRUE(outcome.allCompleted());
        EXPECT_FALSE(outcome.stats.stopped);
        EXPECT_EQ(outcome.stats.restored, 12u);
        EXPECT_EQ(outcome.stats.evaluated, s.grid.size() - 12u);
        // The resumed run's merged results are the clean run's results —
        // restored points byte-exactly, re-evaluated points by the
        // engine's determinism. This is the output_sha256 guarantee.
        for (size_t i = 0; i < s.grid.size(); ++i)
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
    }
    std::remove(path.c_str());
}

TEST_P(SweepContractTest, GrayStealingResumeIsByteExactToo)
{
    // The journal contract is order- and scheduler-agnostic: a sweep
    // interrupted under {gray, stealing, 2 threads} — where *which* 12
    // points got journaled is timing-dependent once both workers run —
    // still resumes to the clean run's exact results, because records
    // key on the grid index and point fingerprint, never on enumeration
    // position.
    LeNetSweep& s = lenet();
    std::string path = tempJournalPath("gray_steal_resume");

    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, s.grid.contentHash(),
                                  sizeof(DesignQor)));
        SweepLimits limits;
        limits.pointBudget = 12;
        limits.journal = &journal;
        SweepOutcome<DesignQor> outcome =
            s.run(GetParam(), 2, limits, SweepScheduler::kStealing);
        EXPECT_TRUE(outcome.stats.stopped);
        // The budget is exact even with workers racing for points.
        EXPECT_EQ(outcome.stats.evaluated, 12u);
        EXPECT_FALSE(outcome.allCompleted());
    }
    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, s.grid.contentHash(),
                                  sizeof(DesignQor)));
        EXPECT_EQ(journal.size(), 12u);
        SweepLimits limits;
        limits.journal = &journal;
        SweepOutcome<DesignQor> outcome =
            s.run(GetParam(), 4, limits, SweepScheduler::kStealing);
        EXPECT_TRUE(outcome.allCompleted());
        EXPECT_FALSE(outcome.stats.stopped);
        EXPECT_EQ(outcome.stats.restored, 12u);
        EXPECT_EQ(outcome.stats.evaluated, s.grid.size() - 12u);
        for (size_t i = 0; i < s.grid.size(); ++i)
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
    }
    std::remove(path.c_str());
}

TEST_P(SweepContractTest, CorruptedJournalTailIsDroppedAndResumeStillMatches)
{
    LeNetSweep& s = lenet();
    std::string path = tempJournalPath("corrupt");

    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, s.grid.contentHash(),
                                  sizeof(DesignQor)));
        SweepLimits limits;
        limits.pointBudget = 12;
        limits.journal = &journal;
        s.run(GetParam(), 1, limits);
    }

    // Chop off the last 5 bytes — a crash mid-append.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 5u);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 5));
    }

    {
        SweepJournal journal;
        auto diag = journal.open(path, s.grid.contentHash(),
                                 sizeof(DesignQor));
        ASSERT_TRUE(diag.has_value());
        EXPECT_EQ(diag->code, ErrorCode::kJournalCorrupt);
        EXPECT_EQ(journal.loadStats().restored, 11u);
        EXPECT_EQ(journal.loadStats().droppedCorrupt, 1u);

        SweepLimits limits;
        limits.journal = &journal;
        SweepOutcome<DesignQor> outcome = s.run(GetParam(), 2, limits);
        EXPECT_TRUE(outcome.allCompleted());
        EXPECT_EQ(outcome.stats.restored, 11u);
        for (size_t i = 0; i < s.grid.size(); ++i)
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
    }
    std::remove(path.c_str());
}

TEST_F(DseFaultTest, ResumedEvolveSearchRetracesTheUninterruptedRun)
{
    // Journal-restored points must reach the strategy exactly like
    // evaluated ones: otherwise the resumed search learns less than the
    // uninterrupted one and proposes different later batches.
    LeNetSweep& s = lenet();
    StrategyOptions options;
    options.kind = StrategyKind::kEvolve;
    options.seed = 9;
    options.budget = 24;
    options.costLimit = 1.05;
    SweepOutcome<DesignQor> uninterrupted =
        s.runStrategy(options, 2, SweepLimits());
    ASSERT_EQ(uninterrupted.stats.evaluated, 24u);

    std::string path = tempJournalPath("evolve_resume");
    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, s.grid.contentHash(),
                                  sizeof(DesignQor)));
        SweepLimits limits;
        limits.pointBudget = 12;
        limits.journal = &journal;
        SweepOutcome<DesignQor> cut = s.runStrategy(options, 1, limits);
        EXPECT_TRUE(cut.stats.stopped);
        EXPECT_EQ(cut.stats.evaluated, 12u);
    }
    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, s.grid.contentHash(),
                                  sizeof(DesignQor)));
        SweepLimits limits;
        limits.journal = &journal;
        SweepOutcome<DesignQor> resumed = s.runStrategy(options, 2, limits);
        EXPECT_FALSE(resumed.stats.stopped);
        EXPECT_EQ(resumed.stats.restored, 12u);
        EXPECT_EQ(resumed.stats.evaluated, 12u);
        ASSERT_EQ(resumed.completed, uninterrupted.completed);
        for (size_t i = 0; i < s.grid.size(); ++i) {
            if (uninterrupted.completed[i]) {
                EXPECT_TRUE(
                    qorEq(resumed.results[i], uninterrupted.results[i]))
                    << "point " << i;
            }
        }
    }
    std::remove(path.c_str());
}

//===----------------------------------------------------------------------===//
// Journal mechanics (no sweep needed)
//===----------------------------------------------------------------------===//

TEST(SweepJournalTest, GridHashesArePinnedForJournalCompatibility)
{
    // The persistent QoR store keys its records on point fingerprints
    // and journals pin the grid hash in their header, so a change to how
    // these are computed must never change the numbers: a store written
    // by an older build has to keep hitting. (A journal from before
    // record version 2 reads as a mismatch and is rewritten.)
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    grid.addAxis("batch", {1, 5, 10});
    EXPECT_EQ(DesignPointGrid().contentHash(), 0x53a5db9473f9bcacull);
    EXPECT_EQ(grid.contentHash(), 0xd085b2eeaaebe019ull);
    EXPECT_EQ(grid.pointFingerprint(0), 0x5a47d3e3e71356c3ull);
    EXPECT_EQ(grid.pointFingerprint(1234), 0x430c55f47803e67dull);
    EXPECT_EQ(grid.pointFingerprint(grid.size() - 1), 0x8596a2a1a3e7c0a5ull);
}

TEST(SweepJournalTest, RoundTripsRecordsAcrossInstances)
{
    std::string path =
        ::testing::TempDir() + "hida_journal_roundtrip.jrnl";
    std::remove(path.c_str());
    constexpr uint64_t kGrid = 0xfeedULL;

    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, kGrid, sizeof(uint64_t)));
        for (uint64_t i = 0; i < 10; ++i) {
            uint64_t payload = 1000 + i;
            journal.record(i, /*fingerprint=*/i * 31, &payload);
        }
        journal.flush();
        EXPECT_EQ(journal.size(), 10u);
    }
    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, kGrid, sizeof(uint64_t)));
        EXPECT_EQ(journal.loadStats().restored, 10u);
        uint64_t payload = 0;
        ASSERT_TRUE(journal.restore(3, 3 * 31, &payload));
        EXPECT_EQ(payload, 1003u);
        // Wrong fingerprint: the record is never trusted.
        EXPECT_FALSE(journal.restore(3, 999, &payload));
        EXPECT_FALSE(journal.restore(77, 0, &payload));
    }
    std::remove(path.c_str());
}

TEST(SweepJournalTest, BatchingFlushesEveryNRecords)
{
    std::string path = ::testing::TempDir() + "hida_journal_batch.jrnl";
    std::remove(path.c_str());

    SweepJournal writer;
    ASSERT_FALSE(writer.open(path, 1, sizeof(uint64_t)));
    for (uint64_t i = 0; i < 150; ++i) {
        uint64_t payload = i;
        writer.record(i, i, &payload);
    }
    // No explicit flush: 128 records (two full batches of 64) must
    // already be durable; the last partial batch is only in memory.
    SweepJournal reader;
    ASSERT_FALSE(reader.open(path, 1, sizeof(uint64_t)));
    EXPECT_EQ(reader.loadStats().restored, 128u);
    writer.flush();
    ASSERT_FALSE(reader.open(path, 1, sizeof(uint64_t)));
    EXPECT_EQ(reader.loadStats().restored, 150u);
    std::remove(path.c_str());
}

TEST(SweepJournalTest, RejectsForeignJournals)
{
    std::string path = ::testing::TempDir() + "hida_journal_foreign.jrnl";
    std::remove(path.c_str());

    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, /*grid_hash=*/111,
                                  sizeof(uint64_t)));
        uint64_t payload = 5;
        journal.record(0, 0, &payload);
        journal.flush();
    }
    // Different grid: mismatch, nothing adopted, journal still usable.
    {
        SweepJournal journal;
        auto diag = journal.open(path, /*grid_hash=*/222, sizeof(uint64_t));
        ASSERT_TRUE(diag.has_value());
        EXPECT_EQ(diag->code, ErrorCode::kJournalMismatch);
        EXPECT_TRUE(journal.loadStats().headerMismatch);
        EXPECT_EQ(journal.size(), 0u);
    }
    // Different payload size: also a mismatch, never a misread.
    {
        SweepJournal journal;
        auto diag = journal.open(path, /*grid_hash=*/111, 16);
        ASSERT_TRUE(diag.has_value());
        EXPECT_EQ(diag->code, ErrorCode::kJournalMismatch);
    }
    // Not a journal at all.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "definitely not a journal";
    }
    {
        SweepJournal journal;
        auto diag = journal.open(path, 111, sizeof(uint64_t));
        ASSERT_TRUE(diag.has_value());
        EXPECT_EQ(diag->code, ErrorCode::kJournalMismatch);
    }
    std::remove(path.c_str());
}

TEST(SweepJournalTest, StaleTmpFromCrashedFlushIsRemovedOnOpen)
{
    std::string path = ::testing::TempDir() + "hida_journal_staletmp.jrnl";
    std::string tmp = path + ".tmp";
    std::remove(path.c_str());
    std::remove(tmp.c_str());

    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, 5, sizeof(uint64_t)));
        uint64_t payload = 17;
        journal.record(0, 0, &payload);
        journal.flush();
    }
    // A crash between the snapshot write and the rename orphans a torn
    // "<path>.tmp" next to the trusted complete journal.
    {
        std::ofstream out(tmp, std::ios::binary);
        out << "torn partial snapshot";
    }
    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, 5, sizeof(uint64_t)));
        // The main file is the trusted one — fully adopted...
        EXPECT_EQ(journal.loadStats().restored, 1u);
        uint64_t payload = 0;
        EXPECT_TRUE(journal.restore(0, 0, &payload));
        EXPECT_EQ(payload, 17u);
        // ...and the orphan is gone instead of accumulating forever.
        std::ifstream probe(tmp, std::ios::binary);
        EXPECT_FALSE(probe.good()) << "stale .tmp survived open()";
    }
    std::remove(path.c_str());
}

TEST(SweepJournalTest, CorruptedByteInvalidatesOnlyTheTail)
{
    std::string path = ::testing::TempDir() + "hida_journal_bitrot.jrnl";
    std::remove(path.c_str());

    {
        SweepJournal journal;
        ASSERT_FALSE(journal.open(path, 9, sizeof(uint64_t)));
        for (uint64_t i = 0; i < 6; ++i) {
            uint64_t payload = i * 7;
            journal.record(i, i, &payload);
        }
        journal.flush();
    }
    // Flip one payload byte of record 3 (records are written in index
    // order: 24-byte header + 32 bytes per record, payload at +16).
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const size_t target = 24 + 3 * 32 + 16;
    ASSERT_GT(bytes.size(), target);
    bytes[target] = static_cast<char>(bytes[target] ^ 0x5a);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    SweepJournal journal;
    auto diag = journal.open(path, 9, sizeof(uint64_t));
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kJournalCorrupt);
    // Truncate-to-last-good: records 0-2 survive, 3+ are dropped.
    EXPECT_EQ(journal.loadStats().restored, 3u);
    EXPECT_EQ(journal.loadStats().droppedCorrupt, 1u);
    uint64_t payload = 0;
    EXPECT_TRUE(journal.restore(2, 2, &payload));
    EXPECT_EQ(payload, 14u);
    EXPECT_FALSE(journal.restore(3, 3, &payload));
    std::remove(path.c_str());
}

} // namespace
} // namespace hida
