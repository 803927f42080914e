/**
 * @file
 * Tests for the structured diagnostics layer and the deterministic
 * fault-injection harness:
 *
 *  - Exit-code contract: fatal() (user error) exits with the pinned
 *    kFatalExitCode; panic() (compiler bug) dies by SIGABRT. Scripts
 *    and the future DSE service tell the two apart by this.
 *  - Serialized sink: concurrent warn()/inform() calls never
 *    interleave partial lines; thread tags prefix worker output.
 *  - Diagnostic/Result<T> mechanics and stable error-code names.
 *  - HIDA_FAULT_INJECT parsing and the injection determinism contract:
 *    a verdict depends only on (seed, site, key), never on the thread
 *    evaluating it.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "src/support/diagnostics.h"
#include "src/support/fault_inject.h"

namespace hida {
namespace {

//===----------------------------------------------------------------------===//
// Exit-code contract (satellite: fatal != abort)
//===----------------------------------------------------------------------===//

TEST(DiagnosticsDeathTest, FatalExitsWithPinnedUserErrorCode)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The code is part of the tool contract — pin the value itself.
    EXPECT_EQ(kFatalExitCode, 65);
    EXPECT_EXIT(HIDA_FATAL("bad input ", 42),
                ::testing::ExitedWithCode(kFatalExitCode),
                "fatal: bad input 42");
}

TEST(DiagnosticsDeathTest, PanicDiesBySigabrt)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(HIDA_PANIC("broken invariant"),
                ::testing::KilledBySignal(SIGABRT), "panic: broken invariant");
}

TEST(DiagnosticsDeathTest, AssertGoesThroughPanic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(HIDA_ASSERT(1 == 2, "math"),
                ::testing::KilledBySignal(SIGABRT), "assertion");
}

TEST(DiagnosticsDeathTest, ResultMisusePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Result<int> failed(Diagnostic(ErrorCode::kGenericError, "nope"));
    EXPECT_EXIT(failed.value(), ::testing::KilledBySignal(SIGABRT),
                "Result misuse");
    Result<int> fine(7);
    EXPECT_EXIT(fine.diag(), ::testing::KilledBySignal(SIGABRT),
                "Result misuse");
}

//===----------------------------------------------------------------------===//
// Diagnostic / Result mechanics
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, ResultCarriesValueOrDiagnostic)
{
    Result<int> ok(41);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 41);

    Result<int> bad(Diagnostic(ErrorCode::kInvalidDirective, "factor 0",
                               "axis 'kpf1'"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.diag().code, ErrorCode::kInvalidDirective);
    EXPECT_EQ(bad.diag().opPath, "axis 'kpf1'");
    Diagnostic moved = bad.takeDiag();
    EXPECT_EQ(moved.message, "factor 0");
}

TEST(DiagnosticsTest, DiagnosticRendersOneLine)
{
    Diagnostic diag(ErrorCode::kVerifyFailed, "operand does not dominate",
                    "func @lenet");
    EXPECT_EQ(diag.str(),
              "error[verify-failed] at func @lenet: operand does not "
              "dominate");
    diag.severity = Severity::kWarning;
    diag.opPath.clear();
    EXPECT_EQ(diag.str(),
              "warning[verify-failed]: operand does not dominate");
}

TEST(DiagnosticsTest, ErrorCodeNamesAreStable)
{
    // Journals/scripts key on these: renaming is a breaking change.
    EXPECT_STREQ(errorCodeName(ErrorCode::kOk), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::kVerifyFailed), "verify-failed");
    EXPECT_STREQ(errorCodeName(ErrorCode::kInvalidDirective),
                 "invalid-directive");
    EXPECT_STREQ(errorCodeName(ErrorCode::kPassFailed), "pass-failed");
    EXPECT_STREQ(errorCodeName(ErrorCode::kEstimatorInvalidInput),
                 "estimator-invalid-input");
    EXPECT_STREQ(errorCodeName(ErrorCode::kDeadlineExceeded),
                 "deadline-exceeded");
    EXPECT_STREQ(errorCodeName(ErrorCode::kCancelled), "cancelled");
    EXPECT_STREQ(errorCodeName(ErrorCode::kJournalCorrupt),
                 "journal-corrupt");
    EXPECT_STREQ(errorCodeName(ErrorCode::kJournalMismatch),
                 "journal-mismatch");
    EXPECT_STREQ(errorCodeName(ErrorCode::kFaultInjected), "fault-injected");
    EXPECT_STREQ(errorCodeName(ErrorCode::kWorkerFailed), "worker-failed");
    EXPECT_STREQ(errorCodeName(ErrorCode::kOverloaded), "overloaded");
    EXPECT_STREQ(errorCodeName(ErrorCode::kStoreCorrupt), "store-corrupt");
    EXPECT_STREQ(errorCodeName(ErrorCode::kShutdown), "shutdown");
    EXPECT_STREQ(errorCodeName(ErrorCode::kInvalidRequest),
                 "invalid-request");
    EXPECT_STREQ(errorCodeName(ErrorCode::kParseFailed), "parse-failed");
}

//===----------------------------------------------------------------------===//
// Serialized sink (satellite: thread-safe warn/inform)
//===----------------------------------------------------------------------===//

TEST(DiagnosticSinkTest, ConcurrentWarnsNeverInterleave)
{
    constexpr int kThreads = 8;
    constexpr int kLines = 200;
    ::testing::internal::CaptureStderr();
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < kThreads; ++t) {
            pool.emplace_back([t]() {
                // Long, thread-distinct payloads: pre-fix interleaving
                // would shear these lines apart.
                std::string payload(120, static_cast<char>('a' + t));
                for (int i = 0; i < kLines; ++i)
                    warn(payload);
            });
        }
        for (std::thread& t : pool)
            t.join();
    }
    std::string captured = ::testing::internal::GetCapturedStderr();

    int intact = 0;
    size_t pos = 0;
    while (pos < captured.size()) {
        size_t eol = captured.find('\n', pos);
        ASSERT_NE(eol, std::string::npos) << "unterminated line";
        std::string line = captured.substr(pos, eol - pos);
        pos = eol + 1;
        ASSERT_EQ(line.size(), 6u + 120u) << "sheared line: " << line;
        ASSERT_EQ(line.substr(0, 6), "warn: ");
        char c = line[6];
        ASSERT_EQ(line.substr(6), std::string(120, c)) << line;
        ++intact;
    }
    EXPECT_EQ(intact, kThreads * kLines);
}

TEST(DiagnosticSinkTest, ThreadTagPrefixesLines)
{
    ::testing::internal::CaptureStderr();
    std::thread worker([]() {
        setDiagnosticThreadTag("w3");
        warn("tagged");
        setDiagnosticThreadTag("");
        inform("untagged");
    });
    worker.join();
    std::string captured = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(captured.find("warn[w3]: tagged\n"), std::string::npos)
        << captured;
    EXPECT_NE(captured.find("info: untagged\n"), std::string::npos)
        << captured;
}

TEST(DiagnosticSinkTest, TagScopeRestoresOnRequestBoundary)
{
    // The DSE service runs many tenants' requests on one long-lived
    // dispatcher thread. A bare setDiagnosticThreadTag would leak one
    // request's tag into the next tenant's log lines; the RAII scope
    // pins the reset-on-request-boundary contract.
    std::thread dispatcher([]() {
        setDiagnosticThreadTag("svc");
        EXPECT_EQ(diagnosticThreadTag(), "svc");
        {
            DiagnosticTagScope request("req1");
            EXPECT_EQ(diagnosticThreadTag(), "req1");
            {
                DiagnosticTagScope nested("req1/point7");
                EXPECT_EQ(diagnosticThreadTag(), "req1/point7");
            }
            EXPECT_EQ(diagnosticThreadTag(), "req1");
        }
        // Request done: the thread is back to its pool-level tag, not
        // tagless and not stuck on the previous tenant.
        EXPECT_EQ(diagnosticThreadTag(), "svc");

        ::testing::internal::CaptureStderr();
        {
            DiagnosticTagScope request("req2");
            warn("inside");
        }
        warn("outside");
        std::string captured = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(captured.find("warn[req2]: inside\n"), std::string::npos)
            << captured;
        EXPECT_NE(captured.find("warn[svc]: outside\n"), std::string::npos)
            << captured;
        setDiagnosticThreadTag("");
    });
    dispatcher.join();
}

TEST(DiagnosticSinkTest, EmitDiagnosticUsesSink)
{
    ::testing::internal::CaptureStderr();
    emitDiagnostic(Diagnostic(ErrorCode::kPassFailed, "boom", "pass 'x'"));
    std::string captured = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(captured, "diag: error[pass-failed] at pass 'x': boom\n");
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

class FaultInjectTest : public ::testing::Test {
  protected:
    void TearDown() override { setFaultConfig(FaultConfig()); }
};

TEST_F(FaultInjectTest, ParsesWellFormedSpecs)
{
    auto config = parseFaultConfig("estimator:42:0.01");
    ASSERT_TRUE(config.has_value());
    EXPECT_TRUE(config->enabled);
    EXPECT_EQ(config->siteMask, faultSiteBit(FaultSite::kEstimator));
    EXPECT_EQ(config->seed, 42u);
    EXPECT_DOUBLE_EQ(config->rate, 0.01);

    config = parseFaultConfig("store:3:0.5");
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->siteMask, faultSiteBit(FaultSite::kStore));

    config = parseFaultConfig("service:4:0.5");
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->siteMask, faultSiteBit(FaultSite::kService));

    // "any" covers every instrumented site, including the service-era
    // store and service sites.
    config = parseFaultConfig("any:7:1");
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->siteMask, faultSiteBit(FaultSite::kEstimator) |
                                    faultSiteBit(FaultSite::kPass) |
                                    faultSiteBit(FaultSite::kVerifier) |
                                    faultSiteBit(FaultSite::kStore) |
                                    faultSiteBit(FaultSite::kService));

    // Rate 0 parses but disables injection (a documented off switch).
    config = parseFaultConfig("pass:1:0");
    ASSERT_TRUE(config.has_value());
    EXPECT_FALSE(config->enabled);
}

TEST_F(FaultInjectTest, RejectsMalformedSpecs)
{
    EXPECT_FALSE(parseFaultConfig("").has_value());
    EXPECT_FALSE(parseFaultConfig("estimator").has_value());
    EXPECT_FALSE(parseFaultConfig("estimator:42").has_value());
    EXPECT_FALSE(parseFaultConfig("gremlins:42:0.1").has_value());
    EXPECT_FALSE(parseFaultConfig("estimator:x:0.1").has_value());
    EXPECT_FALSE(parseFaultConfig("estimator:42:nope").has_value());
    EXPECT_FALSE(parseFaultConfig("estimator:42:1.5").has_value());
    EXPECT_FALSE(parseFaultConfig("estimator:42:-0.1").has_value());
}

TEST_F(FaultInjectTest, FiresOnlyUnderAScope)
{
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kEstimator);
    config.seed = 1;
    config.rate = 1.0;
    setFaultConfig(config);

    EXPECT_FALSE(shouldInjectFault(FaultSite::kEstimator)) << "no scope";
    {
        FaultScope scope(5);
        EXPECT_TRUE(shouldInjectFault(FaultSite::kEstimator));
        EXPECT_FALSE(shouldInjectFault(FaultSite::kPass))
            << "unselected site";
    }
    EXPECT_FALSE(shouldInjectFault(FaultSite::kEstimator)) << "scope popped";
}

TEST_F(FaultInjectTest, VerdictDependsOnlyOnSeedSiteAndKey)
{
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kPass);
    config.seed = 1234;
    config.rate = 0.3;
    setFaultConfig(config);

    // Reference verdicts from this thread.
    std::vector<bool> reference;
    for (uint64_t key = 0; key < 256; ++key) {
        FaultScope scope(key);
        reference.push_back(shouldInjectFault(FaultSite::kPass));
    }
    size_t fired = 0;
    for (bool b : reference)
        fired += b;
    // ~30% of 256; generous determinism-friendly bounds.
    EXPECT_GT(fired, 40u);
    EXPECT_LT(fired, 140u);

    // Any other thread sees the exact same verdicts for the same keys.
    std::vector<std::thread> pool;
    std::vector<std::vector<bool>> per_thread(4);
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([t, &per_thread]() {
            for (uint64_t key = 0; key < 256; ++key) {
                FaultScope scope(key);
                per_thread[t].push_back(shouldInjectFault(FaultSite::kPass));
            }
        });
    }
    for (std::thread& t : pool)
        t.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(per_thread[t], reference) << "thread " << t;

    // A different seed moves the set; a kFaultInjected diagnostic names
    // the site.
    config.seed = 99;
    setFaultConfig(config);
    std::vector<bool> reseeded;
    for (uint64_t key = 0; key < 256; ++key) {
        FaultScope scope(key);
        reseeded.push_back(shouldInjectFault(FaultSite::kPass));
    }
    EXPECT_NE(reseeded, reference);

    config.rate = 1.0;
    setFaultConfig(config);
    FaultScope scope(17);
    auto diag = maybeInjectFault(FaultSite::kPass, "pass 'unit-test'");
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kFaultInjected);
    EXPECT_EQ(diag->opPath, "pass 'unit-test'");
    EXPECT_NE(diag->message.find("pass"), std::string::npos);
}

TEST_F(FaultInjectTest, ScopesNest)
{
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kVerifier);
    config.seed = 5;
    config.rate = 1.0;
    setFaultConfig(config);

    FaultScope outer(1);
    EXPECT_TRUE(shouldInjectFault(FaultSite::kVerifier));
    {
        FaultScope inner(2);
        EXPECT_TRUE(shouldInjectFault(FaultSite::kVerifier));
    }
    EXPECT_TRUE(shouldInjectFault(FaultSite::kVerifier));
}

} // namespace
} // namespace hida
