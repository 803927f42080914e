#include "src/support/diagnostics.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace hida {

namespace {

/**
 * One process-wide mutex serializes every diagnostic line: concurrent
 * sweep workers used to interleave partial warn() lines on stderr.
 * Each line is fully composed before the lock is taken, so the
 * critical section is a single stream write.
 */
std::mutex&
sinkMutex()
{
    static std::mutex mutex;
    return mutex;
}

thread_local std::string g_thread_tag;

/** Compose "prefix[tag]: msg" and write it as one serialized line. */
void
emitLine(const char* prefix, const std::string& msg)
{
    std::string line;
    line.reserve(msg.size() + g_thread_tag.size() + 16);
    line += prefix;
    if (!g_thread_tag.empty()) {
        line += '[';
        line += g_thread_tag;
        line += ']';
    }
    line += ": ";
    line += msg;
    line += '\n';
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::cerr << line << std::flush;
}

} // namespace

void
setDiagnosticThreadTag(std::string tag)
{
    g_thread_tag = std::move(tag);
}

const std::string&
diagnosticThreadTag()
{
    return g_thread_tag;
}

DiagnosticTagScope::DiagnosticTagScope(std::string tag)
    : prev_(std::move(g_thread_tag))
{
    g_thread_tag = std::move(tag);
}

DiagnosticTagScope::~DiagnosticTagScope() { g_thread_tag = std::move(prev_); }

void
panicImpl(const char* file, int line, const std::string& msg)
{
    emitLine("panic", strCat(msg, "\n  at ", file, ":", line));
    std::abort();
}

void
fatalImpl(const std::string& msg)
{
    emitLine("fatal", msg);
    // User error, not a compiler bug: flush everything and exit with the
    // pinned code so wrappers can tell the two apart (SIGABRT = bug).
    std::cout.flush();
    std::fflush(nullptr);
    std::exit(kFatalExitCode);
}

void
warn(const std::string& msg)
{
    emitLine("warn", msg);
}

void
inform(const std::string& msg)
{
    emitLine("info", msg);
}

const char*
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kOk:
        return "ok";
      case ErrorCode::kGenericError:
        return "generic-error";
      case ErrorCode::kVerifyFailed:
        return "verify-failed";
      case ErrorCode::kInvalidDirective:
        return "invalid-directive";
      case ErrorCode::kPassFailed:
        return "pass-failed";
      case ErrorCode::kEstimatorInvalidInput:
        return "estimator-invalid-input";
      case ErrorCode::kDeadlineExceeded:
        return "deadline-exceeded";
      case ErrorCode::kCancelled:
        return "cancelled";
      case ErrorCode::kJournalCorrupt:
        return "journal-corrupt";
      case ErrorCode::kJournalMismatch:
        return "journal-mismatch";
      case ErrorCode::kFaultInjected:
        return "fault-injected";
      case ErrorCode::kWorkerFailed:
        return "worker-failed";
      case ErrorCode::kOverloaded:
        return "overloaded";
      case ErrorCode::kStoreCorrupt:
        return "store-corrupt";
      case ErrorCode::kShutdown:
        return "shutdown";
      case ErrorCode::kInvalidRequest:
        return "invalid-request";
      case ErrorCode::kParseFailed:
        return "parse-failed";
    }
    return "unknown";
}

std::string
Diagnostic::str() const
{
    const char* sev = severity == Severity::kNote      ? "note"
                      : severity == Severity::kWarning ? "warning"
                                                       : "error";
    std::string out = strCat(sev, "[", errorCodeName(code), "]");
    if (!opPath.empty())
        out += strCat(" at ", opPath);
    out += strCat(": ", message);
    return out;
}

void
emitDiagnostic(const Diagnostic& diag)
{
    emitLine("diag", diag.str());
}

namespace detail {

void
resultAccessPanic(const char* what)
{
    HIDA_PANIC("Result misuse: ", what);
}

} // namespace detail

} // namespace hida
