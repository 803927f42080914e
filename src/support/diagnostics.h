#ifndef HIDA_SUPPORT_DIAGNOSTICS_H
#define HIDA_SUPPORT_DIAGNOSTICS_H

/**
 * @file
 * Diagnostic helpers in the gem5 spirit, extended with a structured,
 * recoverable error layer for the DSE engine:
 *
 *  - panic() — internal invariant violations (compiler bugs). Aborts,
 *    always. SIGABRT is the contract scripts use to tell "the compiler
 *    is broken" from "the input was bad".
 *  - fatal() — unrecoverable *user* errors (bad input, bad config).
 *    Flushes and exits with kFatalExitCode (not SIGABRT), so wrappers
 *    and the future service front-end can distinguish the two.
 *  - Diagnostic / Result<T> — recoverable per-point / per-request
 *    errors: a sweep point that fails verification, directive binding
 *    or estimation returns a Diagnostic as *data* instead of killing
 *    the process; the sweep records it and keeps going (see
 *    src/dse/sweep.h).
 *  - warn()/inform()/emitDiagnostic() — serialized under one mutex so
 *    concurrent sweep workers never interleave partial lines; each
 *    worker thread may set a tag (setDiagnosticThreadTag) that prefixes
 *    its lines.
 */

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

namespace hida {

/** Process exit code of fatal(): user error, distinct from SIGABRT. */
inline constexpr int kFatalExitCode = 65;  // BSD EX_DATAERR.

/** Terminate with an internal-error message. Use for compiler bugs only. */
[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);

/** Terminate with a user-facing error (bad input, invalid configuration). */
[[noreturn]] void fatalImpl(const std::string& msg);

/** Print a non-fatal warning to stderr (serialized, tag-prefixed). */
void warn(const std::string& msg);

/** Print an informational message to stderr (serialized, tag-prefixed). */
void inform(const std::string& msg);

/**
 * Tag every diagnostic line this *thread* emits (e.g. "w3" for sweep
 * worker 3). Pass "" to clear. Purely cosmetic: output routing and
 * serialization do not depend on it.
 */
void setDiagnosticThreadTag(std::string tag);

/** This thread's current diagnostic tag ("" when none is set). */
const std::string& diagnosticThreadTag();

/**
 * RAII diagnostic tag for one bounded piece of work on a long-lived
 * thread: installs @p tag for its dynamic extent and restores the
 * previous tag on destruction. Service worker threads are *reused*
 * across requests, so a bare setDiagnosticThreadTag at request start
 * would leak one request's tag into the next tenant's lines — every
 * request-scoped tag must go through this scope (pinned by
 * tests/diagnostics_test.cc).
 */
class DiagnosticTagScope {
  public:
    explicit DiagnosticTagScope(std::string tag);
    ~DiagnosticTagScope();
    DiagnosticTagScope(const DiagnosticTagScope&) = delete;
    DiagnosticTagScope& operator=(const DiagnosticTagScope&) = delete;

  private:
    std::string prev_;
};

/** Concatenate all arguments into a std::string via operator<<. */
template <typename... Args>
std::string
strCat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

//===----------------------------------------------------------------------===//
// Structured recoverable diagnostics
//===----------------------------------------------------------------------===//

/** How bad a structured diagnostic is. kError never aborts by itself —
 * recoverable errors are data; only panic()/fatal() stop the process. */
enum class Severity : uint8_t {
    kNote,
    kWarning,
    kError,
};

/**
 * Stable machine-readable cause codes. Scripts, journals and (later)
 * service responses key on these, so renumbering is a breaking change:
 * append only.
 */
enum class ErrorCode : uint16_t {
    kOk = 0,
    kGenericError = 1,
    kVerifyFailed = 2,       ///< IR verifier rejected the module.
    kInvalidDirective = 3,   ///< Directive/axis binding out of range.
    kPassFailed = 4,         ///< A transform pass failed on this input.
    kEstimatorInvalidInput = 5,  ///< QoR estimator input validation.
    kDeadlineExceeded = 6,   ///< Sweep wall-clock budget exhausted.
    kCancelled = 7,          ///< Cooperative cancellation requested.
    kJournalCorrupt = 8,     ///< Journal record failed its checksum.
    kJournalMismatch = 9,    ///< Journal belongs to a different sweep.
    kFaultInjected = 10,     ///< HIDA_FAULT_INJECT forced this failure.
    kWorkerFailed = 11,      ///< Exception escaped a sweep worker boundary.
    kOverloaded = 12,        ///< Service admission control shed the request.
    kStoreCorrupt = 13,      ///< QoR store record failed validation.
    kShutdown = 14,          ///< Service is shutting down; request not run.
    kInvalidRequest = 15,    ///< Malformed service request (tenant error).
    kParseFailed = 16,       ///< Textual IR could not be parsed.
};

/** Stable name of @p code (e.g. "verify-failed"). */
const char* errorCodeName(ErrorCode code);

/**
 * One structured, recoverable finding: what happened (code + message),
 * how bad (severity), and where (opPath — a printed path like
 * "func @lenet / hida.node #2", best-effort). Cheap to move, safe to
 * carry across threads by value.
 */
struct Diagnostic {
    Severity severity = Severity::kError;
    ErrorCode code = ErrorCode::kGenericError;
    std::string opPath;
    std::string message;

    Diagnostic() = default;
    Diagnostic(ErrorCode c, std::string msg, std::string path = "")
        : code(c), opPath(std::move(path)), message(std::move(msg))
    {
    }

    /** One-line rendering: "error[verify-failed] at <path>: <msg>". */
    std::string str() const;
};

/** Serialized emission of @p diag to stderr (same mutex as warn()). */
void emitDiagnostic(const Diagnostic& diag);

/**
 * A value or a structured failure. The recoverable analog of the old
 * HIDA_FATAL call sites: per-point/per-request error paths return this
 * instead of killing the process. Deliberately minimal — no exceptions,
 * no monadic sugar — so it stays obvious at call sites.
 */
template <typename T>
class Result {
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(Diagnostic diag) : diag_(std::move(diag)) {}

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    T&
    value()
    {
        requireOk();
        return *value_;
    }
    const T&
    value() const
    {
        requireOk();
        return *value_;
    }

    const Diagnostic&
    diag() const
    {
        requireFailed();
        return *diag_;
    }
    /** Move the failure out (e.g. to re-wrap under another Result<T>). */
    Diagnostic
    takeDiag()
    {
        requireFailed();
        return std::move(*diag_);
    }

  private:
    void requireOk() const;
    void requireFailed() const;

    std::optional<T> value_;
    std::optional<Diagnostic> diag_;
};

namespace detail {
[[noreturn]] void resultAccessPanic(const char* what);
} // namespace detail

template <typename T>
void
Result<T>::requireOk() const
{
    if (!value_.has_value())
        detail::resultAccessPanic("value() on a failed Result");
}

template <typename T>
void
Result<T>::requireFailed() const
{
    if (!diag_.has_value())
        detail::resultAccessPanic("diag() on an ok Result");
}

} // namespace hida

#define HIDA_PANIC(...)                                                      \
    ::hida::panicImpl(__FILE__, __LINE__, ::hida::strCat(__VA_ARGS__))
#define HIDA_FATAL(...) ::hida::fatalImpl(::hida::strCat(__VA_ARGS__))

/** Assert an internal invariant; always enabled (cheap checks only). */
#define HIDA_ASSERT(cond, ...)                                                \
    do {                                                                      \
        if (!(cond))                                                          \
            HIDA_PANIC("assertion `" #cond "` failed: ", ##__VA_ARGS__);      \
    } while (false)

#endif // HIDA_SUPPORT_DIAGNOSTICS_H
