#ifndef HIDA_SERVICE_SHUTDOWN_H
#define HIDA_SERVICE_SHUTDOWN_H

/**
 * @file
 * Process-wide graceful-shutdown plumbing shared by the DSE service and
 * the long-running benches: SIGINT/SIGTERM flip one async-signal-safe
 * CancelToken that every cooperative loop (sweeps via SweepLimits,
 * the service dispatcher, bench drivers) observes between points, so an
 * interrupt drains in-flight work and flushes journals/stores instead
 * of dying mid-write.
 *
 * Handler contract:
 *  - First SIGINT/SIGTERM: record the signal and cancel the token
 *    (both lock-free atomic stores — async-signal-safe). Everything
 *    else (draining, flushing, exiting 128+sig) happens on normal
 *    threads that poll the token.
 *  - Second signal: the process is presumed stuck; _exit(128+sig)
 *    immediately (safe: a journal or store append torn by the exit
 *    costs only its own records, which the next load drops).
 */

#include "src/dse/sweep.h"

namespace hida {

/**
 * The token the signal handler cancels. Chain request/sweep tokens to
 * it (CancelToken::chain) or pass it straight as SweepLimits::cancel.
 * Valid (and uncancelled) until installShutdownHandlers() runs and a
 * signal arrives.
 */
CancelToken& processShutdownToken();

/**
 * Install the SIGINT/SIGTERM handlers described above. Idempotent;
 * call from main() before starting long-running work. Not meant for
 * worker threads — signal disposition is process-wide anyway.
 */
void installShutdownHandlers();

/** The first shutdown signal received (0 when none yet). */
int shutdownSignal();

/** Conventional exit code for "terminated by signal": 128 + sig. */
int shutdownExitCode(int sig);

} // namespace hida

#endif // HIDA_SERVICE_SHUTDOWN_H
