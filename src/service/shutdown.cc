#include "src/service/shutdown.h"

#include <atomic>
#include <csignal>
#include <cstdlib>

namespace hida {

namespace {

std::atomic<int> g_shutdown_signal{0};

/** Built before any handler can run (installShutdownHandlers touches it
 * first), so the handler only ever sees a constructed token. */
CancelToken&
shutdownToken()
{
    static CancelToken token;
    return token;
}

extern "C" void
shutdownHandler(int sig)
{
    int expected = 0;
    if (!g_shutdown_signal.compare_exchange_strong(expected, sig)) {
        // Second signal: the graceful path is presumed stuck. A torn
        // append costs only its own records (the next load drops the
        // short tail), so an immediate exit is safe.
        std::_Exit(shutdownExitCode(sig));
    }
    // Lock-free atomic store: async-signal-safe. Cooperative loops
    // polling the token do the actual draining and flushing.
    shutdownToken().cancel();
}

} // namespace

CancelToken&
processShutdownToken()
{
    return shutdownToken();
}

void
installShutdownHandlers()
{
    // Touch the token so its magic-static construction happens-before
    // any handler invocation.
    (void)shutdownToken();
    struct sigaction action = {};
    action.sa_handler = shutdownHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: interrupt blocking syscalls
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

int
shutdownSignal()
{
    return g_shutdown_signal.load(std::memory_order_acquire);
}

int
shutdownExitCode(int sig)
{
    return 128 + sig;
}

} // namespace hida
