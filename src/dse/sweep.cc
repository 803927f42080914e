#include "src/dse/sweep.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "src/ir/verifier.h"
#include "src/support/env.h"

namespace hida {

void
WorkQueue::reset(size_t count, size_t workers, SweepScheduler scheduler)
{
    HIDA_ASSERT(workers > 0, "work queue needs at least one worker");
    scheduler_ = scheduler;
    // deque has no resize-in-place guarantee for shrinking mutexes
    // mid-use; reset only runs between rounds, so rebuilding is safe.
    if (slots_.size() != workers) {
        slots_.clear();
        for (size_t w = 0; w < workers; ++w)
            slots_.emplace_back();
    }
    for (size_t w = 0; w < workers; ++w) {
        Slot& slot = slots_[w];
        std::lock_guard<std::mutex> lock(slot.mutex);
        slot.next = count * w / workers;
        slot.end = count * (w + 1) / workers;
    }
    if (scheduler == SweepScheduler::kStatic) {
        // One take() hands the owner its whole range: byte-for-byte the
        // fixed-shard behavior.
        chunk_ = std::max<size_t>(count, 1);
    } else {
        // Small enough that stragglers can be relieved, large enough
        // that queue traffic stays negligible next to point evaluation.
        chunk_ = std::clamp<size_t>(count / (workers * 16), 1, kMaxChunk);
    }
}

bool
WorkQueue::take(size_t self, size_t* begin, size_t* end)
{
    HIDA_ASSERT(self < slots_.size(), "worker index out of range");
    Slot& own = slots_[self];
    {
        std::lock_guard<std::mutex> lock(own.mutex);
        if (own.next < own.end) {
            *begin = own.next;
            *end = std::min(own.next + chunk_, own.end);
            own.next = *end;
            return true;
        }
    }
    if (scheduler_ == SweepScheduler::kStatic)
        return false;
    // Own slot is dry: steal the back half of some victim's remainder
    // and adopt it. Locks are taken one slot at a time (never nested),
    // so there is no ordering to get wrong. A singleton remainder is
    // stolen whole (mid == victim.next): unclaimed points are protected
    // by the slot mutex, and a worker that died in its factory never
    // comes back for its last point — the thief must be able to drain
    // the slot completely or fault rescue strands that point.
    for (size_t off = 1; off < slots_.size(); ++off) {
        size_t v = (self + off) % slots_.size();
        Slot& victim = slots_[v];
        size_t stolen_begin = 0;
        size_t stolen_end = 0;
        {
            std::lock_guard<std::mutex> lock(victim.mutex);
            size_t remaining = victim.end - victim.next;
            if (remaining == 0)
                continue;
            size_t mid = victim.next + remaining / 2;
            stolen_begin = mid;
            stolen_end = victim.end;
            victim.end = mid;
        }
        std::lock_guard<std::mutex> lock(own.mutex);
        own.next = stolen_begin;
        own.end = stolen_end;
        *begin = own.next;
        *end = std::min(own.next + chunk_, own.end);
        own.next = *end;
        return true;
    }
    // Every slot looked empty at the instant we scanned it. A
    // concurrent adoption may still surface work in another slot right
    // after — retiring here is benign (the adopter finishes it); work
    // is never lost, only slightly imbalanced at the very end.
    return false;
}

std::optional<Diagnostic>
guardWorker(size_t index, FunctionRef<void()> fn)
{
    std::string what;
    try {
        fn();
        return std::nullopt;
    } catch (const std::exception& e) {
        what = e.what();
    } catch (...) {
        what = "unknown exception";
    }
    Diagnostic diag(ErrorCode::kWorkerFailed,
                    strCat("exception escaped sweep worker: ", what),
                    strCat("worker w", index));
    emitDiagnostic(diag);
    return diag;
}

std::optional<Diagnostic>
verifySweepPrototype(ModuleOp prototype)
{
    // The setup fault scope lets HIDA_FAULT_INJECT force this path.
    FaultScope scope(kFaultSetupKey);
    return verifyToDiagnostic(prototype.op(), "sweep prototype");
}

std::optional<std::chrono::steady_clock::time_point>
sweepDeadline(double seconds)
{
    using Clock = std::chrono::steady_clock;
    if (!(seconds > 0.0))
        return std::nullopt;
    const Clock::time_point now = Clock::now();
    const Clock::duration headroom = Clock::time_point::max() - now;
    // Compare in clock ticks as doubles: converting an out-of-range
    // double to the integer tick count is undefined behavior (on x86 it
    // lands in the past, so the deadline expires at once).
    const double ticks =
        std::chrono::duration<double, Clock::period>(
            std::chrono::duration<double>(seconds))
            .count();
    if (!(ticks < static_cast<double>(headroom.count())))
        return std::nullopt;
    return now + std::min(Clock::duration(static_cast<Clock::rep>(ticks)),
                          headroom);
}

unsigned
dseHardwareConcurrency()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
dseThreadCount()
{
    const char* env = std::getenv("HIDA_BENCH_THREADS");
    if (env == nullptr || *env == '\0')
        return dseHardwareConcurrency();
    // envUint already rejects garbage, signs, trailing characters and
    // 64-bit overflow with exit kFatalExitCode (the old atoi parse
    // silently fell back on "abc" and truncated "4x" to 4).
    uint64_t value = envUint("HIDA_BENCH_THREADS", 0);
    if (value == 0 || value > std::numeric_limits<unsigned>::max())
        HIDA_FATAL("invalid HIDA_BENCH_THREADS '", env,
                   "': expected a positive worker count");
    return static_cast<unsigned>(value);
}

} // namespace hida
