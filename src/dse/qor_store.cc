#include "src/dse/qor_store.h"

#include <cstring>

#include "src/support/fault_inject.h"

namespace hida {

namespace {

/** Version 1: files written before RecordLog stay readable. */
constexpr RecordLog::Format kFormat = {"qor store", "HIDAQST1", 1};

} // namespace

std::optional<Diagnostic>
QorStore::open(std::string path, uint64_t content_tag, size_t payload_size)
{
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    injectedMisses_.store(0, std::memory_order_relaxed);
    const RecordLog::LoadStats& stats =
        log_.open(std::move(path), kFormat, payload_size, content_tag);
    if (stats.headerMismatch)
        return Diagnostic(
            ErrorCode::kStoreCorrupt,
            strCat("qor store '", log_.path(),
                   "' is foreign or from an incompatible version; treating "
                   "all entries as misses"),
            "qor store");
    if (stats.droppedCorrupt > 0)
        return Diagnostic(
            ErrorCode::kStoreCorrupt,
            strCat("qor store '", log_.path(), "' has corrupt records; kept ",
                   stats.restored, " intact entries and dropped the rest"),
            "qor store");
    return std::nullopt;
}

QorStore::Stats
QorStore::stats() const
{
    Stats stats;
    const RecordLog::LoadStats& load = log_.loadStats();
    stats.restored = load.restored;
    stats.droppedCorrupt = load.droppedCorrupt;
    stats.headerMismatch = load.headerMismatch;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.injectedMisses = injectedMisses_.load(std::memory_order_relaxed);
    stats.records = log_.size();
    return stats;
}

bool
QorStore::lookup(uint64_t key, void* out)
{
    // The injection verdict depends only on (seed, site, FaultScope
    // key), so a forced miss lands on the same points at any thread
    // count — and a miss only costs a recompute of the same value.
    if (shouldInjectFault(FaultSite::kStore)) {
        injectedMisses_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    const bool hit = log_.read(key, [&](const uint8_t* payload) {
        if (payload == nullptr)
            return false;
        std::memcpy(out, payload, log_.payloadSize());
        return true;
    });
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return hit;
}

} // namespace hida
