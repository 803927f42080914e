#include "src/dse/journal.h"

#include <cstring>
#include <vector>

namespace hida {

namespace {

/** Version 2 moved the fingerprint into the checksummed payload; a
 * version 1 journal reads as a mismatch. */
constexpr RecordLog::Format kFormat = {"sweep journal", "HIDAJRN1", 2};

} // namespace

std::optional<Diagnostic>
SweepJournal::open(std::string path, uint64_t grid_hash, size_t payload_size)
{
    payloadSize_ = payload_size;
    const size_t record_payload = sizeof(uint64_t) + payload_size;
    const RecordLog::LoadStats& stats =
        log_.open(std::move(path), kFormat, record_payload, grid_hash);
    if (stats.headerMismatch)
        return Diagnostic(
            ErrorCode::kJournalMismatch,
            strCat("journal '", log_.path(),
                   "' belongs to a different sweep or journal version (or "
                   "is not a journal); starting fresh"),
            "sweep journal");
    if (stats.droppedCorrupt > 0)
        return Diagnostic(
            ErrorCode::kJournalCorrupt,
            strCat("journal '", log_.path(), "' has a corrupt tail; kept ",
                   stats.restored, " intact records and dropped the rest"),
            "sweep journal");
    return std::nullopt;
}

bool
SweepJournal::restore(size_t index, uint64_t expected_fp, void* out) const
{
    return log_.read(index, [&](const uint8_t* record) {
        if (record == nullptr)
            return false;
        uint64_t fingerprint = 0;
        std::memcpy(&fingerprint, record, sizeof(fingerprint));
        if (fingerprint != expected_fp)
            return false;
        std::memcpy(out, record + sizeof(fingerprint), payloadSize_);
        return true;
    });
}

void
SweepJournal::record(size_t index, uint64_t fingerprint, const void* payload)
{
    std::vector<uint8_t> bytes(sizeof(fingerprint) + payloadSize_);
    std::memcpy(bytes.data(), &fingerprint, sizeof(fingerprint));
    std::memcpy(bytes.data() + sizeof(fingerprint), payload, payloadSize_);
    // Append at each multiple of the batch, so after a failed write the
    // next attempt waits for another full batch.
    const size_t queued = log_.put(index, bytes.data());
    if (queued != 0 && queued % RecordLog::kBatchRecords == 0)
        log_.flush();
}

} // namespace hida
