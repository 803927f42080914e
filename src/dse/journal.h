#ifndef HIDA_DSE_JOURNAL_H
#define HIDA_DSE_JOURNAL_H

/**
 * @file
 * Crash-safe sweep checkpoint journal: workers append completed
 * (point index, directive fingerprint, QoR payload) records; a
 * restarted sweep loads the journal and skips every journaled point,
 * so interrupted work resumes instead of restarting.
 *
 * The file is a RecordLog (src/dse/record_log.h) keyed by point index,
 * whose header pins the grid's content hash and the payload size, so a
 * journal can never be resumed against a different sweep shape. A
 * record's payload is the point fingerprint (8 bytes) followed by the
 * QoR payload. Every RecordLog::kBatchRecords-th queued record appends
 * the batch; a corrupt or short tail is dropped (those points are
 * simply re-evaluated) and reported, never fatal.
 *
 * Thread safety: record()/restore()/flush()/size() may be called from
 * any sweep worker — workers share a journal by design (the one
 * deliberate exception to the ROADMAP's strictly-per-worker rule, like
 * the failure-merge lock). open() is driver-thread only: bind and load
 * before any worker touches the journal. Restored payloads are
 * byte-exact copies of what the dead run computed, which is what lets
 * a resumed sweep reproduce a clean run's output hash.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "src/dse/record_log.h"
#include "src/support/diagnostics.h"

namespace hida {

class SweepJournal {
  public:
    /**
     * Bind the journal to @p path for a sweep with @p grid_hash
     * (DesignPointGrid::contentHash) and @p payload_size bytes per
     * record, then load whatever a previous run left there. Returns a
     * *recoverable* kJournalMismatch/kJournalCorrupt Diagnostic when
     * the existing file was rejected or had a corrupt tail — the
     * journal is usable either way (a mismatched file, including one
     * of an older record version, is rewritten by the next flush).
     */
    std::optional<Diagnostic> open(std::string path, uint64_t grid_hash,
                                   size_t payload_size);

    size_t payloadSize() const { return payloadSize_; }
    const RecordLog::LoadStats& loadStats() const { return log_.loadStats(); }
    /** Number of records currently held (loaded + appended). */
    size_t size() const { return log_.size(); }

    /**
     * Copy the journaled payload of @p index into @p out (payloadSize
     * bytes) if a record exists *and* its directive fingerprint matches
     * @p expected_fp (DesignPointGrid::pointFingerprint). A fingerprint
     * mismatch means the record belongs to a different design point —
     * it is ignored, never trusted.
     */
    bool restore(size_t index, uint64_t expected_fp, void* out) const;

    /** Hold one completed point; appends every kBatchRecords. */
    void record(size_t index, uint64_t fingerprint, const void* payload);

    /** Append every record not yet on disk. */
    void flush() { log_.flush(); }

  private:
    size_t payloadSize_ = 0;
    RecordLog log_;
};

} // namespace hida

#endif // HIDA_DSE_JOURNAL_H
