#ifndef HIDA_DSE_QOR_STORE_H
#define HIDA_DSE_QOR_STORE_H

/**
 * @file
 * Crash-safe persistent QoR store: a fingerprint-keyed on-disk memo of
 * evaluated design-point results that outlives any single process.
 * Where SweepJournal checkpoints *one* sweep (keyed by point index,
 * pinned to one grid hash), the store memoizes *across* sweeps,
 * processes and tenants: keys are caller-composed process-independent
 * fingerprints (e.g. hashCombine(model hash, pointFingerprint)), so a
 * cold service, a CI run or another tenant warm-starts from results a
 * previous process computed. Bind via HIDA_QOR_STORE (see
 * docs/service.md).
 *
 * The file is a RecordLog (src/dse/record_log.h) keyed by fingerprint.
 * Its header's tag is a caller-chosen process-independent hash of the
 * payload *meaning* (schema + estimator semantics version), so a store
 * can never poison a reader that interprets payloads differently.
 * Corrupt or foreign bytes are degraded to misses (reported as
 * recoverable kStoreCorrupt Diagnostics) and never trusted — the worst
 * a damaged store can do is force recomputation.
 *
 * Fault injection: lookup() is a FaultSite::kStore site — under
 * HIDA_FAULT_INJECT=store:seed:rate a deterministic subset of lookups
 * (keyed on the thread's FaultScope key, i.e. the grid point index) is
 * forced to miss, exercising the recompute path without changing
 * results.
 *
 * Thread safety: all methods after open() are safe to call from any
 * thread — service worker pools and concurrent requests share a store
 * by design. The record table sits under the RecordLog's lookup lock;
 * the hit/miss counters are relaxed atomics beside it, so stats()
 * takes no lock. insert() never performs I/O; the owner drains the
 * queue off the hot path — the DSE service's housekeeping thread
 * flushes when needsFlush() on its tick. open() itself is
 * driver-thread only, like SweepJournal::open().
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "src/dse/record_log.h"
#include "src/support/diagnostics.h"

namespace hida {

class QorStore {
  public:
    /** Running counters; hits/misses are monotone across requests. */
    struct Stats {
        size_t restored = 0;        ///< Intact records adopted on open.
        size_t droppedCorrupt = 0;  ///< Checksum/short-read records dropped.
        bool headerMismatch = false;  ///< Foreign/old file ignored on open.
        size_t hits = 0;            ///< lookup() served from memory.
        size_t misses = 0;          ///< lookup() absent (incl. injected).
        size_t injectedMisses = 0;  ///< Misses forced by FaultSite::kStore.
        size_t records = 0;         ///< Keys held (adopted + inserted).
    };

    /**
     * Bind to @p path with @p content_tag (process-independent payload
     * schema hash) and @p payload_size bytes per record, then adopt
     * whatever a previous process left there. Returns a *recoverable*
     * kStoreCorrupt Diagnostic when the file was foreign or had corrupt
     * records — the store is usable either way (bad bytes become
     * misses). An empty @p path leaves the store disk-less (pure
     * in-memory memo; every method still works).
     *
     * Driver-thread only, before workers share the store.
     */
    std::optional<Diagnostic> open(std::string path, uint64_t content_tag,
                                   size_t payload_size);

    size_t payloadSize() const { return log_.payloadSize(); }

    /** Number of records currently held (adopted + inserted). */
    size_t size() const { return log_.size(); }

    /** Counter snapshot; takes no lock, so concurrent lookups may land
     * between the counters it reads. */
    Stats stats() const;

    /**
     * Copy the stored payload for @p key into @p out (payloadSize
     * bytes). A miss — absent key, or a deterministic FaultSite::kStore
     * injection — returns false; the caller recomputes and insert()s.
     */
    bool lookup(uint64_t key, void* out);

    /** Memoize one computed payload; never performs I/O. */
    void insert(uint64_t key, const void* payload) { log_.put(key, payload); }

    /** True once a batch of inserts is queued for disk — the
     * housekeeping thread's cheap flush poll. */
    bool
    needsFlush() const
    {
        return log_.queued() >= RecordLog::kBatchRecords;
    }

    /** Append every record not yet on disk. */
    void flush() { log_.flush(); }

  private:
    RecordLog log_;
    /** Bumped by every lookup on every lane, so they get a cache line
     * of their own: on a line shared with the service's cancel token,
     * which follows the store and which every sweep polls before each
     * point, each bump would stall the other lanes' stop checks. */
    alignas(64) std::atomic<size_t> hits_{0};
    std::atomic<size_t> misses_{0};
    std::atomic<size_t> injectedMisses_{0};
};

} // namespace hida

#endif // HIDA_DSE_QOR_STORE_H
