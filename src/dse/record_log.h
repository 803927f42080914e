#ifndef HIDA_DSE_RECORD_LOG_H
#define HIDA_DSE_RECORD_LOG_H

/**
 * @file
 * Append-only record file: the one reader and writer of the files
 * behind SweepJournal and QorStore, which keep a key -> fixed-size
 * payload table in memory and on disk.
 *
 * Format: a 24-byte header {magic[8], version u32, payload size u32,
 * tag u64}, then (key u64, payload, checksum u64) records. The checksum
 * is hashMix(key) folded with each payload byte by hashCombine. A later
 * record of a key supersedes an earlier one.
 *
 * Memory: one open-addressing table, payloads inline. Capacity is a
 * power of two; a key probes linearly from hashMix(key), and a control
 * byte per slot (0 = empty, else a tag of the hash) tracks occupancy
 * apart from the key, so every 64-bit key is legal. The table doubles
 * past a 7/8 load, so a store record (8-byte key, 16-byte payload,
 * control byte) costs 29-57 bytes between doublings and at most 86
 * while one runs, against about 88 for a hash-map node plus a heap
 * payload.
 *
 * Durability model:
 *  - put() changes the table and queues the record when the key's bytes
 *    changed; flush() appends the queue in one write after the last
 *    good byte. A crash loses at most the queue and leaves a torn tail.
 *  - open() adopts records up to the first short or corrupt one and
 *    truncates the file there, so later appends follow good records. A
 *    file that is absent or has a foreign header is rewritten from a
 *    fresh header at the first flush; it is never trusted.
 *  - A failed write is cut back off the file and its records stay
 *    queued for the next flush. The log warns once until a flush
 *    succeeds again.
 *
 * Thread safety: open() is driver-thread only, before the log is
 * shared. Everything else may run on any thread. One lookup lock
 * guards the table (growth included) and the queue; flush() holds it
 * only to take the queue, and a second lock serializes writers. A file
 * has one writer: two live logs on one path append over each other,
 * and a later load drops the damage as corrupt records (misses, never
 * wrong values).
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hida {

class RecordLog {
  public:
    /** Records per flush batch: the journal flushes at each multiple,
     * the store's owner once this many are queued. */
    static constexpr size_t kBatchRecords = 64;

    /** What open() found in a pre-existing file. */
    struct LoadStats {
        size_t restored = 0;          ///< Intact records adopted.
        size_t droppedCorrupt = 0;    ///< Short/checksum-failed tail records.
        bool headerMismatch = false;  ///< Wrong magic/version/size/tag.
    };

    /** One file kind; a file whose header differs is foreign. */
    struct Format {
        const char* name;   ///< Prefix of warnings, e.g. "sweep journal".
        const char* magic;  ///< Exactly 8 characters.
        uint32_t version;   ///< Bump on any change of record meaning.
    };

    /**
     * Bind to @p path and adopt what a previous process left there. An
     * empty @p path keeps the log in memory: puts queue nothing. A
     * stale "<path>.tmp", which the whole-file flush of older builds
     * left behind when a crash hit between write and rename, is removed.
     */
    const LoadStats& open(std::string path, const Format& format,
                          size_t payload_size, uint64_t tag);

    const std::string& path() const { return path_; }
    size_t payloadSize() const { return payloadSize_; }
    const LoadStats& loadStats() const { return loadStats_; }
    /** Number of keys held (adopted + put); reads no lock. */
    size_t size() const { return count_.load(std::memory_order_relaxed); }
    /** Records put since the last successful flush. */
    size_t queued() const;

    /**
     * Return @p fn(payload) run under the lookup lock, where payload
     * points at @p key's payloadSize() bytes, or is null when the key
     * is absent. The pointer is into the table, which the next put may
     * move: @p fn copies what it needs and must not keep it.
     */
    template <typename Fn>
    auto
    read(uint64_t key, Fn&& fn) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return fn(find(key));
    }

    /** Hold @p payload under @p key and queue it unless the key already
     * held these bytes. Never performs I/O. Returns queued(). */
    size_t put(uint64_t key, const void* payload);

    /** Append the queued records to the file in one write. */
    void flush();

  private:
    size_t recordSize() const { return payloadSize_ + 2 * sizeof(uint64_t); }
    /** Table slot bytes: the key, then the payload. */
    size_t slotSize() const { return payloadSize_ + sizeof(uint64_t); }
    /** @p key's payload in the table, or null. Lookup lock held. */
    const uint8_t* find(uint64_t key) const;
    /** @p key's payload in the table, claimed (growing the table first
     * if due) when absent; @p fresh says which. Lookup lock held. */
    uint8_t* claim(uint64_t key, bool& fresh);
    /** The slot holding @p key, or the empty slot its probe ends at. */
    size_t probe(uint64_t key, uint64_t hash) const;
    /** Rehash into twice the capacity (16 slots when empty). */
    void grow();
    bool append(const std::vector<uint8_t>& records);

    std::string path_;
    Format format_ = {"", "", 0};
    size_t payloadSize_ = 0;
    uint64_t tag_ = 0;
    LoadStats loadStats_;

    mutable std::mutex mutex_;  ///< The lookup lock.
    /** Per slot: 0 when empty, else 0x80 | the top 7 bits of the hash. */
    std::unique_ptr<uint8_t[]> control_;
    std::unique_ptr<uint8_t[]> slots_;  ///< capacity_ * slotSize() bytes.
    size_t capacity_ = 0;               ///< A power of two, or 0.
    std::atomic<size_t> count_{0};      ///< Occupied slots; written locked.
    std::vector<uint8_t> queue_;        ///< Serialized records, oldest first.

    std::mutex flushMutex_;
    size_t fileEnd_ = 0;    ///< Bytes known good on disk; 0: no header.
    bool failing_ = false;  ///< The last flush failed and warned.
};

} // namespace hida

#endif // HIDA_DSE_RECORD_LOG_H
