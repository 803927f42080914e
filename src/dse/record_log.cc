#include "src/dse/record_log.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/support/diagnostics.h"
#include "src/support/utils.h"

namespace hida {

namespace {

struct Header {
    char magic[8];
    uint32_t version;
    uint32_t payloadSize;
    uint64_t tag;
};
static_assert(sizeof(Header) == 24, "record log header layout drifted");

uint64_t
recordChecksum(uint64_t key, const uint8_t* payload, size_t payload_size)
{
    uint64_t h = hashMix(key);
    for (size_t i = 0; i < payload_size; ++i)
        h = hashCombine(h, payload[i]);
    return h;
}

/** The most occupied slots per slot: past a 7/8 load the table
 * doubles. The control tags keep long probes cheap, since a probe
 * reads a slot only when its tag matches. */
constexpr size_t kLoadNum = 7;
constexpr size_t kLoadDen = 8;

uint8_t
controlTag(uint64_t hash)
{
    return static_cast<uint8_t>(0x80 | (hash >> 57));
}

/** Cut @p path back to @p size bytes; failure leaves a tail the next
 * load stops at. */
void
truncateFile(const std::string& path, size_t size)
{
    std::error_code ignored;
    std::filesystem::resize_file(path, size, ignored);
}

} // namespace

const RecordLog::LoadStats&
RecordLog::open(std::string path, const Format& format, size_t payload_size,
                uint64_t tag)
{
    path_ = std::move(path);
    format_ = format;
    payloadSize_ = payload_size;
    tag_ = tag;
    loadStats_ = LoadStats();
    control_.reset();
    slots_.reset();
    capacity_ = 0;
    count_.store(0, std::memory_order_relaxed);
    queue_.clear();
    fileEnd_ = 0;
    failing_ = false;
    if (path_.empty())
        return loadStats_;
    std::remove((path_ + ".tmp").c_str());

    std::FILE* file = std::fopen(path_.c_str(), "rb");
    if (file == nullptr)
        return loadStats_;  // fresh file
    Header header;
    if (std::fread(&header, sizeof(header), 1, file) != 1 ||
        std::memcmp(header.magic, format_.magic, sizeof(header.magic)) != 0 ||
        header.version != format_.version ||
        header.payloadSize != payloadSize_ || header.tag != tag_) {
        std::fclose(file);
        loadStats_.headerMismatch = true;
        return loadStats_;
    }

    // Adopt records up to the first short or corrupt one: everything
    // after it is untrusted and is cut off below.
    fileEnd_ = sizeof(Header);
    std::vector<uint8_t> record(recordSize());
    const uint8_t* payload = record.data() + sizeof(uint64_t);
    size_t got = 0;
    while ((got = std::fread(record.data(), 1, record.size(), file)) > 0) {
        uint64_t key = 0, checksum = 0;
        std::memcpy(&key, record.data(), sizeof(key));
        std::memcpy(&checksum, payload + payloadSize_, sizeof(checksum));
        if (got < record.size() ||
            checksum != recordChecksum(key, payload, payloadSize_)) {
            ++loadStats_.droppedCorrupt;
            break;
        }
        bool fresh = false;
        std::memcpy(claim(key, fresh), payload, payloadSize_);
        ++loadStats_.restored;
        fileEnd_ += record.size();
    }
    std::fclose(file);
    if (loadStats_.droppedCorrupt > 0)
        truncateFile(path_, fileEnd_);
    return loadStats_;
}

size_t
RecordLog::probe(uint64_t key, uint64_t hash) const
{
    const size_t mask = capacity_ - 1;
    const uint8_t tag = controlTag(hash);
    // The load bound keeps a slot empty, so every probe ends.
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        const uint8_t control = control_[i];
        if (control == 0)
            return i;
        if (control == tag) {
            uint64_t held = 0;
            std::memcpy(&held, slots_.get() + i * slotSize(), sizeof(held));
            if (held == key)
                return i;
        }
    }
}

const uint8_t*
RecordLog::find(uint64_t key) const
{
    if (capacity_ == 0)
        return nullptr;
    const size_t i = probe(key, hashMix(key));
    if (control_[i] == 0)
        return nullptr;
    return slots_.get() + i * slotSize() + sizeof(key);
}

uint8_t*
RecordLog::claim(uint64_t key, bool& fresh)
{
    const size_t count = count_.load(std::memory_order_relaxed);
    if ((count + 1) * kLoadDen > capacity_ * kLoadNum)
        grow();
    const uint64_t hash = hashMix(key);
    const size_t i = probe(key, hash);
    uint8_t* slot = slots_.get() + i * slotSize();
    fresh = control_[i] == 0;
    if (fresh) {
        control_[i] = controlTag(hash);
        std::memcpy(slot, &key, sizeof(key));
        count_.store(count + 1, std::memory_order_relaxed);
    }
    return slot + sizeof(key);
}

void
RecordLog::grow()
{
    const size_t capacity = capacity_ == 0 ? 16 : 2 * capacity_;
    const size_t slot_size = slotSize();
    std::unique_ptr<uint8_t[]> control(new uint8_t[capacity]());
    // Slots are written before they are read, so they start raw.
    std::unique_ptr<uint8_t[]> slots(new uint8_t[capacity * slot_size]);
    const size_t mask = capacity - 1;
    for (size_t from = 0; from < capacity_; ++from) {
        if (control_[from] == 0)
            continue;
        const uint8_t* slot = slots_.get() + from * slot_size;
        uint64_t key = 0;
        std::memcpy(&key, slot, sizeof(key));
        size_t to = hashMix(key) & mask;
        while (control[to] != 0)
            to = (to + 1) & mask;
        control[to] = control_[from];
        std::memcpy(slots.get() + to * slot_size, slot, slot_size);
    }
    control_ = std::move(control);
    slots_ = std::move(slots);
    capacity_ = capacity;
}

size_t
RecordLog::queued() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size() / recordSize();
}

size_t
RecordLog::put(uint64_t key, const void* payload)
{
    const auto* bytes = static_cast<const uint8_t*>(payload);
    std::lock_guard<std::mutex> lock(mutex_);
    bool fresh = false;
    uint8_t* held = claim(key, fresh);
    if (fresh || std::memcmp(held, bytes, payloadSize_) != 0) {
        std::memcpy(held, bytes, payloadSize_);
        if (!path_.empty()) {
            const uint64_t checksum = recordChecksum(key, bytes, payloadSize_);
            const size_t at = queue_.size();
            queue_.resize(at + recordSize());
            uint8_t* out = queue_.data() + at;
            std::memcpy(out, &key, sizeof(key));
            std::memcpy(out + sizeof(key), bytes, payloadSize_);
            std::memcpy(out + sizeof(key) + payloadSize_, &checksum,
                        sizeof(checksum));
        }
    }
    return queue_.size() / recordSize();
}

void
RecordLog::flush()
{
    std::lock_guard<std::mutex> flush_lock(flushMutex_);
    std::vector<uint8_t> batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        batch.swap(queue_);
    }
    if (batch.empty())
        return;
    if (append(batch)) {
        failing_ = false;
        return;
    }
    if (!failing_)
        warn(strCat(format_.name, ": cannot write '", path_,
                    "'; records stay queued until a flush succeeds"));
    failing_ = true;
    // Requeue in front of what was put meanwhile, so a key's later
    // record still lands after its earlier one.
    std::lock_guard<std::mutex> lock(mutex_);
    batch.insert(batch.end(), queue_.begin(), queue_.end());
    queue_.swap(batch);
}

bool
RecordLog::append(const std::vector<uint8_t>& records)
{
    std::FILE* file = std::fopen(path_.c_str(), fileEnd_ == 0 ? "wb" : "r+b");
    if (file == nullptr)
        return false;
    bool ok = true;
    if (fileEnd_ == 0) {
        Header header;
        std::memcpy(header.magic, format_.magic, sizeof(header.magic));
        header.version = format_.version;
        header.payloadSize = static_cast<uint32_t>(payloadSize_);
        header.tag = tag_;
        ok = std::fwrite(&header, sizeof(header), 1, file) == 1;
    } else {
        ok = std::fseek(file, static_cast<long>(fileEnd_), SEEK_SET) == 0;
    }
    const size_t bytes = records.size();
    ok = ok && std::fwrite(records.data(), 1, bytes, file) == bytes;
    ok = std::fclose(file) == 0 && ok;
    if (!ok) {
        if (fileEnd_ > 0)
            truncateFile(path_, fileEnd_);
        return false;
    }
    fileEnd_ = std::max(fileEnd_, sizeof(Header)) + bytes;
    return true;
}

} // namespace hida
