/**
 * @file
 * Robustness tests of the two record files (src/dse/record_log.h): the
 * sweep journal and the persistent QoR store.
 *
 * A seeded corruption fuzzer runs cases of one to three sessions of
 * random puts and flushes against one file, in journal shape
 * (SweepJournal: point-index keys, a fingerprint in front of each
 * payload) or store shape (QorStore: fingerprint keys, flushed the way
 * the service housekeeper does). Between sessions it damages the file
 * the way crashes and bit rot do: a truncation at a random offset, a
 * flipped bit, a record-sized span copied over another place, appended
 * garbage, or an edited header field. Every reopen must hold:
 *  - open() never aborts, and its diagnostic names what it dropped;
 *  - every restored (key, bytes) pair was put under that key earlier;
 *  - a reopen with no damage restores exactly the reference map;
 *  - after a corrupt tail, the restored records plus the next
 *    session's puts survive a further reopen (appends follow good
 *    records, never the dropped tail);
 *  - after a header mismatch, exactly the next session's records do.
 *
 * Determinism: the xorshift seed is fixed per shape, and a failure
 * prints the seed, the case and the case's trace.
 *
 * The fuzzer's 48 keys never grow the in-memory table far, so a
 * differential test drives one RecordLog per shape through more than
 * 200,000 keys against a std::unordered_map reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/dse/journal.h"
#include "src/dse/qor_store.h"
#include "src/support/utils.h"

namespace hida {
namespace {

using Bytes = std::vector<uint8_t>;

/** xorshift64* — tiny, seedable, and identical on every platform. */
struct XorShift {
    uint64_t state;
    explicit XorShift(uint64_t seed) : state(seed ? seed : 0x9e3779b9ULL) {}

    uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545F4914F6CDD1DULL;
    }

    uint64_t below(uint64_t n) { return n ? next() % n : 0; }
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

size_t
countLinesWith(const std::string& text, const std::string& needle)
{
    std::istringstream lines(text);
    size_t count = 0;
    for (std::string line; std::getline(lines, line);)
        count += line.find(needle) != std::string::npos ? 1 : 0;
    return count;
}

/** One record file kind behind a common put/flush/get surface. Each
 * open() builds a fresh object, like a new process would. */
class Shape {
  public:
    virtual ~Shape() = default;
    virtual const char* name() const = 0;
    /** Open @p path; returns the diagnostic's code, or kOk. */
    virtual ErrorCode open(const std::string& path) = 0;
    virtual RecordLog::LoadStats loadStats() const = 0;
    virtual ErrorCode mismatchCode() const = 0;
    virtual ErrorCode corruptCode() const = 0;
    virtual size_t valueSize() const = 0;
    /** The key of fuzzer slot @p slot. */
    virtual uint64_t keyOf(uint64_t slot) const = 0;
    virtual void put(uint64_t key, const Bytes& value) = 0;
    virtual void flush() = 0;
    virtual size_t size() const = 0;
    /** What the open file holds for @p key; @p history is every value
     * ever put under it (the journal restores by fingerprint). */
    virtual std::optional<Bytes> get(uint64_t key,
                                     const std::vector<Bytes>& history) = 0;
};

/** Journal shape: value = 8-byte fingerprint + 24-byte payload. */
class JournalShape : public Shape {
  public:
    static constexpr size_t kPayload = 24;

    const char* name() const override { return "journal"; }
    ErrorCode
    open(const std::string& path) override
    {
        journal_ = std::make_unique<SweepJournal>();
        std::optional<Diagnostic> diag =
            journal_->open(path, /*grid_hash=*/0x6a11, kPayload);
        return diag ? diag->code : ErrorCode::kOk;
    }
    RecordLog::LoadStats
    loadStats() const override
    {
        return journal_->loadStats();
    }
    ErrorCode
    mismatchCode() const override
    {
        return ErrorCode::kJournalMismatch;
    }
    ErrorCode
    corruptCode() const override
    {
        return ErrorCode::kJournalCorrupt;
    }
    size_t valueSize() const override { return sizeof(uint64_t) + kPayload; }
    uint64_t keyOf(uint64_t slot) const override { return slot; }
    void
    put(uint64_t key, const Bytes& value) override
    {
        uint64_t fingerprint = 0;
        std::memcpy(&fingerprint, value.data(), sizeof(fingerprint));
        journal_->record(key, fingerprint, value.data() + sizeof(fingerprint));
    }
    void flush() override { journal_->flush(); }
    size_t size() const override { return journal_->size(); }
    std::optional<Bytes>
    get(uint64_t key, const std::vector<Bytes>& history) override
    {
        Bytes value(valueSize());
        for (const Bytes& candidate : history) {
            std::memcpy(value.data(), candidate.data(), sizeof(uint64_t));
            uint64_t fingerprint = 0;
            std::memcpy(&fingerprint, value.data(), sizeof(fingerprint));
            if (journal_->restore(key, fingerprint,
                                  value.data() + sizeof(fingerprint)))
                return value;
        }
        return std::nullopt;
    }

  private:
    std::unique_ptr<SweepJournal> journal_;
};

/** Store shape: 16-byte values under hashed keys, flushed whenever
 * needsFlush() says so, as the service housekeeper does. */
class StoreShape : public Shape {
  public:
    const char* name() const override { return "store"; }
    ErrorCode
    open(const std::string& path) override
    {
        store_ = std::make_unique<QorStore>();
        std::optional<Diagnostic> diag =
            store_->open(path, /*content_tag=*/0x5707e, valueSize());
        return diag ? diag->code : ErrorCode::kOk;
    }
    RecordLog::LoadStats
    loadStats() const override
    {
        const QorStore::Stats stats = store_->stats();
        return {stats.restored, stats.droppedCorrupt, stats.headerMismatch};
    }
    ErrorCode mismatchCode() const override { return ErrorCode::kStoreCorrupt; }
    ErrorCode corruptCode() const override { return ErrorCode::kStoreCorrupt; }
    size_t valueSize() const override { return 16; }
    uint64_t keyOf(uint64_t slot) const override { return hashMix(slot); }
    void
    put(uint64_t key, const Bytes& value) override
    {
        store_->insert(key, value.data());
        if (store_->needsFlush())
            store_->flush();
    }
    void flush() override { store_->flush(); }
    size_t size() const override { return store_->size(); }
    std::optional<Bytes>
    get(uint64_t key, const std::vector<Bytes>&) override
    {
        Bytes value(valueSize());
        if (!store_->lookup(key, value.data()))
            return std::nullopt;
        return value;
    }

  private:
    std::unique_ptr<QorStore> store_;
};

std::unique_ptr<Shape>
makeShape(const std::string& name)
{
    if (name == "journal")
        return std::make_unique<JournalShape>();
    return std::make_unique<StoreShape>();
}

constexpr size_t kHeaderBytes = 24;

/** Seeded sessions of puts, flushes and file damage on one shape. */
class CorruptionFuzzer {
  public:
    static constexpr uint64_t kSlots = 48;

    CorruptionFuzzer(Shape& shape, uint64_t seed, std::string path)
        : shape_(shape), rng_(seed), path_(std::move(path))
    {
    }

    /** Run one case; on the first violated invariant, stop. */
    void
    runCase()
    {
        std::remove(path_.c_str());
        reference_.clear();
        history_.clear();
        trace_.str("");
        const uint64_t sessions = 1 + rng_.below(3);
        for (uint64_t s = 0; s < sessions && !failed(); ++s) {
            const bool damaged = s > 0 && damage();
            reopen(/*exact=*/!damaged);
            runSession();
        }
        if (!failed())
            reopen(/*exact=*/true);
    }

    std::string trace() const { return trace_.str(); }

  private:
    static bool failed() { return ::testing::Test::HasFailure(); }

    /** Damage the file at random; returns false when it left it as is. */
    bool
    damage()
    {
        std::string bytes = readFile(path_);
        // One record on disk: key, value, checksum.
        const size_t rs = shape_.valueSize() + 2 * sizeof(uint64_t);
        switch (rng_.below(6)) {
          case 0:
            trace_ << " | no damage";
            return false;
          case 1: {
            const size_t size = rng_.below(bytes.size() + 1);
            trace_ << " | truncate to " << size << " of " << bytes.size();
            bytes.resize(size);
            break;
          }
          case 2: {
            if (bytes.empty())
                return false;
            const size_t at = rng_.below(bytes.size());
            const int bit = static_cast<int>(rng_.below(8));
            trace_ << " | flip bit " << bit << " at " << at;
            bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
            break;
          }
          case 3: {
            if (bytes.size() < kHeaderBytes + rs)
                return false;
            // Half the splices are record-aligned: a whole valid record
            // lands where another one was.
            size_t from = 0, to = 0;
            if (rng_.below(2) == 0) {
                const size_t records = (bytes.size() - kHeaderBytes) / rs;
                from = kHeaderBytes + rs * rng_.below(records);
                to = kHeaderBytes + rs * rng_.below(records);
            } else {
                from = rng_.below(bytes.size() - rs + 1);
                to = rng_.below(bytes.size() - rs + 1);
            }
            trace_ << " | splice " << rs << " bytes " << from << " -> " << to;
            const std::string span = bytes.substr(from, rs);
            bytes.replace(to, rs, span);
            break;
          }
          case 4: {
            const size_t count = 1 + rng_.below(2 * rs);
            trace_ << " | append " << count << " garbage bytes";
            for (size_t i = 0; i < count; ++i)
                bytes.push_back(static_cast<char>(rng_.next()));
            break;
          }
          default: {
            if (bytes.size() < kHeaderBytes)
                return false;
            const size_t at = rng_.below(kHeaderBytes);
            trace_ << " | edit header byte " << at;
            bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng_.below(255)));
            break;
          }
        }
        writeFile(path_, bytes);
        return true;
    }

    /** Reopen and check the invariants; the restored map becomes the
     * reference. @p exact: the file is as the last session left it. */
    void
    reopen(bool exact)
    {
        const ErrorCode code = shape_.open(path_);
        const RecordLog::LoadStats stats = shape_.loadStats();
        trace_ << " | open: " << errorCodeName(code) << ", restored "
               << stats.restored << ", dropped " << stats.droppedCorrupt;
        ErrorCode expected = ErrorCode::kOk;
        if (stats.headerMismatch)
            expected = shape_.mismatchCode();
        else if (stats.droppedCorrupt > 0)
            expected = shape_.corruptCode();
        EXPECT_EQ(code, expected);

        std::map<uint64_t, Bytes> restored;
        for (uint64_t slot = 0; slot < kSlots; ++slot) {
            const uint64_t key = shape_.keyOf(slot);
            std::optional<Bytes> value = shape_.get(key, history_[key]);
            if (!value)
                continue;
            const std::vector<Bytes>& put = history_[key];
            EXPECT_NE(std::find(put.begin(), put.end(), *value), put.end())
                << "restored bytes never put under key " << key;
            restored[key] = *value;
        }
        // Keys outside the slots, or journal records whose fingerprint
        // was never put, would show up only here.
        EXPECT_EQ(shape_.size(), restored.size());
        if (exact) {
            EXPECT_EQ(stats.droppedCorrupt, 0u);
            EXPECT_TRUE(restored == reference_)
                << "restored " << restored.size() << " records, reference "
                << reference_.size();
        }
        reference_ = std::move(restored);
    }

    /** Random puts (some repeating a key's current bytes) and flushes,
     * then a final flush. */
    void
    runSession()
    {
        const uint64_t ops = rng_.below(151);
        size_t puts = 0, flushes = 0;
        for (uint64_t op = 0; op < ops; ++op) {
            const uint64_t key = shape_.keyOf(rng_.below(kSlots));
            const uint64_t kind = rng_.below(16);
            if (kind == 0) {
                shape_.flush();
                ++flushes;
                continue;
            }
            Bytes value;
            auto current = reference_.find(key);
            if (kind == 1 && current != reference_.end()) {
                value = current->second;
            } else {
                value.resize(shape_.valueSize());
                for (uint8_t& byte : value)
                    byte = static_cast<uint8_t>(rng_.next());
                // Few fingerprints per key, so the journal's restore
                // meets records of another fingerprint.
                value[0] = static_cast<uint8_t>(1 + rng_.below(4));
                for (size_t i = 1; i < sizeof(uint64_t); ++i)
                    value[i] = 0;
            }
            shape_.put(key, value);
            history_[key].push_back(value);
            reference_[key] = value;
            ++puts;
        }
        shape_.flush();
        trace_ << " | session: " << puts << " puts, " << flushes
               << " flushes";
    }

    Shape& shape_;
    XorShift rng_;
    std::string path_;
    std::map<uint64_t, Bytes> reference_;
    std::map<uint64_t, std::vector<Bytes>> history_;
    std::ostringstream trace_;
};

class RecordFileTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RecordFileTest, SeededCorruptionFuzz)
{
    std::unique_ptr<Shape> shape = makeShape(GetParam());
    const uint64_t seed =
        shape->name() == std::string("journal") ? 0x10C0FFEEULL : 0x57012E5ULL;
    const std::string path =
        ::testing::TempDir() + "hida_record_fuzz_" + shape->name() + ".bin";
    CorruptionFuzzer fuzzer(*shape, seed, path);
    constexpr int kCases = 400;
    for (int c = 0; c < kCases; ++c) {
        fuzzer.runCase();
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << shape->name() << " fuzz failed: seed 0x"
                          << std::hex << seed << std::dec << ", case " << c
                          << "\n  trace:" << fuzzer.trace();
            break;
        }
    }
    std::remove(path.c_str());
}

TEST_P(RecordFileTest, UnwritableFileWarnsOnceAndLosesNoRecord)
{
    // A file under a missing directory: every append fails until the
    // directory appears. The log must warn once, not once per record,
    // and keep every record queued.
    std::unique_ptr<Shape> shape = makeShape(GetParam());
    const std::string dir = ::testing::TempDir() + "hida_missing_dir_" +
                            std::string(shape->name());
    std::filesystem::remove_all(dir);
    const std::string path = dir + "/records.bin";
    ASSERT_EQ(shape->open(path), ErrorCode::kOk);

    std::vector<Bytes> values;
    ::testing::internal::CaptureStderr();
    for (uint64_t slot = 0; slot < 200; ++slot) {
        Bytes value(shape->valueSize(), static_cast<uint8_t>(slot));
        shape->put(shape->keyOf(slot), value);
        values.push_back(value);
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(countLinesWith(err, "cannot write"), 1u) << err;

    ASSERT_TRUE(std::filesystem::create_directory(dir));
    shape->flush();
    ASSERT_EQ(shape->open(path), ErrorCode::kOk);
    EXPECT_EQ(shape->loadStats().restored, 200u);
    for (uint64_t slot = 0; slot < 200; ++slot)
        EXPECT_EQ(shape->get(shape->keyOf(slot), {values[slot]}), values[slot])
            << "slot " << slot;
    std::filesystem::remove_all(dir);
}

TEST_P(RecordFileTest, ConcurrentPutsLookupsAndFlushesLoseNoRecord)
{
    // Threads share one file, as sweep workers share a journal and
    // service lanes share the store: puts, lookups and flushes race.
    std::unique_ptr<Shape> shape = makeShape(GetParam());
    const std::string path = ::testing::TempDir() + "hida_record_threads_" +
                             std::string(shape->name()) + ".bin";
    std::remove(path.c_str());
    ASSERT_EQ(shape->open(path), ErrorCode::kOk);
    constexpr uint64_t kThreads = 4, kPerThread = 300;
    auto valueOf = [&](uint64_t slot) {
        Bytes value(shape->valueSize());
        for (size_t i = 0; i < value.size(); ++i)
            value[i] = static_cast<uint8_t>(slot * 31 + i);
        return value;
    };
    std::vector<std::thread> threads;
    for (uint64_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                const uint64_t slot = t * kPerThread + i;
                shape->put(shape->keyOf(slot), valueOf(slot));
                const uint64_t half = t * kPerThread + i / 2;
                const Bytes earlier = valueOf(half);
                EXPECT_EQ(shape->get(shape->keyOf(half), {earlier}), earlier);
                if (i % 50 == 0)
                    shape->flush();
            }
        });
    for (std::thread& thread : threads)
        thread.join();
    shape->flush();

    ASSERT_EQ(shape->open(path), ErrorCode::kOk);
    EXPECT_EQ(shape->loadStats().restored, kThreads * kPerThread);
    for (uint64_t slot = 0; slot < kThreads * kPerThread; ++slot) {
        const Bytes value = valueOf(slot);
        EXPECT_EQ(shape->get(shape->keyOf(slot), {value}), value)
            << "slot " << slot;
    }
    std::remove(path.c_str());
}

TEST_P(RecordFileTest, TableMatchesAMapReferenceAtScale)
{
    // One RecordLog with the shape's payload size and keys, grown many
    // times over: keys 0 and ~0, keys that share their low 32 bits,
    // then 200,000 of the shape's own. Every put must queue exactly
    // when the key's bytes changed, and a reopen must restore exactly
    // the reference map.
    std::unique_ptr<Shape> shape = makeShape(GetParam());
    const std::string path = ::testing::TempDir() + "hida_record_table_" +
                             std::string(shape->name()) + ".bin";
    std::remove(path.c_str());
    const RecordLog::Format format = {"record table", "HIDATBL1", 1};
    const size_t payload = shape->valueSize();
    RecordLog log;
    ASSERT_EQ(log.open(path, format, payload, /*tag=*/7).restored, 0u);

    std::vector<uint64_t> keys = {0, ~uint64_t{0}};
    for (uint64_t high = 1; high <= 1000; ++high)
        keys.push_back(high << 32 | 0x5eed);
    for (uint64_t slot = 0; slot < 200000; ++slot)
        keys.push_back(shape->keyOf(slot));

    XorShift rng(0x7AB1E ^ payload);
    std::unordered_map<uint64_t, Bytes> reference;
    size_t queued = 0, written = 0;
    auto put = [&](uint64_t key, const Bytes& value) {
        auto [it, fresh] = reference.try_emplace(key, value);
        if (fresh || it->second != value) {
            it->second = value;
            ++queued;
            ++written;
        }
        ASSERT_EQ(log.put(key, value.data()), queued) << "key " << key;
    };
    auto randomValue = [&] {
        Bytes value(payload);
        for (uint8_t& byte : value)
            byte = static_cast<uint8_t>(rng.next());
        return value;
    };
    auto flush = [&] {
        log.flush();
        queued = 0;
        ASSERT_EQ(log.queued(), 0u);
    };

    for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NO_FATAL_FAILURE(put(keys[i], randomValue()));
        if (i % 65536 == 65535) {
            ASSERT_NO_FATAL_FAILURE(flush());
        }
    }
    // Re-puts: half repeat the held bytes and queue nothing, half change
    // one byte and queue one record each.
    for (size_t i = 0; i < 100000; ++i) {
        const uint64_t key = keys[rng.below(keys.size())];
        Bytes value = reference.at(key);
        if (rng.below(2) == 0) {
            const uint8_t flip = static_cast<uint8_t>(1 + rng.below(255));
            value[rng.below(payload)] ^= flip;
        }
        ASSERT_NO_FATAL_FAILURE(put(key, value));
    }
    EXPECT_EQ(log.size(), reference.size());
    EXPECT_EQ(log.queued(), queued);

    auto matches = [&](const RecordLog& table) {
        size_t found = 0;
        for (const auto& [key, value] : reference)
            found += table.read(key, [&](const uint8_t* held) {
                return held != nullptr &&
                       std::memcmp(held, value.data(), payload) == 0;
            });
        return found;
    };
    EXPECT_EQ(matches(log), reference.size());
    for (uint64_t slot = 200000; slot < 201000; ++slot) {
        const uint64_t absent = shape->keyOf(slot);
        if (reference.count(absent) != 0)
            continue;
        EXPECT_TRUE(log.read(absent, [](const uint8_t* held) {
            return held == nullptr;
        })) << "key " << absent;
    }

    ASSERT_NO_FATAL_FAILURE(flush());
    RecordLog reopened;
    const RecordLog::LoadStats& stats =
        reopened.open(path, format, payload, /*tag=*/7);
    EXPECT_EQ(stats.restored, written);
    EXPECT_EQ(stats.droppedCorrupt, 0u);
    EXPECT_FALSE(stats.headerMismatch);
    EXPECT_EQ(reopened.size(), reference.size());
    EXPECT_EQ(matches(reopened), reference.size());
    std::remove(path.c_str());
}

std::string
shapeName(const ::testing::TestParamInfo<const char*>& info)
{
    return info.param;
}

INSTANTIATE_TEST_SUITE_P(Shapes, RecordFileTest,
                         ::testing::Values("journal", "store"), shapeName);

} // namespace
} // namespace hida
