#ifndef HIDA_IR_REGISTRY_H
#define HIDA_IR_REGISTRY_H

/**
 * @file
 * Registry of op metadata (traits + verification hooks). Dialects register
 * their operations at library init time through registerAllDialects().
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "src/ir/identifier.h"

namespace hida {

class Operation;

/** Per-op metadata registered by dialects. */
struct OpInfo {
    /** Error message of a failed check, or std::nullopt. */
    using VerifyFn = std::optional<std::string> (*)(Operation*);

    /** Region values may not reference values defined outside the op. */
    bool isolatedFromAbove = false;
    /** Op must be the last operation in its block. */
    bool isTerminator = false;
    /**
     * Per-op check, invoked by verify() after the generic structural
     * checks, and on every verify, even when those are skipped. It must
     * return a message, never abort, for any attribute of any kind, and
     * must not mutate the op.
     */
    VerifyFn verify = nullptr;
};

/**
 * Process-wide op registry (compiler metadata, not program state).
 * Registration takes a mutex; lookup() is lock-free. Entries sit in a
 * table indexed by the op name's Identifier::raw(), in fixed-size chunks
 * that are allocated once and never moved or freed (the interner's
 * chunk-table idiom, src/ir/identifier.cc): an entry and its chunk are
 * release-published after they are fully built, so a returned OpInfo
 * pointer stays valid for the process lifetime.
 */
class OpRegistry {
  public:
    static OpRegistry& instance();

    /** Register @p name's info. The first registration of a name wins. */
    void registerOp(std::string_view name, OpInfo info);
    /** Lock-free lookup; nullptr for unregistered op names. */
    const OpInfo* lookup(Identifier name) const
    {
        const uint32_t id = name.raw();
        if (id / kChunkSize >= kMaxChunks)
            return nullptr;
        const Slot* chunk =
            chunks_[id / kChunkSize].load(std::memory_order_acquire);
        return chunk == nullptr
                   ? nullptr
                   : chunk[id % kChunkSize].load(std::memory_order_acquire);
    }

  private:
    static constexpr uint32_t kChunkSize = 1024;
    static constexpr uint32_t kMaxChunks = 4096;
    using Slot = std::atomic<const OpInfo*>;

    OpRegistry() = default;
    std::mutex mutex_;
    std::atomic<Slot*> chunks_[kMaxChunks] = {};
};

/** Register every dialect shipped with HIDA. Idempotent. */
void registerAllDialects();

} // namespace hida

#endif // HIDA_IR_REGISTRY_H
