#include "src/ir/registry.h"

#include "src/support/diagnostics.h"

namespace hida {

OpRegistry&
OpRegistry::instance()
{
    static OpRegistry registry;
    return registry;
}

void
OpRegistry::registerOp(std::string_view name, OpInfo info)
{
    const uint32_t id = Identifier::get(name).raw();
    HIDA_ASSERT(id / kChunkSize < kMaxChunks, "op registry full");
    std::lock_guard<std::mutex> lock(mutex_);
    Slot* chunk = chunks_[id / kChunkSize].load(std::memory_order_relaxed);
    const bool fresh_chunk = chunk == nullptr;
    if (fresh_chunk)
        chunk = new Slot[kChunkSize]();
    Slot& slot = chunk[id % kChunkSize];
    // First registration wins: an entry is never replaced, because
    // lookup() hands out raw pointers without a lock.
    if (slot.load(std::memory_order_relaxed) != nullptr)
        return;
    slot.store(new OpInfo(info), std::memory_order_release);
    // A fresh chunk is published after its first entry is written.
    if (fresh_chunk)
        chunks_[id / kChunkSize].store(chunk, std::memory_order_release);
}

} // namespace hida
