#ifndef HIDA_SERVICE_FAIR_QUEUE_H
#define HIDA_SERVICE_FAIR_QUEUE_H

/**
 * @file
 * Deficit-weighted fair queuing across tenants — the admission-to-
 * execution scheduler core of the concurrent DSE service
 * (docs/service.md "Concurrency and fairness").
 *
 * Model: one FIFO per tenant plus a round-robin ring over the tenants
 * that currently have queued items. A visit grants the tenant its
 * configured weight as *deficit*; each popped item costs one unit, and
 * the ring cursor only advances once the visited tenant's deficit is
 * spent (or its queue drains). With unit-cost items this is classic
 * deficit round robin: a tenant with weight w receives w consecutive
 * dispatch slots per ring rotation, so a tenant submitting hundreds of
 * requests can never push another tenant's next request more than one
 * rotation away. A tenant's deficit resets when its queue empties — an
 * idle tenant cannot bank credit and later burst past the others.
 *
 * Fairness shapes only *dispatch order*, never results: every
 * per-request retry/fault decision keys on (request, attempt), so any
 * interleaving the ring produces yields bit-identical responses.
 *
 * Thread-safety: none — the owner (DseService) calls every method under
 * its own scheduler mutex.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/support/diagnostics.h"

namespace hida {

template <typename T>
class WeightedFairQueue {
  public:
    /** Dispatch slots per ring visit for @p tenant (>= 1; unknown
     * tenants default to 1). Applies from the tenant's next visit. */
    void
    setWeight(const std::string& tenant, uint64_t weight)
    {
        tenantFor(tenant).weight = weight == 0 ? 1 : weight;
    }

    /** Enqueue at the back of @p tenant's FIFO. */
    void
    push(const std::string& tenant, T item)
    {
        Tenant& t = tenantFor(tenant);
        // A newly active tenant joins the ring *behind* the cursor: it
        // waits for the current rotation to come around, it does not
        // preempt tenants already waiting in this one.
        if (t.queue.empty())
            ring_.push_back(tenant);
        t.queue.push_back(std::move(item));
        ++size_;
    }

    /**
     * Pop the next item under deficit round robin. Returns false when
     * every tenant queue is empty.
     */
    bool
    pop(T* out)
    {
        if (size_ == 0)
            return false;
        if (cursor_ >= ring_.size())
            cursor_ = 0;
        Tenant& t = tenants_[ring_[cursor_]];
        HIDA_ASSERT(!t.queue.empty(), "empty tenant on the active ring");
        if (t.deficit == 0)
            t.deficit = t.weight;  // new visit: grant the full quantum
        *out = std::move(t.queue.front());
        t.queue.pop_front();
        --t.deficit;
        --size_;
        if (t.queue.empty()) {
            // Drained: forfeit leftover deficit (no banking while idle)
            // and leave the ring; the cursor now points at the next
            // tenant, so no extra advance.
            t.deficit = 0;
            ring_.erase(ring_.begin() + static_cast<ptrdiff_t>(cursor_));
        } else if (t.deficit == 0) {
            ++cursor_;  // quantum spent: next tenant's turn
        }
        return true;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    struct Tenant {
        uint64_t weight = 1;
        uint64_t deficit = 0;
        std::deque<T> queue;
    };

    Tenant&
    tenantFor(const std::string& tenant)
    {
        return tenants_[tenant];
    }

    // std::map: deterministic iteration for debuggability.
    std::map<std::string, Tenant> tenants_;
    std::vector<std::string> ring_;  ///< Tenants with non-empty queues.
    size_t cursor_ = 0;
    size_t size_ = 0;
};

} // namespace hida

#endif // HIDA_SERVICE_FAIR_QUEUE_H
