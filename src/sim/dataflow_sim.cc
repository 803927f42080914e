#include "src/sim/dataflow_sim.h"

#include <algorithm>

#include "src/support/diagnostics.h"

namespace hida {

namespace {

/**
 * Shared simulation core: timing comes from @p latencies / @p capacities
 * (overlay arrays), wiring from @p producer_of / @p consumers_of. Both
 * public simulate() entry points funnel here so the cached-skeleton path
 * and the ad-hoc path can never diverge numerically.
 *
 * The window stops early, exactly, once it is periodic. Let W be the
 * largest channel capacity (at least 1). Frame g + 1 reads frame g,
 * frame g + 1 of earlier nodes and frames g + 1 - W .. g of consumers,
 * through max and + only. So once frame f >= W has every node one shift
 * s later than the frame before, in each of the last W steps, every
 * later frame g equals frame f plus (g - f) * s, and the frames the
 * result reads are computed from that. The argument needs each producer
 * to precede its consumers in node order (a later producer's frame is
 * read before it is written) and latencies of at least 0 (so the start
 * time's floor of 0 never binds after frame 0); without both, the whole
 * window runs.
 */
SimResult
simulateCore(const SimGraph& graph, const std::vector<int>& producer_of,
             const std::vector<std::vector<int>>& consumers_of,
             const int64_t* latencies, const int64_t* capacities, int frames)
{
    const int n = static_cast<int>(graph.nodes.size());
    SimResult result;

    int64_t window = 1;
    for (size_t c = 0; c < graph.channels.size(); ++c)
        window = std::max(window, capacities[c]);
    bool may_stop = true;
    for (int i = 0; i < n && may_stop; ++i) {
        may_stop = latencies[i] >= 0;
        for (int c : graph.nodes[i].inputs)
            may_stop = may_stop && producer_of[c] < i;
    }

    // finish[f * n + i]: cycle node i finishes frame f. One flat buffer,
    // so a simulation makes one allocation whatever the window.
    std::vector<int64_t> finish(static_cast<size_t>(frames) * n, 0);
    auto at = [&](int64_t f, int i) -> int64_t& { return finish[f * n + i]; };
    int last = frames - 1;  // the last frame simulated
    int64_t shift = 0;      // the shift of the run of uniform steps
    int64_t run = 0;        // uniform steps in a row ending at frame f
    for (int f = 0; f < frames; ++f) {
        for (int i = 0; i < n; ++i) {
            int64_t start = 0;
            // One frame in flight per node (internally double buffered).
            if (f > 0)
                start = std::max(start, at(f - 1, i));
            // Data availability: all producers must have written frame f.
            for (int c : graph.nodes[i].inputs) {
                int p = producer_of[c];
                if (p >= 0)
                    start = std::max(start, at(f, p));
            }
            // Back-pressure: writing frame f into channel c requires every
            // consumer to be done with frame f - capacity.
            for (int c : graph.nodes[i].outputs) {
                int64_t cap = std::max<int64_t>(capacities[c], 1);
                if (f >= cap) {
                    for (int consumer : consumers_of[c])
                        start = std::max(start, at(f - cap, consumer));
                }
            }
            at(f, i) = start + latencies[i];
        }
        if (!may_stop || f == 0)
            continue;
        const int64_t step = at(f, 0) - at(f - 1, 0);
        bool uniform = true;
        for (int i = 1; i < n && uniform; ++i)
            uniform = at(f, i) - at(f - 1, i) == step;
        if (!uniform) {
            run = 0;
        } else if (run > 0 && step == shift) {
            ++run;
        } else {
            shift = step;
            run = 1;
        }
        // Steps start at frame 1, so W steps in a row put f at W or later.
        if (run >= window) {
            last = f;
            break;
        }
    }

    int64_t first_done = 0;
    for (int i = 0; i < n; ++i)
        first_done = std::max(first_done, at(0, i));
    result.frameLatency = first_done;

    if (frames >= 2) {
        // Measure the interval over the second half of the window; a
        // 2-frame window has one step, from frame 0 to frame 1.
        int lo = std::min(frames / 2, frames - 2);
        int hi = frames - 1;
        auto frame_end = [&](int f) {
            const int g = std::min(f, last);
            int64_t end = 0;
            for (int i = 0; i < n; ++i)
                end = std::max(end, at(g, i));
            return end + (f - g) * shift;
        };
        result.steadyInterval =
            static_cast<double>(frame_end(hi) - frame_end(lo)) /
            static_cast<double>(hi - lo);
    } else {
        result.steadyInterval = static_cast<double>(first_done);
    }
    return result;
}

/** Sequential fallback: frames never overlap, so the per-frame time is
 * simply the sum of node latencies (Section 6.4.1). */
SimResult
simulateSequential(const int64_t* latencies, size_t n)
{
    SimResult result;
    int64_t total = 0;
    for (size_t i = 0; i < n; ++i)
        total += latencies[i];
    result.frameLatency = total;
    result.steadyInterval = static_cast<double>(total);
    return result;
}

/** Derive adjacency into caller-owned vectors (local fallback path). */
void
deriveAdjacency(const SimGraph& graph, std::vector<int>& producer_of,
                std::vector<std::vector<int>>& consumers_of)
{
    const int n = static_cast<int>(graph.nodes.size());
    producer_of.assign(graph.channels.size(), -1);
    consumers_of.assign(graph.channels.size(), {});
    for (int i = 0; i < n; ++i) {
        for (int c : graph.nodes[i].outputs) {
            HIDA_ASSERT(producer_of[c] == -1,
                        "simulator requires single-producer channels");
            producer_of[c] = i;
        }
        for (int c : graph.nodes[i].inputs)
            consumers_of[c].push_back(i);
    }
}

} // namespace

void
SimGraph::buildAdjacency()
{
    deriveAdjacency(*this, producerOf, consumersOf);
    adjacencyBuilt = true;
}

SimResult
simulate(const SimGraph& graph, int frames)
{
    const size_t n = graph.nodes.size();
    if (n == 0 || frames <= 0)
        return SimResult();

    // Gather the skeleton's own timing values as the overlay.
    std::vector<int64_t> latencies(n);
    for (size_t i = 0; i < n; ++i)
        latencies[i] = graph.nodes[i].latency;
    if (graph.sequential)
        return simulateSequential(latencies.data(), n);

    std::vector<int64_t> capacities(graph.channels.size());
    for (size_t c = 0; c < graph.channels.size(); ++c)
        capacities[c] = graph.channels[c].capacity;

    if (graph.adjacencyBuilt)
        return simulateCore(graph, graph.producerOf, graph.consumersOf,
                            latencies.data(), capacities.data(), frames);
    std::vector<int> producer_of;
    std::vector<std::vector<int>> consumers_of;
    deriveAdjacency(graph, producer_of, consumers_of);
    return simulateCore(graph, producer_of, consumers_of, latencies.data(),
                        capacities.data(), frames);
}

SimResult
simulate(const SimGraph& graph, const std::vector<int64_t>& latencies,
         const std::vector<int64_t>& capacities, int frames)
{
    HIDA_ASSERT(latencies.size() == graph.nodes.size(),
                "latency overlay size must match node count");
    HIDA_ASSERT(capacities.size() == graph.channels.size(),
                "capacity overlay size must match channel count");
    if (graph.nodes.empty() || frames <= 0)
        return SimResult();
    if (graph.sequential)
        return simulateSequential(latencies.data(), latencies.size());
    if (graph.adjacencyBuilt)
        return simulateCore(graph, graph.producerOf, graph.consumersOf,
                            latencies.data(), capacities.data(), frames);
    std::vector<int> producer_of;
    std::vector<std::vector<int>> consumers_of;
    deriveAdjacency(graph, producer_of, consumers_of);
    return simulateCore(graph, producer_of, consumers_of, latencies.data(),
                        capacities.data(), frames);
}

} // namespace hida
