/**
 * @file
 * Dataflow simulator tests: pipelined chains, bounded channels, join
 * back-pressure (the Figure 8 scenario), multi-producer sequentialization,
 * parameterized sweeps over chain length and channel capacity, and a
 * seeded differential of the window's exact early stop against the full
 * window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>

#include "src/sim/dataflow_sim.h"

namespace hida {
namespace {

SimGraph
chain(int n, int64_t latency, int64_t capacity)
{
    SimGraph graph;
    for (int i = 0; i + 1 < n; ++i)
        graph.channels.push_back({capacity});
    for (int i = 0; i < n; ++i) {
        SimNode node;
        node.latency = latency;
        if (i > 0)
            node.inputs.push_back(i - 1);
        if (i + 1 < n)
            node.outputs.push_back(i);
        graph.nodes.push_back(node);
    }
    return graph;
}

TEST(SimTest, SingleNode)
{
    SimGraph graph;
    graph.nodes.push_back({50, {}, {}});
    SimResult result = simulate(graph);
    EXPECT_EQ(result.frameLatency, 50);
    EXPECT_DOUBLE_EQ(result.steadyInterval, 50.0);
}

TEST(SimTest, PingPongChainReachesMaxNodeInterval)
{
    SimResult result = simulate(chain(4, 100, 2));
    EXPECT_EQ(result.frameLatency, 400);        // fill the pipeline
    EXPECT_DOUBLE_EQ(result.steadyInterval, 100.0);  // then one frame per L
}

TEST(SimTest, CapacityOneSerializesAdjacentPairs)
{
    SimResult result = simulate(chain(2, 100, 1));
    // The producer cannot start frame f+1 until the consumer finished f.
    EXPECT_DOUBLE_EQ(result.steadyInterval, 200.0);
}

TEST(SimTest, UnbalancedNodeLatenciesBoundTheInterval)
{
    SimGraph graph = chain(3, 10, 2);
    graph.nodes[1].latency = 70;  // slow middle stage
    SimResult result = simulate(graph);
    EXPECT_DOUBLE_EQ(result.steadyInterval, 70.0);
}

TEST(SimTest, Figure8JoinStallsWithoutBalancing)
{
    // Node0 -> Node1 -> Node2 and Node0 -> Node2 (short path, capacity 1).
    SimGraph graph;
    graph.channels = {{2}, {2}, {1}};
    graph.nodes = {{100, {}, {0, 2}}, {100, {0}, {1}}, {100, {1, 2}, {}}};
    SimResult stalled = simulate(graph);
    EXPECT_GT(stalled.steadyInterval, 150.0);

    graph.channels[2].capacity = 3;  // balanced: slack + 2
    SimResult balanced = simulate(graph);
    EXPECT_DOUBLE_EQ(balanced.steadyInterval, 100.0);
}

TEST(SimTest, SequentialModeSumsLatencies)
{
    SimGraph graph;
    graph.sequential = true;
    graph.nodes = {{10, {}, {}}, {20, {}, {}}, {30, {}, {}}};
    SimResult result = simulate(graph);
    EXPECT_EQ(result.frameLatency, 60);
    EXPECT_DOUBLE_EQ(result.steadyInterval, 60.0);
}

TEST(SimTest, EmptyGraph)
{
    SimResult result = simulate(SimGraph{});
    EXPECT_EQ(result.frameLatency, 0);
    EXPECT_DOUBLE_EQ(result.steadyInterval, 0.0);
}

TEST(SimTest, SequentialFallbackGoldenIntervals)
{
    // Multi-producer fallback (Section 6.4.1): no overlap is possible,
    // so both timing numbers are the plain latency sum — pinned for the
    // unbalanced four-stage case and for a single-node degenerate one.
    SimGraph graph;
    graph.sequential = true;
    graph.nodes = {{17, {}, {}}, {40, {}, {}}, {3, {}, {}}, {25, {}, {}}};
    SimResult result = simulate(graph);
    EXPECT_EQ(result.frameLatency, 85);
    EXPECT_DOUBLE_EQ(result.steadyInterval, 85.0);

    SimGraph one;
    one.sequential = true;
    one.nodes = {{64, {}, {}}};
    SimResult single = simulate(one);
    EXPECT_EQ(single.frameLatency, 64);
    EXPECT_DOUBLE_EQ(single.steadyInterval, 64.0);

    // The overlay entry point takes timing from the overlay, not the
    // skeleton: zeroing the skeleton latencies must change nothing.
    SimGraph zeroed = graph;
    for (SimNode& node : zeroed.nodes)
        node.latency = 0;
    EXPECT_EQ(simulate(zeroed, {17, 40, 3, 25}, {}), result);
}

TEST(SimTest, CapacityOneBackPressureChainGoldens)
{
    // With single-frame channels the producer may only start frame f+1
    // once the consumer finished frame f: adjacent pairs serialize and
    // the interval settles at 2L regardless of the chain length.
    for (int length : {2, 3, 5, 8}) {
        SimResult result = simulate(chain(length, 100, 1));
        EXPECT_DOUBLE_EQ(result.steadyInterval, 200.0) << length;
        EXPECT_EQ(result.frameLatency, 100 * length) << length;
    }
    // Unbalanced capacity-1 chain: the slowest serialized pair bounds
    // the interval — 10+70 here (golden from the 10-70-10 case).
    SimGraph graph = chain(3, 10, 1);
    graph.nodes[1].latency = 70;
    SimResult result = simulate(graph);
    EXPECT_EQ(result.frameLatency, 90);
    EXPECT_DOUBLE_EQ(result.steadyInterval, 80.0);
}

TEST(SimTest, OverlayMatchesPatchedGraph)
{
    // simulate(skeleton, latencies, capacities) must return the exact
    // SimResult of copying the graph and patching the fields — the
    // estimator's warm path depends on this identity.
    SimGraph skeleton = chain(4, 1, 1);
    std::vector<int64_t> latencies = {13, 7, 101, 29};
    std::vector<int64_t> capacities = {1, 2, 3};

    SimGraph patched = skeleton;
    for (size_t i = 0; i < latencies.size(); ++i)
        patched.nodes[i].latency = latencies[i];
    for (size_t c = 0; c < capacities.size(); ++c)
        patched.channels[c].capacity = capacities[c];

    EXPECT_EQ(simulate(skeleton, latencies, capacities),
              simulate(patched));
    // Fewer frames exercise the frames<2 interval fallback identically.
    EXPECT_EQ(simulate(skeleton, latencies, capacities, 1),
              simulate(patched, 1));
}

TEST(SimTest, TwoFrameWindowMeasuresItsOneStep)
{
    // Frame 0 ends at 10 + 30 + 20 = 60. Frame 1 runs the nodes over
    // 10..20, 40..70 and 70..90, so the one step of a 2-frame window
    // reads 90 - 60 on both entry points.
    SimGraph graph = chain(3, 10, 2);
    graph.nodes[1].latency = 30;
    graph.nodes[2].latency = 20;
    const SimResult result = simulate(graph, 2);
    EXPECT_EQ(result.frameLatency, 60);
    EXPECT_DOUBLE_EQ(result.steadyInterval, 90.0 - 60.0);
    graph.buildAdjacency();
    EXPECT_EQ(simulate(graph, {10, 30, 20}, {2, 2}, 2), result);
}

TEST(SimTest, CachedAdjacencyDoesNotChangeResults)
{
    // The Figure 8 join graph with and without buildAdjacency(): the
    // cached-adjacency fast path must be an exact no-op on the numbers.
    SimGraph graph;
    graph.channels = {{2}, {2}, {1}};
    graph.nodes = {{100, {}, {0, 2}}, {100, {0}, {1}}, {100, {1, 2}, {}}};
    SimResult fresh = simulate(graph);
    graph.buildAdjacency();
    EXPECT_TRUE(graph.adjacencyBuilt);
    EXPECT_EQ(simulate(graph), fresh);
    EXPECT_EQ(simulate(graph, {100, 100, 100}, {2, 2, 1}), fresh);
}

/** Property sweep: for any chain, ping-pong interval equals the slowest
 * node and latency equals the sum of latencies. */
class SimChainProperty
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(SimChainProperty, IntervalEqualsSlowestNode)
{
    auto [length, latency] = GetParam();
    SimGraph graph = chain(length, latency, 2);
    // Perturb node latencies deterministically.
    int64_t max_latency = 0;
    int64_t sum = 0;
    for (int i = 0; i < length; ++i) {
        graph.nodes[i].latency = latency + 13 * ((i * 7) % 5);
        max_latency = std::max(max_latency, graph.nodes[i].latency);
        sum += graph.nodes[i].latency;
    }
    SimResult result = simulate(graph, 64);
    EXPECT_DOUBLE_EQ(result.steadyInterval, static_cast<double>(max_latency));
    EXPECT_EQ(result.frameLatency, sum);
}

INSTANTIATE_TEST_SUITE_P(
    Chains, SimChainProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13),
                       ::testing::Values(int64_t{1}, int64_t{10},
                                         int64_t{100})));

/** Property sweep: capacity-k chains settle at interval <= 2L and >= L,
 * monotonically improving with capacity. */
class SimCapacityProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(SimCapacityProperty, MoreCapacityNeverHurts)
{
    int64_t capacity = GetParam();
    SimResult base = simulate(chain(5, 100, capacity));
    SimResult more = simulate(chain(5, 100, capacity + 1));
    EXPECT_LE(more.steadyInterval, base.steadyInterval);
    EXPECT_GE(base.steadyInterval, 100.0);
    EXPECT_LE(base.steadyInterval, 200.0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, SimCapacityProperty,
                         ::testing::Values(1, 2, 3, 4, 6));

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

/** The frame window simulated in full, every frame: the simulator's
 * recurrence before it learned to stop at the periodic regime. */
SimResult
fullWindow(const SimGraph& graph, int frames)
{
    const int n = static_cast<int>(graph.nodes.size());
    std::vector<int> producer_of(graph.channels.size(), -1);
    std::vector<std::vector<int>> consumers_of(graph.channels.size());
    for (int i = 0; i < n; ++i) {
        for (int c : graph.nodes[i].outputs)
            producer_of[c] = i;
        for (int c : graph.nodes[i].inputs)
            consumers_of[c].push_back(i);
    }
    std::vector<std::vector<int64_t>> at(frames, std::vector<int64_t>(n));
    for (int f = 0; f < frames; ++f) {
        for (int i = 0; i < n; ++i) {
            int64_t start = 0;
            if (f > 0)
                start = std::max(start, at[f - 1][i]);
            for (int c : graph.nodes[i].inputs)
                if (producer_of[c] >= 0)
                    start = std::max(start, at[f][producer_of[c]]);
            for (int c : graph.nodes[i].outputs) {
                int64_t cap = std::max<int64_t>(graph.channels[c].capacity, 1);
                if (f >= cap)
                    for (int consumer : consumers_of[c])
                        start = std::max(start, at[f - cap][consumer]);
            }
            at[f][i] = start + graph.nodes[i].latency;
        }
    }
    auto frame_end = [&](int f) {
        int64_t end = 0;
        for (int64_t finish : at[f])
            end = std::max(end, finish);
        return end;
    };
    SimResult result;
    result.frameLatency = frame_end(0);
    if (frames >= 2) {
        int lo = std::min(frames / 2, frames - 2);
        int hi = frames - 1;
        result.steadyInterval =
            static_cast<double>(frame_end(hi) - frame_end(lo)) /
            static_cast<double>(hi - lo);
    } else {
        result.steadyInterval = static_cast<double>(result.frameLatency);
    }
    return result;
}

/** A random single-producer graph of 1-24 nodes: capacities 0-4,
 * latencies skewed up to 1e6 (in about one graph in sixteen, one of them
 * negative), and in about one graph in eight a channel whose producer
 * does not precede a consumer. */
SimGraph
randomGraph(XorShift& rng)
{
    SimGraph graph;
    const int n = 1 + static_cast<int>(rng.below(24));
    for (int i = 0; i < n; ++i) {
        SimNode node;
        switch (rng.below(4)) {
          case 0:
            node.latency = static_cast<int64_t>(rng.below(4));
            break;
          case 1:
            node.latency = static_cast<int64_t>(rng.below(100));
            break;
          case 2:
            node.latency = static_cast<int64_t>(rng.below(10000));
            break;
          default:
            node.latency = static_cast<int64_t>(rng.below(1000001));
            break;
        }
        graph.nodes.push_back(node);
    }
    if (rng.below(16) == 0)
        graph.nodes[rng.below(n)].latency =
            -static_cast<int64_t>(rng.below(1000));
    const bool back_edges = rng.below(8) == 0;
    const int channels = static_cast<int>(rng.below(2 * n + 1));
    for (int c = 0; c < channels; ++c) {
        graph.channels.push_back({static_cast<int64_t>(rng.below(5))});
        int producer = static_cast<int>(rng.below(n));
        const int consumers = 1 + static_cast<int>(rng.below(3));
        for (int k = 0; k < consumers; ++k) {
            int consumer = static_cast<int>(rng.below(n));
            if (!back_edges && consumer <= producer) {
                if (producer + 1 >= n)
                    continue;
                consumer = producer + 1 +
                           static_cast<int>(rng.below(n - producer - 1));
            }
            auto& inputs = graph.nodes[consumer].inputs;
            if (std::find(inputs.begin(), inputs.end(), c) == inputs.end())
                inputs.push_back(c);
        }
        graph.nodes[producer].outputs.push_back(c);
    }
    return graph;
}

/** Equal frame latencies and bit-equal intervals. */
bool
sameBits(const SimResult& a, const SimResult& b)
{
    return a.frameLatency == b.frameLatency &&
           std::bit_cast<uint64_t>(a.steadyInterval) ==
               std::bit_cast<uint64_t>(b.steadyInterval);
}

TEST(SimTest, EarlyStopEqualsFullWindow)
{
    // The window stops once it is periodic; the frames it then computes
    // from the shift must equal the simulated ones bit for bit, on both
    // entry points and with and without cached adjacency.
    XorShift rng(0x51A7E5EEDULL);
    const int windows[] = {1, 2, 5, 9, 32, 64};
    for (int trial = 0; trial < 50000; ++trial) {
        SimGraph graph = randomGraph(rng);
        const int frames = windows[rng.below(std::size(windows))];
        const SimResult expected = fullWindow(graph, frames);
        ASSERT_TRUE(sameBits(simulate(graph, frames), expected))
            << "graph " << trial << ", " << frames << " frames";
        std::vector<int64_t> latencies;
        for (const SimNode& node : graph.nodes)
            latencies.push_back(node.latency);
        std::vector<int64_t> capacities;
        for (const SimChannel& channel : graph.channels)
            capacities.push_back(channel.capacity);
        graph.buildAdjacency();
        ASSERT_TRUE(sameBits(
            simulate(graph, latencies, capacities, frames), expected))
            << "graph " << trial << ", " << frames << " frames (overlay)";
    }
}

} // namespace
} // namespace hida
