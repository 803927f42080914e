/**
 * @file
 * Intensity- and connection-aware dataflow parallelization — Section 6.5
 * and Algorithm 4 of the paper.
 *
 * Step (1): intensity + connection analysis (src/analysis/connection.*).
 * Step (2): nodes sorted by connection count, intensity as tie-breaker.
 * Step (3): per-node parallel factors proportional to intensity (IA).
 * Step (4): per-node DSE over unroll factors, constrained by the permuted
 *           and scaled factors of already-parallelized neighbours (CA) and
 *           by the node's parallel factor budget; candidates are evaluated
 *           with the QoR estimator and the best point is kept.
 *
 * The IA/CA toggles and the uniform (ScaleHLS-style) mode implement the
 * Fig. 11 ablation arms.
 *
 * Steps (1) and (2), and each node's nests, form a schedule's plan, which
 * a ParallelizeSearch keeps across runs on one module (see passes.h).
 */

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "src/analysis/connection.h"
#include "src/analysis/dataflow_graph.h"
#include "src/estimator/qor.h"
#include "src/support/diagnostics.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

/** The device the search estimates on. It only sets the external-interface
 * constants of the search's estimates; use the largest profile. */
TargetDevice
searchDevice()
{
    return TargetDevice::vu9pSlr();
}

/** A loop band the search unrolls, with the ascending divisors of each
 * level's trip count. */
struct SearchBand {
    std::vector<ForOp> loops;
    std::vector<std::vector<int64_t>> divisors;

    explicit SearchBand(std::vector<ForOp> band) : loops(std::move(band))
    {
        divisors.reserve(loops.size());
        for (ForOp loop : loops)
            divisors.push_back(divisorsOf(loop.tripCount()));
    }

    size_t size() const { return loops.size(); }
    bool empty() const { return loops.empty(); }

    /** Smallest divisor of level @p i's trip count above @p current, or 0. */
    int64_t
    nextDivisor(size_t i, int64_t current) const
    {
        auto it = std::upper_bound(divisors[i].begin(), divisors[i].end(),
                                   current);
        return it == divisors[i].end() ? 0 : *it;
    }

    /** Unroll factors currently applied. */
    std::vector<int64_t>
    factors() const
    {
        std::vector<int64_t> result;
        result.reserve(loops.size());
        for (ForOp loop : loops)
            result.push_back(loop.unrollFactor());
        return result;
    }

    void
    apply(const std::vector<int64_t>& factors) const
    {
        for (size_t i = 0; i < loops.size(); ++i) {
            ForOp loop = loops[i];
            loop.setUnrollFactor(factors[i]);
        }
    }
};

/** A connection seen from one of its endpoints. */
struct NodeLink {
    size_t connection;  ///< Index into SchedulePlan::connections.
    size_t other;       ///< Index of the other endpoint in the visit order.
    bool isTarget;      ///< The node reads the connection's buffer.
};

/** What the search needs of one node. */
struct NodePlan {
    NodeOp node;
    int64_t intensity;
    /** The main band (nodeBand); empty for a hierarchical node. */
    SearchBand band;
    /** Nests searched after the band under the same budget. */
    std::vector<SearchBand> secondaries;
    /** The node's connections, in connection order. */
    std::vector<NodeLink> links;
};

/** Everything parallelize derives under a schedule before it writes
 * there (see ParallelizeSearch). */
struct SchedulePlan {
    uint64_t epoch = 0;
    uint64_t hash = 0;
    uint64_t builds = 0;
    int64_t maxIntensity = 1;
    std::vector<Connection> connections;
    /** Step (2): connection count descending, intensity as tie-breaker. */
    std::vector<NodePlan> nodes;
};

/** Steps (1) and (2), and each node's nests. */
void
buildPlan(ScheduleOp schedule, SchedulePlan& plan)
{
    DataflowGraph graph(schedule);
    plan.connections = analyzeConnections(graph);
    std::vector<NodeOp> nodes = graph.nodes();

    // Step (1): intensity map.
    std::unordered_map<Operation*, int64_t> intensity;
    plan.maxIntensity = 1;
    for (NodeOp node : nodes) {
        intensity[node.op()] = nodeIntensity(node);
        plan.maxIntensity =
            std::max(plan.maxIntensity, intensity[node.op()]);
    }

    // Step (2): sort by connections desc, intensity as tie-breaker.
    std::stable_sort(nodes.begin(), nodes.end(),
                     [&](NodeOp a, NodeOp b) {
                         int64_t ca = graph.connectionCount(a);
                         int64_t cb = graph.connectionCount(b);
                         if (ca != cb)
                             return ca > cb;
                         return intensity[a.op()] > intensity[b.op()];
                     });

    plan.nodes.clear();
    std::unordered_map<Operation*, size_t> position;
    for (NodeOp node : nodes) {
        position[node.op()] = plan.nodes.size();
        NodePlan& entry = plan.nodes.emplace_back(
            NodePlan{node, intensity[node.op()], SearchBand(nodeBand(node)),
                     {}, {}});
        // Secondary nests (e.g. the init nest of a fused init+update
        // pair, or a pooling nest fused behind a convolution). For a node
        // with a main band the last nest *is* the band; hierarchical
        // nodes treat every loose nest as secondary.
        std::vector<ForOp> top = topLevelLoops(node.body());
        size_t secondary_count =
            entry.band.empty() ? top.size()
                               : (top.empty() ? 0 : top.size() - 1);
        for (size_t li = 0; li < secondary_count; ++li) {
            std::vector<ForOp> secondary;
            for (ForOp loop : perfectNest(top[li]))
                if (!loop.op()->hasAttr(ForOp::tileLoopId()))
                    secondary.push_back(loop);
            if (!secondary.empty())
                entry.secondaries.emplace_back(std::move(secondary));
        }
    }
    for (size_t c = 0; c < plan.connections.size(); ++c) {
        size_t source = position.at(plan.connections[c].source.op());
        size_t target = position.at(plan.connections[c].target.op());
        plan.nodes[target].links.push_back({c, source, true});
        if (source != target)
            plan.nodes[source].links.push_back({c, target, false});
    }
}

} // namespace

struct ParallelizeSearch::State {
    QorEstimator estimator{searchDevice()};
    std::unordered_map<const Operation*, SchedulePlan> plans;
    uint64_t planBuilds = 0;

    /** @p schedule's plan, rebuilt unless the epoch and the schedule's
     * subtree hash both match the ones it was built under. */
    const SchedulePlan&
    planFor(ScheduleOp schedule)
    {
        SchedulePlan& plan = plans[schedule.op()];
        const uint64_t epoch = schedule.op()->structureEpoch();
        const uint64_t hash = schedule.op()->subtreeHash();
        if (plan.builds == 0 || plan.epoch != epoch || plan.hash != hash) {
            buildPlan(schedule, plan);
            plan.epoch = epoch;
            plan.hash = hash;
            ++plan.builds;
            ++planBuilds;
        }
        return plan;
    }
};

ParallelizeSearch::ParallelizeSearch() : state_(std::make_unique<State>()) {}

ParallelizeSearch::~ParallelizeSearch() = default;

QorCacheStats
ParallelizeSearch::cacheStats() const
{
    return state_->estimator.cacheStats();
}

uint64_t
ParallelizeSearch::planBuilds() const
{
    return state_->planBuilds;
}

uint64_t
ParallelizeSearch::planBuilds(const Operation* schedule) const
{
    auto it = state_->plans.find(schedule);
    return it == state_->plans.end() ? 0 : it->second.builds;
}

namespace {

class Parallelizer {
  public:
    Parallelizer(FlowOptions options, ParallelizeSearch::State& search)
        : options_(options), search_(search) {}

    void
    runOnSchedule(ScheduleOp schedule)
    {
        // The plan is read before the first write under the schedule.
        const SchedulePlan& plan = search_.planFor(schedule);
        if (plan.nodes.empty())
            return;

        // Hierarchical budget: a nested schedule inherits the parallel
        // factor assigned to its parent node, so intensity shares decompose
        // level by level (the hierarchical optimization of Section 6).
        int64_t budget = options_.maxParallelFactor;
        if (Operation* parent =
                schedule.op()->parentOfName(opNameId<NodeOp>()))
            budget = parent->intAttrOr(NodeOp::parallelFactorId(), budget);

        // Step (4) in order; step (3) factor computed per node.
        QorEstimator& est = search_.estimator;
        for (const NodePlan& entry : plan.nodes) {
            int64_t pf = budget;
            if (options_.strategy.intensityAware &&
                !options_.uniformParallelization) {
                double share = static_cast<double>(entry.intensity) /
                               static_cast<double>(plan.maxIntensity);
                pf = std::max<int64_t>(
                    1, static_cast<int64_t>(std::llround(budget * share)));
            }

            NodeOp node = entry.node;
            auto oracle = [&est, node]() { return est.estimateNode(node); };
            if (!entry.band.empty()) {
                std::vector<std::vector<int64_t>> constraints;
                if (options_.strategy.connectionAware &&
                    !options_.uniformParallelization)
                    constraints = gatherConstraints(plan, entry);
                exploreBand(entry.band, pf, constraints, oracle);
            }
            // A hierarchical node's nested schedule consumes the budget
            // when it is visited (top-down walk). Secondary nests get an
            // unconstrained DSE under the same node budget.
            for (const SearchBand& secondary : entry.secondaries)
                exploreBand(secondary, pf, {}, oracle);

            // Written only now, so no candidate's memo key carries the
            // budget (the bookkeeping rule in passes.h).
            node.op()->setIntAttr(NodeOp::parallelFactorId(), pf);
            node.op()->setAttr(NodeOp::parallelizedId(), Attribute::unit());
        }
    }

    /** DSE over loop nests sitting directly in the function body. */
    void
    runOnStandaloneLoops(FuncOp func)
    {
        QorEstimator& est = search_.estimator;
        for (ForOp top : topLevelLoops(func.body())) {
            std::vector<ForOp> band;
            for (ForOp loop : perfectNest(top))
                if (!loop.op()->hasAttr(ForOp::tileLoopId()))
                    band.push_back(loop);
            if (band.empty())
                continue;
            exploreBand(SearchBand(std::move(band)),
                        options_.maxParallelFactor, {},
                        [&est, top]() { return est.estimateLoop(top); });
        }
    }

  private:
    /** Alg. 4 lines 1-8: permute+scale neighbours' factors into this
     * node's band indexing. A zero entry means "unconstrained". */
    std::vector<std::vector<int64_t>>
    gatherConstraints(const SchedulePlan& plan, const NodePlan& entry)
    {
        std::vector<std::vector<int64_t>> result;
        for (const NodeLink& link : entry.links) {
            const NodePlan& other = plan.nodes[link.other];
            if (!other.node.op()->hasAttr(NodeOp::parallelizedId()))
                continue;
            const Connection& conn = plan.connections[link.connection];
            std::vector<int64_t> other_factors = other.band.factors();
            std::vector<int64_t> constraint(entry.band.size(), 0);
            if (link.isTarget) {
                // constraint[t] = factors_src[perm] * scaleSToT[perm].
                for (size_t t = 0; t < conn.permSToT.size() &&
                                   t < constraint.size(); ++t) {
                    int64_t s = conn.permSToT[t];
                    if (s == kEmptyLevel ||
                        s >= static_cast<int64_t>(other_factors.size()))
                        continue;
                    double scaled = other_factors[s] * conn.scaleSToT[s];
                    if (scaled >= 1.0)
                        constraint[t] =
                            static_cast<int64_t>(std::llround(scaled));
                }
            } else {
                for (size_t s = 0; s < conn.permTToS.size() &&
                                   s < constraint.size(); ++s) {
                    int64_t t = conn.permTToS[s];
                    if (t == kEmptyLevel ||
                        t >= static_cast<int64_t>(other_factors.size()))
                        continue;
                    double scaled = other_factors[t] * conn.scaleTToS[t];
                    if (scaled >= 1.0)
                        constraint[s] =
                            static_cast<int64_t>(std::llround(scaled));
                }
            }
            result.push_back(std::move(constraint));
        }
        return result;
    }

    /** Alg. 4 lines 12-18: constraint validity of a factor proposal. */
    bool
    isValid(const std::vector<int64_t>& factors, int64_t pf,
            const std::vector<std::vector<int64_t>>& constraints) const
    {
        for (const auto& constraint : constraints) {
            for (size_t i = 0; i < factors.size(); ++i) {
                if (constraint[i] != 0 &&
                    !mutuallyDivisible(constraint[i], factors[i]))
                    return false;
            }
        }
        return product(factors) <= pf;
    }

    /** Alg. 4 lines 10-24: bounded greedy hill-climbing DSE. Each round
     * proposes one refinement per band level (multiplying its factor up to
     * the next divisor of the trip count); the QoR @p oracle evaluates and
     * the Pareto-best (latency, then DSP) survivor evolves the search. The
     * best factors are left applied. */
    void
    exploreBand(const SearchBand& band, int64_t pf,
                const std::vector<std::vector<int64_t>>& constraints,
                const std::function<DesignQor()>& oracle)
    {
        auto evaluate = [&](const std::vector<int64_t>& factors) {
            band.apply(factors);
            return oracle();
        };
        auto better = [](const DesignQor& a, const DesignQor& b) {
            if (a.latencyCycles != b.latencyCycles)
                return a.latencyCycles < b.latencyCycles;
            if (a.res.dsp != b.res.dsp)
                return a.res.dsp < b.res.dsp;
            return a.res.bram18k < b.res.bram18k;
        };

        // Hill-climbing refinement from a seed (Alg. 4's evolve loop).
        auto climb = [&](std::vector<int64_t> seed) {
            DesignQor seed_qor = evaluate(seed);
            const int kMaxRounds = 24;
            for (int round = 0; round < kMaxRounds; ++round) {
                bool improved = false;
                for (size_t i = 0; i < band.size(); ++i) {
                    int64_t next = band.nextDivisor(i, seed[i]);
                    if (next == 0)
                        continue;
                    std::vector<int64_t> candidate = seed;
                    candidate[i] = next;
                    if (!isValid(candidate, pf, constraints))
                        continue;
                    DesignQor qor = evaluate(candidate);
                    if (better(qor, seed_qor)) {
                        seed = candidate;
                        seed_qor = qor;
                        improved = true;
                    }
                }
                if (!improved)
                    break;  // converged (Alg. 4 line 23)
            }
            return std::make_pair(seed, seed_qor);
        };

        // Seed set: (a) all-ones; (b) budget filled along the largest
        // remaining trip counts (escapes misaligned local optima); (c) the
        // constraint-aligned factors of each connection.
        std::vector<std::vector<int64_t>> seeds;
        seeds.emplace_back(band.size(), 1);
        {
            std::vector<int64_t> greedy(band.size(), 1);
            while (true) {
                int best_dim = -1;
                double best_gain = 0.0;
                for (size_t i = 0; i < band.size(); ++i) {
                    int64_t next = band.nextDivisor(i, greedy[i]);
                    if (next == 0)
                        continue;
                    std::vector<int64_t> candidate = greedy;
                    candidate[i] = next;
                    if (!isValid(candidate, pf, constraints))
                        continue;
                    double gain =
                        static_cast<double>(band.loops[i].tripCount()) /
                        static_cast<double>(greedy[i]);
                    if (gain > best_gain) {
                        best_gain = gain;
                        best_dim = static_cast<int>(i);
                    }
                }
                if (best_dim < 0)
                    break;
                greedy[best_dim] = band.nextDivisor(
                    static_cast<size_t>(best_dim), greedy[best_dim]);
            }
            seeds.push_back(std::move(greedy));
        }
        for (const auto& constraint : constraints) {
            std::vector<int64_t> seed(band.size(), 1);
            for (size_t i = 0; i < seed.size(); ++i)
                if (constraint[i] != 0)
                    seed[i] = largestDivisorUpTo(band.loops[i].tripCount(),
                                                 constraint[i]);
            if (isValid(seed, pf, constraints))
                seeds.push_back(std::move(seed));
        }

        std::vector<int64_t> best;
        DesignQor best_qor;
        for (const auto& seed : seeds) {
            auto [factors, qor] = climb(seed);
            if (best.empty() || better(qor, best_qor)) {
                best = factors;
                best_qor = qor;
            }
        }
        band.apply(best);
    }

    FlowOptions options_;
    ParallelizeSearch::State& search_;
};

} // namespace

class ParallelizePass : public Pass {
  public:
    ParallelizePass(FlowOptions options, ParallelizeSearch* search,
                    SitePlan* sites)
        : Pass("parallelize"), options_(options), search_(search),
          sites_(sites) {}

    void
    runOnModule(ModuleOp module) override
    {
        if (!options_.enableParallelization)
            return;
        std::optional<ParallelizeSearch> cold;
        ParallelizeSearch& search =
            search_ != nullptr ? *search_ : cold.emplace();
        SitePlan& plan = sites_ != nullptr ? *sites_ : own_;
        Parallelizer parallelizer(options_, *search.state_);
        // Top-down: outer schedules assign per-node budgets before the
        // nested schedules distribute them.
        for (Operation* schedule : plan.refresh(module).schedules())
            parallelizer.runOnSchedule(ScheduleOp(schedule));

        // Kernels without a dataflow opportunity (a single loop nest in the
        // function body) still get the intra-node DSE — both HIDA and
        // ScaleHLS optimize single-kernel designs identically (Section 7.1).
        for (Operation* op : *module.body()) {
            if (auto func = dynCast<FuncOp>(op))
                parallelizer.runOnStandaloneLoops(func);
        }
    }

  private:
    FlowOptions options_;
    ParallelizeSearch* search_;
    SitePlan* sites_;
    SitePlan own_;
};

std::unique_ptr<Pass>
createParallelizePass(FlowOptions options, ParallelizeSearch* search,
                      SitePlan* sites)
{
    return std::make_unique<ParallelizePass>(options, search, sites);
}

} // namespace hida
