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
 */

#include <algorithm>
#include <optional>

#include "src/analysis/connection.h"
#include "src/analysis/dataflow_graph.h"
#include "src/estimator/qor.h"
#include "src/support/diagnostics.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

/** Unroll factors currently applied to a node's band. */
std::vector<int64_t>
bandFactors(NodeOp node)
{
    std::vector<int64_t> factors;
    for (ForOp loop : nodeBand(node))
        factors.push_back(loop.unrollFactor());
    return factors;
}

class Parallelizer {
  public:
    Parallelizer(FlowOptions options, QorEstimator& estimator)
        : options_(options), estimator_(estimator) {}

    void
    runOnSchedule(ScheduleOp schedule)
    {
        DataflowGraph graph(schedule);
        std::vector<Connection> connections = analyzeConnections(graph);
        std::vector<NodeOp> nodes = graph.nodes();
        if (nodes.empty())
            return;

        // Hierarchical budget: a nested schedule inherits the parallel
        // factor assigned to its parent node, so intensity shares decompose
        // level by level (the hierarchical optimization of Section 6).
        int64_t budget = options_.maxParallelFactor;
        if (Operation* parent = schedule.op()->parentOfName(NodeOp::kOpName))
            budget = parent->intAttrOr("parallel_factor", budget);

        // Step (1): intensity map.
        std::map<Operation*, int64_t> intensity;
        int64_t max_intensity = 1;
        for (NodeOp node : nodes) {
            intensity[node.op()] = nodeIntensity(node);
            max_intensity = std::max(max_intensity, intensity[node.op()]);
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

        // Step (4) in order; step (3) factor computed per node.
        for (NodeOp node : nodes) {
            int64_t pf = budget;
            if (options_.strategy.intensityAware &&
                !options_.uniformParallelization) {
                double share = static_cast<double>(intensity[node.op()]) /
                               static_cast<double>(max_intensity);
                pf = std::max<int64_t>(
                    1, static_cast<int64_t>(std::llround(budget * share)));
            }
            node.op()->setIntAttr("parallel_factor", pf);

            QorEstimator& est = estimator_;
            std::vector<ForOp> band = nodeBand(node);
            if (!band.empty()) {
                std::vector<std::vector<int64_t>> constraints;
                if (options_.strategy.connectionAware &&
                    !options_.uniformParallelization)
                    constraints = gatherConstraints(node, band, connections);
                std::vector<int64_t> factors = exploreBand(
                    band, pf, constraints,
                    [&est, node]() { return est.estimateNode(node); });
                for (size_t i = 0; i < band.size(); ++i)
                    band[i].setUnrollFactor(factors[i]);
            }
            // A hierarchical node's nested schedule consumes the budget
            // when it is visited (top-down walk).

            // Secondary nests (e.g. the init nest of a fused init+update
            // pair, or a pooling nest fused behind a convolution) get an
            // unconstrained DSE under the same node budget. For a node
            // with a main band the last nest *is* the band; hierarchical
            // nodes treat every loose nest as secondary.
            std::vector<ForOp> top = topLevelLoops(node.body());
            size_t secondary_count =
                band.empty() ? top.size()
                             : (top.empty() ? 0 : top.size() - 1);
            for (size_t li = 0; li < secondary_count; ++li) {
                std::vector<ForOp> secondary;
                for (ForOp loop : perfectNest(top[li]))
                    if (!loop.op()->hasAttr("tile_loop"))
                        secondary.push_back(loop);
                if (secondary.empty())
                    continue;
                std::vector<int64_t> sec_factors = exploreBand(
                    secondary, pf, {},
                    [&est, node]() { return est.estimateNode(node); });
                for (size_t i = 0; i < secondary.size(); ++i)
                    secondary[i].setUnrollFactor(sec_factors[i]);
            }
            node.op()->setAttr("parallelized", Attribute::unit());
        }
    }

    /** DSE over loop nests sitting directly in the function body. */
    void
    runOnStandaloneLoops(FuncOp func)
    {
        QorEstimator& est = estimator_;
        for (ForOp top : topLevelLoops(func.body())) {
            std::vector<ForOp> band;
            for (ForOp loop : perfectNest(top))
                if (!loop.op()->hasAttr("tile_loop"))
                    band.push_back(loop);
            if (band.empty())
                continue;
            std::vector<int64_t> factors =
                exploreBand(band, options_.maxParallelFactor, {},
                            [&est, top]() { return est.estimateLoop(top); });
            for (size_t i = 0; i < band.size(); ++i)
                band[i].setUnrollFactor(factors[i]);
        }
    }

  private:
    /** Alg. 4 lines 1-8: permute+scale neighbours' factors into this
     * node's band indexing. A zero entry means "unconstrained". */
    std::vector<std::vector<int64_t>>
    gatherConstraints(NodeOp node, const std::vector<ForOp>& band,
                      const std::vector<Connection>& connections)
    {
        std::vector<std::vector<int64_t>> result;
        for (const Connection& conn : connections) {
            bool node_is_target = conn.target.op() == node.op();
            bool node_is_source = conn.source.op() == node.op();
            if (!node_is_target && !node_is_source)
                continue;
            NodeOp other = node_is_target ? conn.source : conn.target;
            if (!other.op()->hasAttr("parallelized"))
                continue;
            std::vector<int64_t> other_factors = bandFactors(other);
            std::vector<int64_t> constraint(band.size(), 0);
            if (node_is_target) {
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
     * the Pareto-best (latency, then DSP) survivor evolves the search. */
    std::vector<int64_t>
    exploreBand(const std::vector<ForOp>& band, int64_t pf,
                const std::vector<std::vector<int64_t>>& constraints,
                const std::function<DesignQor()>& oracle)
    {
        auto apply = [&](const std::vector<int64_t>& factors) {
            for (size_t i = 0; i < band.size(); ++i)
                const_cast<ForOp&>(band[i]).setUnrollFactor(factors[i]);
        };
        auto evaluate = [&](const std::vector<int64_t>& factors) {
            apply(factors);
            return oracle();
        };
        auto better = [](const DesignQor& a, const DesignQor& b) {
            if (a.latencyCycles != b.latencyCycles)
                return a.latencyCycles < b.latencyCycles;
            if (a.res.dsp != b.res.dsp)
                return a.res.dsp < b.res.dsp;
            return a.res.bram18k < b.res.bram18k;
        };

        auto next_divisor = [&](size_t i, int64_t current) -> int64_t {
            for (int64_t d : divisorsOf(band[i].tripCount()))
                if (d > current)
                    return d;
            return 0;
        };

        // Hill-climbing refinement from a seed (Alg. 4's evolve loop).
        auto climb = [&](std::vector<int64_t> seed) {
            DesignQor seed_qor = evaluate(seed);
            const int kMaxRounds = 24;
            for (int round = 0; round < kMaxRounds; ++round) {
                bool improved = false;
                for (size_t i = 0; i < band.size(); ++i) {
                    int64_t next = next_divisor(i, seed[i]);
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
                    int64_t next = next_divisor(i, greedy[i]);
                    if (next == 0)
                        continue;
                    std::vector<int64_t> candidate = greedy;
                    candidate[i] = next;
                    if (!isValid(candidate, pf, constraints))
                        continue;
                    double gain = static_cast<double>(band[i].tripCount()) /
                                  static_cast<double>(greedy[i]);
                    if (gain > best_gain) {
                        best_gain = gain;
                        best_dim = static_cast<int>(i);
                    }
                }
                if (best_dim < 0)
                    break;
                greedy[best_dim] =
                    next_divisor(static_cast<size_t>(best_dim),
                                 greedy[best_dim]);
            }
            seeds.push_back(std::move(greedy));
        }
        for (const auto& constraint : constraints) {
            std::vector<int64_t> seed(band.size(), 1);
            for (size_t i = 0; i < seed.size(); ++i)
                if (constraint[i] != 0)
                    seed[i] = largestDivisorUpTo(band[i].tripCount(),
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
        apply(best);
        return best;
    }

    FlowOptions options_;
    QorEstimator& estimator_;
};

class ParallelizePass : public Pass {
  public:
    ParallelizePass(FlowOptions options, QorEstimator* estimator)
        : Pass("parallelize"), options_(options), estimator_(estimator) {}

    void
    runOnModule(ModuleOp module) override
    {
        if (!options_.enableParallelization)
            return;
        std::optional<QorEstimator> cold;
        if (estimator_ == nullptr)
            cold.emplace(parallelizeSearchDevice());
        Parallelizer parallelizer(options_, cold ? *cold : *estimator_);
        // Top-down: outer schedules assign per-node budgets before the
        // nested schedules distribute them.
        std::vector<Operation*> schedules;
        module.op()->walk([&](Operation* op) {
            if (isa<ScheduleOp>(op))
                schedules.push_back(op);
        }, WalkOrder::kPreOrder);
        for (Operation* schedule : schedules)
            parallelizer.runOnSchedule(ScheduleOp(schedule));

        // Kernels without a dataflow opportunity (a single loop nest in the
        // function body) still get the intra-node DSE — both HIDA and
        // ScaleHLS optimize single-kernel designs identically (Section 7.1).
        for (Operation* op : module.body()->ops()) {
            if (auto func = dynCast<FuncOp>(op))
                parallelizer.runOnStandaloneLoops(func);
        }
    }

  private:
    FlowOptions options_;
    QorEstimator* estimator_;
};

} // namespace

std::unique_ptr<Pass>
createParallelizePass(FlowOptions options, QorEstimator* estimator)
{
    return std::make_unique<ParallelizePass>(options, estimator);
}

TargetDevice
parallelizeSearchDevice()
{
    // The device only sets the external-interface constants of the
    // search's estimates; use the largest profile.
    return TargetDevice::vu9pSlr();
}

} // namespace hida
