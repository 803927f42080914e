/**
 * @file
 * Parallelize tests: the factors the pass writes on the paper's Listing 1
 * (Table 5), and warm-vs-cold differential fuzzing of the schedule plans
 * a ParallelizeSearch keeps from run to run.
 *
 * A stale plan is silent: the search runs on an old band, old trip counts
 * or old connections and writes plausible factors. The fuzzer serves a
 * few hundred suffix runs from one ParallelizeSearch and one SitePlan,
 * the state a TrialEvaluator keeps, each with a random maximum parallel
 * factor and strategy. It strips the directives between runs through the
 * same site plan, and every few runs edits the IR under one schedule: a
 * loop's tile_loop tag toggled, a loop's upper bound moved, an op
 * inserted or erased. After each strip the printed IR must equal the
 * prefixed module with the same edits, and after each run it must equal
 * a cold run (no search, no shared site plan) on a fresh clone of it.
 * Each run must rebuild exactly the plans of the schedules an edit
 * landed under: the edited schedule and the schedules enclosing it for
 * an attribute edit, and every plan for a structural edit, since the
 * structure epoch belongs to the whole tree. The site plan reads only
 * structure, so it is built once after a structural edit and never
 * after an attribute edit.
 *
 * Determinism: the xorshift seed is fixed per test, and a failure prints
 * the seed, the step and the trace of runs and edits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/connection.h"
#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/driver/driver.h"
#include "src/ir/printer.h"
#include "src/models/dnn_models.h"
#include "src/models/polybench.h"
#include "src/transforms/passes.h"

namespace hida {
namespace {

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

/** Each node's band factors and parallel factor, as Table 5 prints them. */
std::vector<std::string>
table5Row(ModuleOp module)
{
    std::vector<std::string> row;
    module.op()->walk([&](Operation* op) {
        auto node = dynCast<NodeOp>(op);
        if (!node)
            return;
        std::string text = "[";
        for (ForOp loop : nodeBand(node)) {
            if (text.size() > 1)
                text += " ";
            text += std::to_string(loop.unrollFactor());
        }
        int64_t pf = op->intAttrOr(NodeOp::parallelFactorId(), 1);
        text += "] pf=" + std::to_string(pf);
        row.push_back(text);
    });
    return row;
}

TEST(ParallelizeTest, Listing1Table5FactorsPinned)
{
    // bench_table4_6_listing1's Table 5: Listing 1 on the HIDA flow,
    // untiled, at maximum parallel factor 32. Only this table shows the
    // factors and parallel_factor parallelize writes.
    const std::vector<std::string> intensity_aware = {
        "[2 2] pf=4", "[2 1] pf=2", "[4 4 2] pf=32"};
    const std::vector<std::string> uniform = {
        "[8 4] pf=32", "[8 4] pf=32", "[4 4 2] pf=32"};
    struct Arm {
        const char* name;
        bool ia, ca;
        const std::vector<std::string>& row;
    };
    const Arm arms[] = {{"IA+CA", true, true, intensity_aware},
                        {"IA", true, false, intensity_aware},
                        {"CA", false, true, uniform},
                        {"Naive", false, false, uniform}};
    for (const Arm& arm : arms) {
        OwnedModule module = buildListing1();
        FlowOptions options = optionsFor(Flow::kHida);
        options.enableTiling = false;
        options.maxParallelFactor = 32;
        options.strategy = {arm.ia, arm.ca};
        compile(module.get(), options, TargetDevice::zu3eg());
        EXPECT_EQ(table5Row(module.get()), arm.row) << arm.name;
    }
}

/** Ops of kind @p OpT in pre-order. Two modules with equal structure list
 * corresponding ops at equal positions. */
template <typename OpT>
std::vector<Operation*>
opsOf(ModuleOp module)
{
    std::vector<Operation*> ops;
    module.op()->walk([&](Operation* op) {
        if (isa<OpT>(op))
            ops.push_back(op);
    }, WalkOrder::kPreOrder);
    return ops;
}

/** One campaign: a prefixed module served by one ParallelizeSearch, and
 * the reference copy the same edits land on. */
class PlanFuzzer {
  public:
    PlanFuzzer(OwnedModule module, const FlowOptions& prefix_options,
               uint64_t seed)
        : warm_(std::move(module)), rng_(seed), seed_(seed)
    {
        PassManager prefix;
        addPrefixPasses(prefix, prefix_options);
        prefix.run(warm_.get());
        reference_ = OwnedModule::clone(warm_.get());
        schedules_ = opsOf<ScheduleOp>(warm_.get());
    }

    /** @p steps suffix runs, an edit before about one in three. */
    void
    run(int steps)
    {
        ASSERT_FALSE(schedules_.empty());
        for (int step = 0; step < steps && !::testing::Test::HasFailure();
             ++step) {
            // The first run builds every plan and the site plan.
            std::vector<Operation*> rebuilt = schedules_;
            bool structural = true;
            const uint64_t site_builds = sites_.builds();
            if (step > 0) {
                stripSuffixDirectives(warm_.get(), sites_);
                if (toString(warm_.get().op()) !=
                    toString(reference_.get().op())) {
                    fail(step, "the strip left a suffix directive behind");
                    return;
                }
                rebuilt.clear();
                structural = false;
                if (rng_.below(3) == 0)
                    rebuilt = edit(structural);
            }
            FlowOptions options = drawOptions();
            std::vector<uint64_t> before = planBuilds();

            PassManager warm;
            addSuffixPasses(warm, options, &search_, &sites_);
            warm.run(warm_.get());
            OwnedModule cold = OwnedModule::clone(reference_.get());
            PassManager fresh;
            addSuffixPasses(fresh, options);
            fresh.run(cold.get());
            if (toString(warm_.get().op()) != toString(cold.get().op())) {
                fail(step, "the warm run's IR differs from the cold run's");
                return;
            }

            if (sites_.builds() - site_builds != (structural ? 1u : 0u)) {
                std::ostringstream what;
                what << "the site plan was built "
                     << sites_.builds() - site_builds << " times after "
                     << (structural ? "a structural edit" : "no such edit");
                fail(step, what.str());
                return;
            }

            std::vector<uint64_t> after = planBuilds();
            for (size_t k = 0; k < schedules_.size(); ++k) {
                uint64_t expected = std::count(rebuilt.begin(), rebuilt.end(),
                                               schedules_[k]);
                if (after[k] - before[k] != expected) {
                    std::ostringstream what;
                    what << "schedule " << k << " rebuilt its plan "
                         << after[k] - before[k] << " times, expected "
                         << expected;
                    fail(step, what.str());
                    return;
                }
            }
        }
    }

  private:
    FlowOptions
    drawOptions()
    {
        FlowOptions options = optionsFor(Flow::kHida);
        options.maxParallelFactor = 1 + static_cast<int64_t>(rng_.below(512));
        options.strategy = {rng_.below(2) == 0, rng_.below(2) == 0};
        options.uniformParallelization = rng_.below(4) == 0;
        std::ostringstream desc;
        desc << "run max_pf=" << options.maxParallelFactor
             << " ia=" << options.strategy.intensityAware
             << " ca=" << options.strategy.connectionAware
             << " uniform=" << options.uniformParallelization;
        trace_.push_back(desc.str());
        return options;
    }

    std::vector<uint64_t>
    planBuilds() const
    {
        std::vector<uint64_t> builds;
        for (Operation* schedule : schedules_)
            builds.push_back(search_.planBuilds(schedule));
        return builds;
    }

    /** The schedules @p op sits under, innermost first. */
    static std::vector<Operation*>
    enclosingSchedules(Operation* op)
    {
        std::vector<Operation*> result;
        for (Operation* p = op->parentOp(); p != nullptr; p = p->parentOp())
            if (isa<ScheduleOp>(p))
                result.push_back(p);
        return result;
    }

    /** Put a constant at the front of @p loop's body. */
    static Operation*
    insertConstant(Operation* loop)
    {
        OpBuilder builder;
        builder.setInsertionPointToStart(ForOp(loop).body());
        return ConstantOp::create(builder, Type::f32(), 1.0).op();
    }

    /** One edit under one schedule, on both modules. Returns the
     * schedules whose plans the next run must rebuild, and sets
     * @p structural when the edit moved the structure epoch. */
    std::vector<Operation*>
    edit(bool& structural)
    {
        std::vector<Operation*> warm_loops = opsOf<ForOp>(warm_.get());
        std::vector<Operation*> ref_loops = opsOf<ForOp>(reference_.get());
        size_t i = rng_.below(warm_loops.size());
        Operation* loop = warm_loops[i];
        std::vector<Operation*> pair = {loop, ref_loops[i]};
        std::ostringstream desc;
        desc << "edit loop " << i << ": ";
        switch (rng_.below(4)) {
        case 0: {  // band membership
            bool tagged = loop->hasAttr(ForOp::tileLoopId());
            for (Operation* op : pair) {
                if (tagged)
                    op->removeAttr(ForOp::tileLoopId());
                else
                    op->setAttr(ForOp::tileLoopId(), Attribute::unit());
            }
            desc << (tagged ? "untag" : "tag") << " tile_loop";
            trace_.push_back(desc.str());
            return enclosingSchedules(loop);
        }
        case 1: {  // trip count, and so the divisor lists
            ForOp view(loop);
            int64_t trip = view.tripCount();
            int64_t next =
                1 + static_cast<int64_t>(rng_.below(
                        static_cast<uint64_t>(std::min<int64_t>(
                            2 * std::max<int64_t>(trip, 1), 256))));
            if (next == trip)
                next = trip == 1 ? 2 : trip - 1;
            int64_t ub = view.lowerBound() + view.step() * next;
            for (Operation* op : pair)
                op->setIntAttr(ForOp::ubId(), ub);
            desc << "trip count " << trip << " -> " << next;
            trace_.push_back(desc.str());
            return enclosingSchedules(loop);
        }
        case 2: {
            inserted_.push_back({insertConstant(pair[0]),
                                 insertConstant(pair[1])});
            desc << "insert a constant";
            break;
        }
        default: {
            if (inserted_.empty()) {
                insertConstant(pair[0])->erase();
                insertConstant(pair[1])->erase();
                desc << "insert and erase a constant";
                break;
            }
            size_t k = rng_.below(inserted_.size());
            inserted_[k].first->erase();
            inserted_[k].second->erase();
            inserted_.erase(inserted_.begin() + static_cast<long>(k));
            desc << "erase inserted constant " << k;
            break;
        }
        }
        // Structural: the tree's epoch moved, so every plan rebuilds.
        trace_.push_back(desc.str());
        structural = true;
        return schedules_;
    }

    void
    fail(int step, const std::string& what)
    {
        std::ostringstream msg;
        msg << what << " (seed 0x" << std::hex << seed_ << std::dec
            << ", step " << step << ")\ntrace:\n";
        for (size_t i = 0; i < trace_.size(); ++i)
            msg << "  [" << i << "] " << trace_[i] << "\n";
        FAIL() << msg.str();
    }

    OwnedModule warm_;
    OwnedModule reference_;
    ParallelizeSearch search_;
    SitePlan sites_;
    XorShift rng_;
    uint64_t seed_;
    std::vector<Operation*> schedules_;
    std::vector<std::pair<Operation*, Operation*>> inserted_;
    std::vector<std::string> trace_;
};

TEST(ParallelizeSearchDifferentialTest, LenetSurvives120Runs)
{
    // Tiled: a top schedule whose nodes hold nested schedules.
    PlanFuzzer fuzzer(buildLeNet(1), optionsFor(Flow::kHida),
                      /*seed=*/0x9A7A11E1);
    fuzzer.run(120);
}

TEST(ParallelizeSearchDifferentialTest, ResNet18Survives20Runs)
{
    // 22 schedules, all searched cold by every reference run: the
    // slowest campaign per run.
    PlanFuzzer fuzzer(buildDnnModel("ResNet-18"), optionsFor(Flow::kHida),
                      /*seed=*/0x5EA4C4ED);
    fuzzer.run(20);
}

TEST(ParallelizeSearchDifferentialTest, Polybench3mmSurvives200Runs)
{
    PlanFuzzer fuzzer(buildPolybenchKernel("3mm"), optionsFor(Flow::kHida),
                      /*seed=*/0x3111F00D);
    fuzzer.run(200);
}

} // namespace
} // namespace hida
