/**
 * @file
 * Driver tests: compileAutoTuned runs the prefix once and every
 * parallel-factor trial in place on one module, with warm estimators.
 * Each search must end on exactly the result the plain search reaches
 * by rebuilding the model and calling compile() for every trial. The
 * trial loop, run on an evaluator the test reads, pins how often
 * parallelize's search misses the memo and builds a schedule plan, and
 * that the site plan is built once. Trials shaped like Figures 10 and 11
 * must equal fresh compiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/driver/driver.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/registry.h"
#include "src/models/dnn_models.h"
#include "src/models/polybench.h"
#include "src/support/diagnostics.h"

namespace hida {
namespace {

/** One model on its benchmark's device, with its base options. */
struct Design {
    std::string name;
    std::function<OwnedModule()> rebuild;
    TargetDevice device;
    bool untiled = false;
};

/**
 * The trials of the plain factor search: each one rebuilds the model
 * and compiles it fresh. A trial is compiled on first use, so searches
 * with different bounds share the trials they have in common.
 */
class FreshTrials {
  public:
    FreshTrials(const Design& design, const FlowOptions& options)
        : design_(design), options_(options) {}

    const CompileResult&
    at(int64_t pf)
    {
        auto [it, inserted] = results_.try_emplace(pf);
        if (inserted) {
            FlowOptions options = options_;
            options.maxParallelFactor = pf;
            OwnedModule module = design_.rebuild();
            it->second = compile(module.get(), options, design_.device);
        }
        return it->second;
    }

  private:
    const Design& design_;
    FlowOptions options_;
    std::map<int64_t, CompileResult> results_;
};

/** compileAutoTuned's search rule over fresh trials. */
CompileResult
referenceAutoTuned(FreshTrials& trials, int64_t max_pf)
{
    CompileResult best;
    bool have_best = false;
    int regressions = 0;
    for (int64_t pf = 1;; pf *= 2) {
        const CompileResult& result = trials.at(pf);
        if (!have_best ||
            result.effectiveThroughput > best.effectiveThroughput * 1.02) {
            best = result;
            have_best = true;
            regressions = 0;
        } else if (++regressions >= 3) {
            break;
        }
        if (pf > max_pf / 2)
            break;
    }
    return best;
}

uint64_t
bits(double value)
{
    return std::bit_cast<uint64_t>(value);
}

/** Every CompileResult field but compileSeconds; doubles as raw bits. */
auto
fields(const CompileResult& r)
{
    const Resources& res = r.qor.res;
    return std::make_tuple(r.qor.latencyCycles, bits(r.qor.intervalCycles),
                           res.lut, res.ff, res.dsp, res.bram18k, r.feasible,
                           bits(r.overload), bits(r.effectiveThroughput));
}

std::vector<Design>
designs()
{
    std::vector<Design> result;
    for (const std::string& name : dnnModelNames()) {
        auto build = [name] { return buildDnnModel(name); };
        result.push_back({name, build, TargetDevice::vu9pSlr()});
    }
    // Table 2 of Figure 1: LeNet at batch 10, untiled.
    auto lenet = [] { return buildLeNet(10); };
    result.push_back({"LeNet-b10", lenet, TargetDevice::pynqZ2(), true});
    for (const char* name : {"2mm", "3mm"}) {
        auto build = [name] { return buildPolybenchKernel(name); };
        result.push_back({name, build, TargetDevice::zu3eg()});
    }
    return result;
}

TEST(CompileAutoTunedTest, InPlaceTrialsEqualFreshCompiles)
{
    struct Case {
        std::string name;
        Design design;
        FlowOptions options;
    };
    std::vector<Case> cases;
    for (const Design& design : designs()) {
        for (Flow flow : {Flow::kHida, Flow::kScaleHls}) {
            if (flow == Flow::kScaleHls &&
                !scaleHlsSupports(design.rebuild().get()))
                continue;
            FlowOptions options = optionsFor(flow);
            if (design.untiled)
                options.enableTiling = false;
            std::string name = design.name + " " + flowName(flow);
            cases.push_back({name, design, options});
        }
    }
    // 512 is the default; 8 cuts every search short.
    const int64_t bounds[] = {512, 8};
    // The fresh compiles run on a second thread while this one runs the
    // in-place searches: both are thread-safe on disjoint modules.
    auto run_references = [&] {
        std::vector<CompileResult> results;
        for (const Case& c : cases) {
            FreshTrials fresh(c.design, c.options);
            for (int64_t bound : bounds)
                results.push_back(referenceAutoTuned(fresh, bound));
        }
        return results;
    };
    auto references = std::async(std::launch::async, run_references);
    std::vector<CompileResult> in_place;
    for (const Case& c : cases) {
        for (int64_t bound : bounds)
            in_place.push_back(compileAutoTuned(c.design.rebuild, c.options,
                                                c.design.device, bound));
    }
    const std::vector<CompileResult> expected = references.get();
    const size_t per_case = std::size(bounds);
    for (size_t i = 0; i < in_place.size(); ++i) {
        std::string what = cases[i / per_case].name + " max_pf=";
        what += std::to_string(bounds[i % per_case]);
        EXPECT_EQ(fields(in_place[i]), fields(expected[i])) << what;
    }
}

TEST(CompileAutoTunedTest, UnboundedFactorStopsOnRegressions)
{
    // Doubling towards INT64_MAX must neither overflow nor run forever:
    // three trials without progress end the search.
    auto build = [] { return buildPolybenchKernel("2mm"); };
    const Design design{"2mm", build, TargetDevice::zu3eg()};
    const FlowOptions options = optionsFor(Flow::kHida);
    const int64_t max_pf = std::numeric_limits<int64_t>::max();
    CompileResult result =
        compileAutoTuned(build, options, design.device, max_pf);
    EXPECT_GT(result.effectiveThroughput, 0.0);
    FreshTrials fresh(design, options);
    EXPECT_EQ(fields(result), fields(referenceAutoTuned(fresh, max_pf)));
}

TEST(ParallelizeSearchTest, TrialLoopCountsPinned)
{
    // compileAutoTuned's trial loop on an evaluator the test can read,
    // on the compile-zoo configuration. One ParallelizeSearch serves
    // every trial: each schedule's plan is built once per call, and a
    // candidate's memo key carries no budget, so the misses left are
    // about the distinct (band, factors) candidates. With a fresh search
    // estimator per call and the budget in every key, a round of the six
    // models missed 7304 times and ran about 920 graph and connection
    // analyses. The site plan is built once per call: no trial walks the
    // module.
    struct Expected {
        std::string model;
        uint64_t misses;
        uint64_t plans;
    };
    const Expected expected[] = {
        {"ResNet-18", 749, 22}, {"MobileNet", 851, 29}, {"ZFNet", 342, 9},
        {"VGG-16", 572, 17},    {"YOLO", 369, 10},      {"MLP", 108, 5},
    };
    const TargetDevice device = TargetDevice::vu9pSlr();
    const FlowOptions base = optionsFor(Flow::kHida);
    const int64_t max_pf = 512;
    for (const Expected& e : expected) {
        SCOPED_TRACE(e.model);
        TrialEvaluator evaluator(buildDnnModel(e.model), base, device);
        CompileResult tuned = tuneParallelFactor(evaluator, base, max_pf);
        EXPECT_EQ(evaluator.trials(), 10u);
        EXPECT_EQ(evaluator.search().cacheStats().misses, e.misses);
        EXPECT_EQ(evaluator.search().planBuilds(), e.plans);
        EXPECT_EQ(evaluator.sites().builds(), 1u);

        // compileAutoTuned is the same search on its own evaluator.
        auto rebuild = [&e] { return buildDnnModel(e.model); };
        EXPECT_EQ(fields(tuned),
                  fields(compileAutoTuned(rebuild, base, device, max_pf)));
    }
}

TEST(TrialEvaluatorTest, ShuffledTrialsEqualFreshCompiles)
{
    // Figures 10 and 11 in one: two prefixed ResNet-18s at different tile
    // sizes, each serving trials at every factor and IA/CA arm, in an
    // order shuffled across both. Each trial must equal a fresh compile
    // of the same point, and each evaluator builds one site plan.
    const TargetDevice device = TargetDevice::vu9pSlr();
    const int64_t tiles[] = {4, 32};
    const int64_t factors[] = {1, 4, 16, 64, 256};
    const ParallelStrategy arms[] = {
        {true, true}, {true, false}, {false, true}, {false, false}};
    std::vector<FlowOptions> points;
    for (int64_t tile : tiles) {
        for (int64_t pf : factors) {
            for (const ParallelStrategy& arm : arms) {
                FlowOptions options = optionsFor(Flow::kHida);
                options.tileSize = tile;
                options.maxParallelFactor = pf;
                options.strategy = arm;
                points.push_back(options);
            }
        }
    }
    uint64_t state = 0x0F16u;
    for (size_t i = points.size(); i > 1; --i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(points[i - 1], points[(state >> 33) % i]);
    }

    std::map<int64_t, std::unique_ptr<TrialEvaluator>> evaluators;
    for (const FlowOptions& options : points) {
        std::unique_ptr<TrialEvaluator>& evaluator =
            evaluators[options.tileSize];
        if (!evaluator)
            evaluator = std::make_unique<TrialEvaluator>(
                buildDnnModel("ResNet-18"), options, device);
        OwnedModule fresh = buildDnnModel("ResNet-18");
        EXPECT_EQ(fields(evaluator->run(options)),
                  fields(compile(fresh.get(), options, device)))
            << "tile " << options.tileSize << " pf "
            << options.maxParallelFactor << " ia "
            << options.strategy.intensityAware << " ca "
            << options.strategy.connectionAware;
    }
    for (const auto& [tile, evaluator] : evaluators) {
        EXPECT_EQ(evaluator->trials(), std::size(factors) * std::size(arms))
            << "tile " << tile;
        EXPECT_EQ(evaluator->sites().builds(), 1u) << "tile " << tile;
    }
}

TEST(CompileAutoTunedDeathTest, FactorBelowOneIsFatal)
{
    auto build = [] { return buildPolybenchKernel("2mm"); };
    const FlowOptions options = optionsFor(Flow::kHida);
    EXPECT_EXIT(compileAutoTuned(build, options, TargetDevice::zu3eg(), 0),
                ::testing::ExitedWithCode(kFatalExitCode), "max_pf");
}

/** The printed tiny CNN with its maxpool kernel edited to 0: it parses,
 * and the verifier rejects it. */
OwnedModule
zeroKernelTinyCnn()
{
    registerAllDialects();
    std::string text = toString(buildTinyCnn().get().op());
    const std::string from = "kernel = 2";
    const size_t pos = text.find(from);
    HIDA_ASSERT(pos != std::string::npos, "the tiny CNN has no ", from);
    text.replace(pos, from.size(), "kernel = 0");
    return std::move(parseModule(text).value());
}

// Invalid input is the input's fault: both entry points verify it before
// the first pass and exit through HIDA_FATAL, never a panic after it.
TEST(CompileDeathTest, InvalidInputIsFatal)
{
    EXPECT_EXIT(
        {
            OwnedModule module = zeroKernelTinyCnn();
            compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
        },
        ::testing::ExitedWithCode(kFatalExitCode), "kernel >= 1");
}

TEST(CompileAutoTunedDeathTest, InvalidInputIsFatal)
{
    EXPECT_EXIT(compileAutoTuned(zeroKernelTinyCnn, optionsFor(Flow::kHida),
                                 TargetDevice::zu3eg()),
                ::testing::ExitedWithCode(kFatalExitCode), "kernel >= 1");
}

} // namespace
} // namespace hida
