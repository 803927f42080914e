/**
 * @file
 * Model-zoo and emitter tests: every Table 8 network builds with correct
 * shapes and MAC counts; every PolyBench kernel builds and verifies; the
 * HLS C++ emitter produces the expected pragmas and structure.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/dialect/nn/nn_ops.h"
#include "src/driver/driver.h"
#include "src/emitter/hls_emitter.h"
#include "src/frontend/torch_builder.h"
#include "src/ir/verifier.h"
#include "src/models/dnn_models.h"
#include "src/models/polybench.h"

namespace hida {
namespace {

class ModelBuildProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelBuildProperty, BuildsAndVerifies)
{
    int64_t macs = 0;
    OwnedModule module = buildDnnModel(GetParam(), &macs);
    EXPECT_FALSE(verify(module.get().op()).has_value()) << GetParam();
    EXPECT_GT(macs, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Zoo, ModelBuildProperty,
                         ::testing::Values("ResNet-18", "MobileNet", "ZFNet",
                                           "VGG-16", "YOLO", "MLP", "LeNet"));

TEST(ModelTest, MacCountsMatchArchitectures)
{
    int64_t macs = 0;
    buildDnnModel("ResNet-18", &macs);
    // ResNet-18 @224: ~1.8 GMACs.
    EXPECT_NEAR(static_cast<double>(macs), 1.8e9, 0.3e9);
    buildDnnModel("VGG-16", &macs);
    EXPECT_NEAR(static_cast<double>(macs), 15.5e9, 1.5e9);
    buildDnnModel("MLP", &macs);
    EXPECT_NEAR(static_cast<double>(macs), 2.9e6, 0.5e6);
}

TEST(ModelTest, LeNetShapes)
{
    OwnedModule module = buildLeNet(5);
    // Input batch is 5; final linear produces 5x10.
    Operation* last_linear = nullptr;
    module.get().op()->walk([&](Operation* op) {
        if (isa<LinearOp>(op))
            last_linear = op;
    });
    ASSERT_NE(last_linear, nullptr);
    EXPECT_EQ(last_linear->result(0)->type().shape(),
              (std::vector<int64_t>{5, 10}));
}

TEST(ModelTest, ZfNetHasIrregularConvs)
{
    OwnedModule module = buildDnnModel("ZFNet");
    EXPECT_FALSE(scaleHlsSupports(module.get()));
    OwnedModule yolo = buildDnnModel("YOLO");
    EXPECT_FALSE(scaleHlsSupports(yolo.get()));
    OwnedModule resnet = buildDnnModel("ResNet-18");
    EXPECT_TRUE(scaleHlsSupports(resnet.get()));
}

class KernelBuildProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelBuildProperty, BuildsAtMultipleSizes)
{
    for (int64_t size : {8, 16, 64}) {
        OwnedModule module = buildPolybenchKernel(GetParam(), size);
        EXPECT_FALSE(verify(module.get().op()).has_value())
            << GetParam() << " @" << size;
    }
}

INSTANTIATE_TEST_SUITE_P(PolyBench, KernelBuildProperty,
                         ::testing::ValuesIn(polybenchKernelNames()));

TEST(EmitterTest, EmitsDataflowPragmas)
{
    OwnedModule module = buildPolybenchKernel("2mm", 16);
    compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
    std::string code = emitHlsCpp(module.get());
    EXPECT_NE(code.find("#pragma HLS dataflow"), std::string::npos);
    EXPECT_NE(code.find("#pragma HLS pipeline"), std::string::npos);
    EXPECT_NE(code.find("void 2mm"), std::string::npos);
}

TEST(EmitterTest, EmitsPartitionAndUnrollDirectives)
{
    FlowOptions options = optionsFor(Flow::kHida);
    options.maxParallelFactor = 16;
    OwnedModule module = buildPolybenchKernel("2mm", 32);
    compile(module.get(), options, TargetDevice::zu3eg());
    std::string code = emitHlsCpp(module.get());
    EXPECT_NE(code.find("#pragma HLS unroll factor="), std::string::npos);
    EXPECT_NE(code.find("#pragma HLS array_partition"), std::string::npos);
}

TEST(EmitterTest, EmitsAxiInterfacesForExternalIo)
{
    TorchBuilder tb;
    Value* x = tb.input({1, 2, 8, 8});
    x = tb.convRelu(x, 4, 3, 1, 1);
    OwnedModule module = tb.takeModule();
    compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
    std::string code = emitHlsCpp(module.get());
    EXPECT_NE(code.find("#pragma HLS interface m_axi"), std::string::npos);
}

TEST(EmitterTest, VitisFlowEmitsPlainLoops)
{
    OwnedModule module = buildPolybenchKernel("symm", 16);
    compile(module.get(), Flow::kVitis, TargetDevice::zu3eg());
    std::string code = emitHlsCpp(module.get());
    EXPECT_EQ(code.find("#pragma HLS dataflow"), std::string::npos);
    EXPECT_NE(code.find("for (int"), std::string::npos);
}

TEST(EmitterTest, DeterministicOutput)
{
    OwnedModule module = buildPolybenchKernel("atax", 16);
    compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
    EXPECT_EQ(emitHlsCpp(module.get()), emitHlsCpp(module.get()));
}

//===----------------------------------------------------------------------===//
// Golden QoR tables
//
// The deterministic QoR numbers backing the paper-table benches
// (bench_table4_6_listing1 / bench_table7_polybench / bench_table8_dnn)
// are pinned under tests/golden/ so an estimator refactor cannot
// silently drift the published tables. Wall-clock columns are excluded
// — only latency/interval/resource numbers, which must be bit-stable.
// Regenerate with HIDA_UPDATE_GOLDEN=1 after an *intentional* model
// change and review the diff like any other code change.
//===----------------------------------------------------------------------===//

std::string
formatQorLine(const std::string& name, const DesignQor& qor)
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-14s latency=%lld interval=%.4f lut=%lld ff=%lld "
                  "dsp=%lld bram=%lld\n",
                  name.c_str(),
                  static_cast<long long>(qor.latencyCycles),
                  qor.intervalCycles,
                  static_cast<long long>(qor.res.lut),
                  static_cast<long long>(qor.res.ff),
                  static_cast<long long>(qor.res.dsp),
                  static_cast<long long>(qor.res.bram18k));
    return line;
}

void
compareWithGolden(const std::string& file, const std::string& actual)
{
    std::string path =
        std::string(HIDA_SOURCE_DIR) + "/tests/golden/" + file;
    if (std::getenv("HIDA_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (generate with HIDA_UPDATE_GOLDEN=1)";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "golden QoR numbers drifted (" << path << "); if the change is "
        << "intentional, regenerate with HIDA_UPDATE_GOLDEN=1 and review "
        << "the diff";
}

TEST(GoldenQorTest, PolybenchTable7NumbersPinned)
{
    std::string actual;
    for (const std::string& name : polybenchKernelNames()) {
        OwnedModule module = buildPolybenchKernel(name, 32);
        CompileResult result =
            compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
        actual += formatQorLine(name, result.qor);
    }
    compareWithGolden("qor_table7_polybench.golden", actual);
}

TEST(GoldenQorTest, DnnTable8NumbersPinned)
{
    std::string actual;
    {
        OwnedModule module = buildLeNet(1);
        CompileResult result =
            compile(module.get(), Flow::kHida, TargetDevice::pynqZ2());
        actual += formatQorLine("LeNet-b1", result.qor);
    }
    {
        OwnedModule module = buildLeNet(10);
        CompileResult result =
            compile(module.get(), Flow::kHida, TargetDevice::pynqZ2());
        actual += formatQorLine("LeNet-b10", result.qor);
    }
    {
        OwnedModule module = buildDnnModel("MLP");
        CompileResult result =
            compile(module.get(), Flow::kHida, TargetDevice::vu9pSlr());
        actual += formatQorLine("MLP", result.qor);
    }
    compareWithGolden("qor_table8_dnn.golden", actual);
}

TEST(GoldenQorTest, AutoTunedZooNumbersPinned)
{
    // The design compileAutoTuned picks for each Table 8 model, under
    // HIDA and, where it applies, ScaleHLS: a change to the factor
    // search or to how its trials run cannot move this QoR unnoticed.
    const TargetDevice device = TargetDevice::vu9pSlr();
    std::string actual;
    for (const std::string& name : dnnModelNames()) {
        auto rebuild = [&]() { return buildDnnModel(name); };
        for (Flow flow : {Flow::kHida, Flow::kScaleHls}) {
            if (flow == Flow::kScaleHls && !scaleHlsSupports(rebuild().get()))
                continue;
            CompileResult result =
                compileAutoTuned(rebuild, optionsFor(flow), device);
            actual += formatQorLine(name + " " + flowName(flow), result.qor);
        }
    }
    compareWithGolden("qor_autotuned_zoo.golden", actual);
}

TEST(GoldenQorTest, Listing1Table4NumbersPinned)
{
    // Pins both flows on the Listing 1 micro-kernel (each array has a
    // single producer, so both overlap). The channel buffers must be
    // charged exactly once per estimate walk: re-estimating has to be
    // idempotent on resources.
    std::string actual;
    for (Flow flow : {Flow::kHida, Flow::kScaleHls}) {
        OwnedModule module = buildListing1();
        FlowOptions options = optionsFor(flow);
        options.enableTiling = false;
        options.enableParallelization = false;
        CompileResult result =
            compile(module.get(), options, TargetDevice::zu3eg());
        actual += formatQorLine(flowName(flow), result.qor);

        FuncOp func(nullptr);
        for (Operation* op : module.get().body()->ops())
            if (auto f = dynCast<FuncOp>(op))
                func = f;
        QorEstimator estimator(TargetDevice::zu3eg());
        DesignQor once = estimator.estimateFunc(func);
        DesignQor twice = estimator.estimateFunc(func);
        EXPECT_EQ(once.res.lut, twice.res.lut);
        EXPECT_EQ(once.res.ff, twice.res.ff);
        EXPECT_EQ(once.res.bram18k, twice.res.bram18k);
        EXPECT_EQ(once.latencyCycles, twice.latencyCycles);
    }
    compareWithGolden("qor_table4_listing1.golden", actual);
}

TEST(GoldenQorTest, MultiProducerSequentialFallbackPinned)
{
    // 3mm under the ScaleHLS flow keeps its multi-producer init nests,
    // so the schedule estimate must take the sequential fallback
    // (Section 6.4.1): no overlap, interval == latency — and the
    // numbers are pinned so the fallback path cannot silently drift.
    OwnedModule module = buildPolybenchKernel("3mm", 32);
    FlowOptions options = optionsFor(Flow::kScaleHls);
    options.enableParallelization = false;
    CompileResult result =
        compile(module.get(), options, TargetDevice::zu3eg());
    EXPECT_DOUBLE_EQ(result.qor.intervalCycles,
                     static_cast<double>(result.qor.latencyCycles));
    compareWithGolden("qor_multi_producer_3mm.golden",
                      formatQorLine("3mm-scalehls", result.qor));
}

} // namespace
} // namespace hida
