/**
 * @file
 * Print/parse round-trip tests: the parser must rebuild every IR the
 * compiler produces, at every pipeline stage, such that re-printing gives
 * byte-identical text; malformed inputs must produce errors, not crashes.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/driver/driver.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/registry.h"
#include "src/ir/verifier.h"
#include "src/models/dnn_models.h"
#include "src/models/polybench.h"

namespace hida {
namespace {

void
expectRoundTrip(ModuleOp module)
{
    std::string once = toString(module.op());
    Result<OwnedModule> parsed = parseModule(once);
    ASSERT_TRUE(parsed) << parsed.diag().str();
    EXPECT_FALSE(verify(parsed.value().get().op()).has_value());
    std::string twice = toString(parsed.value().get().op());
    EXPECT_EQ(once, twice);
}

TEST(ParserTest, RoundTripsFunctionalIr)
{
    OwnedModule module = buildTinyCnn();
    expectRoundTrip(module.get());
}

TEST(ParserTest, RoundTripsAffineKernel)
{
    OwnedModule module = buildPolybenchKernel("2mm", 8);
    expectRoundTrip(module.get());
}

class ParserStageProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParserStageProperty, RoundTripsEveryPipelineStage)
{
    // Compile under each flow and round-trip the fully optimized IR,
    // which exercises every dialect: hida structural ops, buffers with
    // partitions, streams, ports, directives.
    Flow flow = static_cast<Flow>(GetParam());
    OwnedModule module = buildPolybenchKernel("atax", 16);
    compile(module.get(), flow, TargetDevice::zu3eg());
    expectRoundTrip(module.get());
}

INSTANTIATE_TEST_SUITE_P(Flows, ParserStageProperty,
                         ::testing::Values(0, 1, 2));

TEST(ParserTest, RoundTripsOptimizedDnn)
{
    OwnedModule module = buildTinyCnn();
    FlowOptions options = optionsFor(Flow::kHida);
    options.maxParallelFactor = 4;
    compile(module.get(), options, TargetDevice::zu3eg());
    expectRoundTrip(module.get());
}

TEST(ParserTest, ParsesTypes)
{
    const char* text =
        "builtin.module() {\n"
        "  func.func() {sym_name = \"t\"} {\n"
        "    %b = hida.buffer() {stages = 2} : memref<4x8xi8, on_chip>\n"
        "    %s = hida.stream() : stream<token, 3>\n"
        "  }\n"
        "}\n";
    Result<OwnedModule> parsed = parseModule(text);
    ASSERT_TRUE(parsed) << parsed.diag().str();
    FuncOp func = parsed.value().get().lookupFunc("t");
    ASSERT_TRUE(func);
    auto ops = func.body()->ops();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0]->result(0)->type(),
              Type::memref({4, 8}, Type::i8(), MemorySpace::kOnChip));
    EXPECT_EQ(ops[1]->result(0)->type(), Type::stream(Type::token(), 3));
}

TEST(ParserTest, ReportsUndefinedValues)
{
    Result<OwnedModule> parsed = parseModule(
        "builtin.module() {\n  func.func() {sym_name = \"t\"} {\n"
        "    arith.add(%missing : i8, %missing : i8)\n  }\n}\n");
    ASSERT_FALSE(parsed);
    EXPECT_EQ(parsed.diag().code, ErrorCode::kParseFailed);
    EXPECT_NE(parsed.diag().message.find("undefined value"),
              std::string::npos);
}

TEST(ParserTest, ReportsSyntaxErrors)
{
    const char* const inputs[] = {"builtin.module( {", "not_a_module()", "",
                                  "builtin.module() { func.func( }"};
    for (const char* text : inputs) {
        Result<OwnedModule> parsed = parseModule(text);
        ASSERT_FALSE(parsed) << "'" << text << "'";
        EXPECT_EQ(parsed.diag().code, ErrorCode::kParseFailed);
    }
}

TEST(ParserTest, ParsesAttributes)
{
    const char* text =
        "builtin.module() {\n"
        "  func.func() {factors = [1, 2, 3], name = \"x\", pi = 3.5, "
        "flag = unit, neg = -7} {\n  }\n}\n";
    Result<OwnedModule> parsed = parseModule(text);
    ASSERT_TRUE(parsed) << parsed.diag().str();
    Operation* func = parsed.value().get().body()->front();
    EXPECT_EQ(func->attr(Identifier::get("factors")).asI64Array(),
              (std::vector<int64_t>{1, 2, 3}));
    EXPECT_EQ(func->attr(Identifier::get("name")).asString(), "x");
    EXPECT_DOUBLE_EQ(func->attr(Identifier::get("pi")).asFloat(), 3.5);
    EXPECT_EQ(func->attr(Identifier::get("flag")).kind(), AttrKind::kUnit);
    EXPECT_EQ(func->attr(Identifier::get("neg")).asInt(), -7);
}

/**
 * Parse @p body as the body of func "t" and expect the verifier to reject
 * it with a kVerifyFailed diagnostic naming @p needle. Every input below
 * once aborted or verified clean: inside a verifier hook (an asserting
 * attribute accessor or an out-of-bounds shape read), or, for a zero step
 * and a padded load without a memref, in a later pass after a clean
 * verify. A hook must return a message instead.
 */
void
expectVerifyFailed(const std::string& body, const std::string& needle)
{
    registerAllDialects();
    const std::string text = "builtin.module() {\n"
                             "  func.func() {sym_name = \"t\"} {\n" +
                             body + "  }\n}\n";
    Result<OwnedModule> parsed = parseModule(text);
    ASSERT_TRUE(parsed) << parsed.diag().str();
    std::optional<Diagnostic> diag =
        verifyToDiagnostic(parsed.value().get().op());
    ASSERT_TRUE(diag.has_value()) << text;
    EXPECT_EQ(diag->code, ErrorCode::kVerifyFailed);
    EXPECT_NE(diag->message.find(needle), std::string::npos)
        << diag->message;
}

TEST(ParserVerifyTest, BufferStagesArrayIsADiagnostic)
{
    expectVerifyFailed("    %b = hida.buffer() {stages = [2]} : "
                       "memref<4x8xi8, on_chip>\n",
                       "'stages' must be an integer");
}

TEST(ParserVerifyTest, BufferStagesStringIsADiagnostic)
{
    expectVerifyFailed("    %b = hida.buffer() {stages = \"x\"} : "
                       "memref<4x8xi8, on_chip>\n",
                       "'stages' must be an integer");
}

TEST(ParserVerifyTest, BufferScalarPartitionFactorsIsADiagnostic)
{
    expectVerifyFailed("    %b = hida.buffer() {partition_factors = 3} : "
                       "memref<4x8xi8, on_chip>\n",
                       "'partition_factors' must be an integer array");
}

TEST(ParserVerifyTest, BufferFactorsBeyondRankAreADiagnostic)
{
    expectVerifyFailed("    %b = hida.buffer() {partition_factors = "
                       "[1, 1, 1]} : memref<4x8xi8, on_chip>\n",
                       "3 partition factors for rank 2");
}

TEST(ParserVerifyTest, NodeScalarEffectsIsADiagnostic)
{
    expectVerifyFailed("    ^bb(%a : memref<4xi8, on_chip>):\n"
                       "    hida.node(%a : memref<4xi8, on_chip>) "
                       "{effects = 3} {\n"
                       "      ^bb(%x : memref<4xi8, on_chip>):\n"
                       "    }\n",
                       "'effects' must be an integer array");
}

TEST(ParserVerifyTest, ForStringBoundIsADiagnostic)
{
    expectVerifyFailed("    affine.for() {lb = 0, step = 1, ub = \"x\"} {\n"
                       "      ^bb(%i : index):\n"
                       "    }\n",
                       "affine.for 'ub' must be an integer");
}

TEST(ParserVerifyTest, ForZeroStepIsADiagnostic)
{
    expectVerifyFailed("    affine.for() {lb = 0, step = 0, ub = 4} {\n"
                       "      ^bb(%i : index):\n"
                       "    }\n",
                       "affine.for requires a positive step");
}

TEST(ParserVerifyTest, PaddedLoadIndexCountIsADiagnostic)
{
    expectVerifyFailed("    ^bb(%a : memref<4x8xi8, on_chip>, %i : index):\n"
                       "    %v = affine.load_padded(%a : memref<4x8xi8, "
                       "on_chip>, %i : index) : i8\n",
                       "affine.load_padded index count mismatch");
}

TEST(ParserVerifyTest, PaddedLoadWithoutMemrefIsADiagnostic)
{
    expectVerifyFailed("    %v = affine.load_padded() : i8\n",
                       "affine.load_padded requires a memref operand");
}

/**
 * Print the tiny CNN, replace the first occurrence of each @p edits
 * pair, and expect the verifier to reject the result naming @p needle.
 * Each edited module once verified clean, and compiling it then aborted
 * (an asserting attribute read, a division by zero, an out-of-range
 * operand or shape read, a negative trip count after lowering) or went
 * through silently on a zero stride. The nn hooks check what the
 * lowering and the interpreter read: operand counts and ranks,
 * attribute kinds, the ranges of stride, kernel, scale and pad, and
 * shapes: channels that agree, windows that fit the padded input, no
 * dimension below 1, and each result the shape its operands give.
 */
void
expectTinyCnnVerifyFailed(
    const std::vector<std::pair<std::string, std::string>>& edits,
    const std::string& needle)
{
    registerAllDialects();
    OwnedModule module = buildTinyCnn();
    std::string text = toString(module.get().op());
    for (const auto& [from, to] : edits) {
        size_t pos = text.find(from);
        ASSERT_NE(pos, std::string::npos) << from;
        text.replace(pos, from.size(), to);
    }
    Result<OwnedModule> parsed = parseModule(text);
    ASSERT_TRUE(parsed) << parsed.diag().str();
    std::optional<Diagnostic> diag =
        verifyToDiagnostic(parsed.value().get().op());
    ASSERT_TRUE(diag.has_value()) << text;
    EXPECT_EQ(diag->code, ErrorCode::kVerifyFailed);
    EXPECT_NE(diag->message.find(needle), std::string::npos)
        << diag->message;
}

TEST(ParserVerifyTest, NnAttributeOfTheWrongKindIsADiagnostic)
{
    expectTinyCnnVerifyFailed({{"stride = 1", "stride = \"x\""}},
                              "nn.conv2d 'stride' must be an integer");
    expectTinyCnnVerifyFailed({{"kernel = 2", "kernel = \"k\""}},
                              "nn.maxpool 'kernel' must be an integer");
    expectTinyCnnVerifyFailed({{"seed = 1", "seed = \"s\""}},
                              "nn.weight 'seed' must be an integer");
    expectTinyCnnVerifyFailed({{"pad = 1", "pad = [1]"}},
                              "nn.conv2d 'pad' must be an integer");
}

TEST(ParserVerifyTest, NnMaxPoolZeroKernelIsADiagnostic)
{
    expectTinyCnnVerifyFailed({{"kernel = 2", "kernel = 0"}},
                              "nn.maxpool requires kernel >= 1");
}

TEST(ParserVerifyTest, NnConvNegativeStrideIsADiagnostic)
{
    expectTinyCnnVerifyFailed({{"stride = 1", "stride = -1"}},
                              "nn.conv2d requires stride >= 1");
}

TEST(ParserVerifyTest, NnConvZeroStrideIsADiagnostic)
{
    expectTinyCnnVerifyFailed({{"stride = 1", "stride = 0"}},
                              "nn.conv2d requires stride >= 1");
}

TEST(ParserVerifyTest, NnMissingOperandIsADiagnostic)
{
    expectTinyCnnVerifyFailed(
        {{", %w : tensor<4x2x3x3xi8>, %w_1 : tensor<4xi8>)", ")"}},
        "nn.conv2d requires 2 or 3 operands");
    expectTinyCnnVerifyFailed({{"nn.maxpool(%1 : tensor<1x4x8x8xi8>)",
                                "nn.maxpool()"}},
                              "nn.maxpool requires 1 operand");
}

TEST(ParserVerifyTest, NnConvWeightRankIsADiagnostic)
{
    expectTinyCnnVerifyFailed(
        {{"{seed = 1} : tensor<4x2x3x3xi8>", "{seed = 1} : tensor<4x18xi8>"}},
        "nn.conv2d operand #1 must have rank 4");
}

TEST(ParserVerifyTest, NnLinearWeightRankIsADiagnostic)
{
    expectTinyCnnVerifyFailed(
        {{"{seed = 7} : tensor<10x64xi8>", "{seed = 7} : tensor<640xi8>"}},
        "nn.linear operand #1 must have rank 2");
}

/*
 * Shape edits: each of these verified clean before the hooks checked
 * shapes, and compiling it returned a QoR without a diagnostic.
 */

TEST(ParserVerifyTest, NnConvWeightChannelsAreADiagnostic)
{
    // A 3-channel weight on the 2-channel input.
    expectTinyCnnVerifyFailed(
        {{"{seed = 1} : tensor<4x2x3x3xi8>", "{seed = 1} : tensor<4x3x3x3xi8>"},
         {"%w : tensor<4x2x3x3xi8>", "%w : tensor<4x3x3x3xi8>"}},
        "nn.conv2d weight channels differ from the input's");
}

TEST(ParserVerifyTest, NnConvResultShapeIsADiagnostic)
{
    // The operands give 1x4x8x8.
    expectTinyCnnVerifyFailed(
        {{"stride = 1} : tensor<1x4x8x8xi8>", "stride = 1} : tensor<1x4x9x8xi8>"},
         {"nn.relu(%0 : tensor<1x4x8x8xi8>)", "nn.relu(%0 : tensor<1x4x9x8xi8>)"}},
        "nn.conv2d result shape differs from the one its operands give");
}

TEST(ParserVerifyTest, NnLinearResultShapeIsADiagnostic)
{
    // A 10-row weight gives 1x10.
    expectTinyCnnVerifyFailed({{") : tensor<1x10xi8>", ") : tensor<1x12xi8>"}},
                              "nn.linear result shape differs from the one "
                              "its operands give");
}

TEST(ParserVerifyTest, NnFlattenElementCountIsADiagnostic)
{
    // 1x4x4x4 holds 64 elements.
    expectTinyCnnVerifyFailed(
        {{"tensor<1x4x4x4xi8>) : tensor<1x64xi8>",
          "tensor<1x4x4x4xi8>) : tensor<1x60xi8>"},
         {"nn.linear(%8 : tensor<1x64xi8>", "nn.linear(%8 : tensor<1x60xi8>"}},
        "nn.flatten changes the element count");
}

TEST(ParserVerifyTest, NnMaxPoolWindowBeyondInputIsADiagnostic)
{
    // A 20-wide window on the 8x8 input.
    expectTinyCnnVerifyFailed({{"kernel = 2", "kernel = 20"}},
                              "nn.maxpool window is larger than the padded "
                              "input");
}

TEST(ParserVerifyTest, NnConvZeroDimensionIsADiagnostic)
{
    expectTinyCnnVerifyFailed(
        {{"stride = 1} : tensor<1x4x8x8xi8>", "stride = 1} : tensor<1x4x0x8xi8>"},
         {"nn.relu(%0 : tensor<1x4x8x8xi8>)", "nn.relu(%0 : tensor<1x4x0x8xi8>)"}},
        "nn.conv2d result has a dimension below 1");
}

} // namespace
} // namespace hida
