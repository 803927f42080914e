/**
 * @file
 * Module interface tests: the port/bundle/pack lowering of Table 3 and
 * its rendering in the emitted HLS C++.
 */

#include <gtest/gtest.h>

#include "src/dialect/hida/hida_ops.h"
#include "src/driver/driver.h"
#include "src/emitter/hls_emitter.h"
#include "src/ir/verifier.h"
#include "src/models/dnn_models.h"

namespace hida {
namespace {

TEST(InterfacesTest, ExternalBuffersGetPortsAndPacks)
{
    OwnedModule module = buildTinyCnn();
    compile(module.get(), Flow::kHida, TargetDevice::zu3eg());

    int ports = 0, packs = 0, memory_ports = 0;
    module.get().op()->walk([&](Operation* op) {
        if (auto port = dynCast<PortOp>(op)) {
            ++ports;
            if (port.kind() == "memory") {
                ++memory_ports;
                EXPECT_GT(port.latency(), 0);
                EXPECT_TRUE(op->hasAttr(BundleOp::bundleNameId()));
            }
        }
        if (isa<PackOp>(op))
            ++packs;
    });
    // At least the input argument, the weights, and the activations.
    EXPECT_GE(memory_ports, 3);
    EXPECT_EQ(ports, packs);
    EXPECT_FALSE(verify(module.get().op()).has_value());
}

TEST(InterfacesTest, PortsInsideSchedulesStayInside)
{
    OwnedModule module = buildTinyCnn();
    compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
    // Every pack's memory operand is defined in the same block (isolation).
    module.get().op()->walk([&](Operation* op) {
        if (!isa<PackOp>(op))
            return;
        Value* memory = op->operand(0);
        if (memory->isBlockArgument())
            EXPECT_EQ(memory->ownerBlock(), op->block());
        else
            EXPECT_EQ(memory->definingOp()->block(), op->block());
    });
}

TEST(InterfacesTest, EmitterRendersInterfacePragmas)
{
    OwnedModule module = buildTinyCnn();
    compile(module.get(), Flow::kHida, TargetDevice::zu3eg());
    std::string code = emitHlsCpp(module.get());
    EXPECT_NE(code.find("#pragma HLS interface m_axi"), std::string::npos);
    EXPECT_NE(code.find("bundle=gmem"), std::string::npos);
}

TEST(InterfacesTest, OnChipOnlyDesignHasNoMemoryPorts)
{
    OwnedModule module = buildTinyCnn();
    FlowOptions options = optionsFor(Flow::kScaleHls);
    compile(module.get(), options, TargetDevice::zu3eg());
    int memory_ports = 0;
    module.get().op()->walk([&](Operation* op) {
        if (auto port = dynCast<PortOp>(op))
            if (port.kind() == "memory") {
                // ScaleHLS keeps activations on-chip; only weights remain
                // external.
                Value* packed = nullptr;
                for (Operation* user : op->result(0)->users())
                    if (isa<PackOp>(user))
                        packed = user->operand(0);
                ASSERT_NE(packed, nullptr);
                EXPECT_EQ(packed->type().memorySpace(),
                          MemorySpace::kExternal);
                ++memory_ports;
            }
    });
    EXPECT_GE(memory_ports, 1);  // weights
}

} // namespace
} // namespace hida
