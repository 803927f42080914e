/**
 * @file
 * Module interface creation — the port/bundle/pack operations of Table 3.
 *
 * Every external-memory buffer and function argument is packed into a
 * memory-mapped AXI port; ports are grouped into named bundles (one per
 * DDR channel, round-robin) so the estimator and emitter can reason about
 * interface contention and the emitted HLS C++ carries the right
 * interface pragmas. Token streams get stream ports.
 */

#include "src/dialect/hida/hida_ops.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

constexpr int kMemoryChannels = 4;     ///< DDR/HBM channels to spread over.
constexpr int64_t kAxiLatency = 64;    ///< Round-trip latency per access.

class CreateInterfacesPass : public Pass {
  public:
    CreateInterfacesPass() : Pass("create-interfaces") {}

    void
    runOnModule(ModuleOp module) override
    {
        for (Operation* op : *module.body()) {
            if (auto func = dynCast<FuncOp>(op))
                runOnFunc(func);
        }
    }

  private:
    void
    runOnFunc(FuncOp func)
    {
        // Collect interface-worthy values: external function arguments and
        // external buffers allocated at the function's top level.
        std::vector<Value*> memories;
        for (unsigned i = 0; i < func.numArguments(); ++i) {
            Value* arg = func.argument(i);
            if (arg->type().isMemRef() &&
                arg->type().memorySpace() == MemorySpace::kExternal)
                memories.push_back(arg);
        }
        func.op()->walk([&](Operation* op) {
            if (auto buffer = dynCast<BufferOp>(op)) {
                if (buffer.isExternal())
                    memories.push_back(op->result(0));
            }
        });
        if (memories.empty())
            return;

        // Each memory block is packed into a port created next to its
        // definition (ports for buffers living inside isolated schedules
        // must stay inside them). Channel assignment is round-robin; ports
        // at the function's top level additionally get explicit bundles.
        std::vector<std::vector<Value*>> bundles(kMemoryChannels);
        for (size_t i = 0; i < memories.size(); ++i) {
            Value* memory = memories[i];
            OpBuilder builder;
            if (memory->isBlockArgument())
                builder.setInsertionPointToStart(memory->ownerBlock());
            else
                builder.setInsertionPointAfter(memory->definingOp());
            PortOp port =
                PortOp::create(builder, memory->type(), "memory", kAxiLatency);
            int channel = static_cast<int>(i) % kMemoryChannels;
            port.op()->setAttr(BundleOp::bundleNameId(),
                               Attribute::string("gmem" +
                                                 std::to_string(channel)));
            PackOp::create(builder, memory, port.op()->result(0));
            if (builder.insertionBlock() == func.body())
                bundles[channel].push_back(port.op()->result(0));
        }
        OpBuilder bundle_builder;
        bundle_builder.setInsertionPointToEnd(func.body());
        for (int c = 0; c < kMemoryChannels; ++c) {
            if (!bundles[c].empty())
                BundleOp::create(bundle_builder, "gmem" + std::to_string(c),
                                 bundles[c]);
        }

        // Token streams at the top level get lightweight stream ports.
        func.op()->walk([&](Operation* op) {
            if (auto stream = dynCast<StreamOp>(op)) {
                if (stream.isToken() &&
                    op->parentOfName(opNameId<ScheduleOp>()) == nullptr) {
                    OpBuilder port_builder;
                    port_builder.setInsertionPointAfter(op);
                    PortOp port = PortOp::create(
                        port_builder, op->result(0)->type(), "stream", 1);
                    PackOp::create(port_builder, op->result(0),
                                   port.op()->result(0));
                }
            }
        });
    }
};

} // namespace

std::unique_ptr<Pass>
createCreateInterfacesPass()
{
    return std::make_unique<CreateInterfacesPass>();
}

} // namespace hida
