/**
 * @file
 * ResNet-18 accelerator study: shows why data-path balancing matters for
 * networks with shortcut paths (Section 6.4.2). Compiles ResNet-18 with
 * and without the balancing pass and compares steady-state intervals,
 * then prints the per-layer breakdown of the balanced design.
 */

#include <cstdio>

#include "src/analysis/dataflow_graph.h"
#include "src/driver/driver.h"
#include "src/estimator/qor.h"
#include "src/models/dnn_models.h"

using namespace hida;

int
main()
{
    TargetDevice device = TargetDevice::vu9pSlr();
    int64_t macs = 0;

    auto run = [&](bool balancing) {
        OwnedModule module = buildDnnModel("ResNet-18", &macs);
        FlowOptions options = optionsFor(Flow::kHida);
        options.maxParallelFactor = 64;
        options.enableBalancing = balancing;
        CompileResult result = compile(module.get(), options, device);
        std::printf("%-22s interval %.0f cycles, throughput %.2f samples/s, "
                    "%ld DSP, %ld BRAM\n",
                    balancing ? "with balancing" : "without balancing",
                    result.qor.intervalCycles, result.qor.throughput(device),
                    result.qor.res.dsp, result.qor.res.bram18k);
        return result.qor.intervalCycles;
    };

    std::printf("ResNet-18 (%.2f GMACs) on %s:\n", macs / 1e9,
                device.name.c_str());
    double without = run(false);
    double with_balancing = run(true);
    std::printf("balancing speedup: %.2fx\n", without / with_balancing);

    // Per-layer breakdown of the balanced design: the residual blocks'
    // shortcut channels now carry soft FIFOs / token streams.
    OwnedModule module = buildDnnModel("ResNet-18", nullptr);
    FlowOptions options = optionsFor(Flow::kHida);
    options.maxParallelFactor = 64;
    compile(module.get(), options, device);
    QorEstimator estimator(device);
    int tokens = 0, soft_fifos = 0;
    module.get().op()->walk([&](Operation* op) {
        if (isa<StreamOp>(op) && StreamOp(op).isToken())
            ++tokens;
        if (isa<BufferOp>(op) && op->hasAttr(BufferOp::softFifoDepthId()))
            ++soft_fifos;
    });
    std::printf("\nbalanced design: %d token streams, %d soft FIFOs\n",
                tokens, soft_fifos);

    std::printf("\nper-layer latency (top-level dataflow nodes):\n");
    module.get().op()->walk([&](Operation* op) {
        if (isa<ScheduleOp>(op) &&
            op->parentOfName(opNameId<ScheduleOp>()) == nullptr) {
            for (NodeOp node : ScheduleOp(op).nodes()) {
                DesignQor qor = estimator.estimateNode(node);
                std::printf("  %-8s %10ld cycles %6ld DSP\n",
                            node.label().c_str(), qor.latencyCycles,
                            qor.res.dsp);
            }
        }
    });
    return 0;
}
