/**
 * @file
 * Reproduces Tables 4, 5 and 6 on the paper's Listing 1 micro-kernel:
 *  - Table 4: connection analysis (permutation and scaling maps) for the
 *    Node0->Node2 (array A, strided) and Node1->Node2 (array B) edges;
 *  - Table 5: node parallelization under IA+CA / IA / CA / naive with a
 *    maximum parallel factor of 32;
 *  - Table 6: the array partition factors and bank counts each strategy
 *    induces.
 */

#include <cstdio>

#include "src/analysis/connection.h"
#include "src/analysis/dataflow_graph.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/driver/driver.h"
#include "src/models/polybench.h"
#include "src/support/utils.h"

using namespace hida;

namespace {

FlowOptions
strategyOptions(bool ia, bool ca)
{
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableTiling = false;  // Listing 1 arrays are already on-chip
    options.maxParallelFactor = 32;
    options.strategy = {ia, ca};
    return options;
}

} // namespace

int
main()
{
    // ---- Table 4: connection analysis ----
    std::printf("Table 4: node connections of Listing 1\n");
    {
        OwnedModule module = buildListing1();
        FlowOptions options = strategyOptions(true, true);
        options.enableParallelization = false;
        compile(module.get(), options, TargetDevice::zu3eg());
        module.get().op()->walk([&](Operation* op) {
            if (isa<ScheduleOp>(op)) {
                DataflowGraph graph{ScheduleOp(op)};
                for (const Connection& conn : analyzeConnections(graph))
                    std::printf("  %s\n", conn.str().c_str());
            }
        });
        std::printf("  (paper: A S-to-T [0,_,1] T-to-S [0,2] "
                    "scale [0.5,1]/[2,_,1]; B S-to-T [_,1,0] T-to-S [2,1] "
                    "scale [1,1]/[_,1,1])\n");
    }

    // ---- Tables 5 and 6 per strategy ----
    struct Arm {
        const char* name;
        bool ia, ca;
    };
    std::printf("\nTable 5: node parallelization (max parallel factor 32)\n");
    std::printf("%-7s %-22s %-22s %-22s\n", "Arm", "Node0 factors",
                "Node1 factors", "Node2 factors");
    for (const Arm& arm : {Arm{"IA+CA", true, true}, Arm{"IA", true, false},
                           Arm{"CA", false, true},
                           Arm{"Naive", false, false}}) {
        OwnedModule module = buildListing1();
        compile(module.get(), strategyOptions(arm.ia, arm.ca),
                TargetDevice::zu3eg());
        std::vector<std::string> factor_strings;
        std::vector<std::string> partition_strings;
        module.get().op()->walk([&](Operation* op) {
            if (auto node = dynCast<NodeOp>(op)) {
                std::string text = "[";
                for (ForOp loop : nodeBand(node))
                    text += std::to_string(loop.unrollFactor()) + " ";
                int64_t pf = op->intAttrOr(NodeOp::parallelFactorId(), 1);
                text += "] pf=" + std::to_string(pf);
                factor_strings.push_back(text);
            }
        });
        std::printf("%-7s", arm.name);
        for (const std::string& text : factor_strings)
            std::printf(" %-22s", text.c_str());
        std::printf("\n");
    }
    std::printf("(paper IA+CA: Node0 [4,1] Node1 [1,2] Node2 [4,8,1]; "
                "pf 4/2/32)\n");

    std::printf("\nTable 6: array partition factors and bank numbers\n");
    std::printf("%-7s %-26s %-26s %-26s\n", "Arm", "A (banks)", "B (banks)",
                "C (banks)");
    for (const Arm& arm : {Arm{"IA+CA", true, true}, Arm{"IA", true, false},
                           Arm{"CA", false, true},
                           Arm{"Naive", false, false}}) {
        OwnedModule module = buildListing1();
        compile(module.get(), strategyOptions(arm.ia, arm.ca),
                TargetDevice::zu3eg());
        std::printf("%-7s", arm.name);
        module.get().op()->walk([&](Operation* op) {
            if (auto buffer = dynCast<BufferOp>(op)) {
                std::string text = "[";
                for (int64_t f : buffer.partitionFactors())
                    text += std::to_string(f) + " ";
                text += "]x" + std::to_string(buffer.vectorFactor()) +
                        " (" + std::to_string(buffer.bankCount() *
                                              buffer.vectorFactor()) +
                        ")";
                std::printf(" %-26s", text.c_str());
            }
        });
        std::printf("\n");
    }
    std::printf("(paper banks: IA+CA 8/8/32, IA 16/16/32, CA 32/32/32, "
                "Naive 64/64/32)\n");
    return 0;
}
