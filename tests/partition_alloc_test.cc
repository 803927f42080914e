/**
 * @file
 * Array-partition allocation test. A sweep runs the array-partition pass
 * once per design point; a warm run must not allocate. The pass reuses
 * the partition arrays it has written on each buffer of its site plan,
 * so once a Gray-order pass over the 2,400-point Table 1 LeNet grid has
 * written every distinct array, a second pass allocates nothing.
 *
 * Allocations are counted by this binary's own global operator new,
 * only on the test thread and only around the pass.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/models/dnn_models.h"
#include "src/transforms/passes.h"

namespace {

thread_local bool t_counting = false;
thread_local uint64_t t_allocations = 0;

} // namespace

void*
operator new(std::size_t size)
{
    if (t_counting)
        ++t_allocations;
    if (void* p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace hida {
namespace {

TEST(ArrayPartitionAllocTest, WarmGrayPassAllocatesNothing)
{
    // The Figure 1 HIDA prototype: LeNet lowered without factors.
    const TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype = buildLeNet(1);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableTiling = false;
    options.enableParallelization = false;
    compile(prototype.get(), options, device);
    options.enableParallelization = true;

    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    ASSERT_EQ(grid.size(), 2400u);

    OwnedModule module = OwnedModule::clone(prototype.get());
    std::unique_ptr<Pass> pass = createArrayPartitionPass(options);
    std::vector<int64_t> values;
    auto gray_pass = [&]() {
        uint64_t allocations = 0;
        for (size_t pos = 0; pos < grid.size(); ++pos) {
            grid.decode(grid.orderedIndex(pos, PointOrder::kGrayCode),
                        values);
            EXPECT_FALSE(applyPointChecked(module.get(), grid, values));
            t_allocations = 0;
            t_counting = true;
            pass->runOnModule(module.get());
            t_counting = false;
            allocations += t_allocations;
        }
        return allocations;
    };
    // The first pass builds the site plan and writes each distinct array
    // once.
    EXPECT_GT(gray_pass(), 0u);
    EXPECT_EQ(gray_pass(), 0u);
}

} // namespace
} // namespace hida
