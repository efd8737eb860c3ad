/**
 * @file
 * Tests for the Virtual Thread controller and the SM/dispatcher
 * interplay: switch triggering, costs, dynamic degree control.
 */

#include <gtest/gtest.h>

#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/gpu/occupancy.h"
#include "src/gpu/virtual_thread.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{
namespace
{

KernelInfo
graphishKernel()
{
    KernelInfo k;
    k.name = "k";
    k.threads_per_block = 256;
    k.regs_per_thread = 56;
    return k;
}

TEST(VirtualThread, OneWayCostFollowsContextSize)
{
    ToConfig config;
    config.enabled = true;
    config.ctx_switch_bytes_per_cycle = 128;
    config.block_state_bytes = 5 * 1024;
    std::vector<std::unique_ptr<Sm>> sms;
    VirtualThreadController vtc(config, sms);
    const KernelInfo k = graphishKernel();
    vtc.setKernel(&k);
    const std::uint64_t bytes = contextBytes(k, config.block_state_bytes);
    EXPECT_EQ(vtc.oneWayCost(), (bytes + 127) / 128);
}

TEST(VirtualThread, IdealSwitchCostsNothing)
{
    ToConfig config;
    config.enabled = true;
    config.ideal_ctx_switch = true;
    std::vector<std::unique_ptr<Sm>> sms;
    VirtualThreadController vtc(config, sms);
    const KernelInfo k = graphishKernel();
    vtc.setKernel(&k);
    EXPECT_EQ(vtc.oneWayCost(), 0u);
}

TEST(VirtualThread, DisabledStartsWithZeroExtra)
{
    ToConfig config; // enabled = false
    std::vector<std::unique_ptr<Sm>> sms;
    VirtualThreadController vtc(config, sms);
    EXPECT_EQ(vtc.allowedExtra(), 0u);
    EXPECT_FALSE(vtc.enabled());
}

TEST(VirtualThread, ThrottleAdviceShrinksDegree)
{
    ToConfig config;
    config.enabled = true;
    config.initial_extra_blocks = 2;
    std::vector<std::unique_ptr<Sm>> sms;
    VirtualThreadController vtc(config, sms);
    EXPECT_EQ(vtc.allowedExtra(), 2u);
    vtc.onAdvice(OversubAdvice::Throttle);
    EXPECT_EQ(vtc.allowedExtra(), 1u);
    vtc.onAdvice(OversubAdvice::Throttle);
    vtc.onAdvice(OversubAdvice::Throttle); // floors at zero
    EXPECT_EQ(vtc.allowedExtra(), 0u);
    EXPECT_EQ(vtc.throttleEvents(), 2u);
}

TEST(VirtualThread, GrowthRequiresSustainedHealth)
{
    ToConfig config;
    config.enabled = true;
    config.initial_extra_blocks = 1;
    config.max_extra_blocks = 3;
    std::vector<std::unique_ptr<Sm>> sms;
    VirtualThreadController vtc(config, sms);
    // A single healthy window must not grow the degree.
    vtc.onAdvice(OversubAdvice::Grow);
    EXPECT_EQ(vtc.allowedExtra(), 1u);
    for (int i = 0; i < 16; ++i)
        vtc.onAdvice(OversubAdvice::Grow);
    EXPECT_GT(vtc.allowedExtra(), 1u);
    EXPECT_LE(vtc.allowedExtra(), 3u);
}

TEST(VirtualThread, ThrottleResetsGrowStreak)
{
    ToConfig config;
    config.enabled = true;
    config.initial_extra_blocks = 0;
    config.max_extra_blocks = 3;
    std::vector<std::unique_ptr<Sm>> sms;
    VirtualThreadController vtc(config, sms);
    for (int i = 0; i < 7; ++i)
        vtc.onAdvice(OversubAdvice::Grow);
    vtc.onAdvice(OversubAdvice::Throttle);
    for (int i = 0; i < 7; ++i)
        vtc.onAdvice(OversubAdvice::Grow);
    EXPECT_EQ(vtc.allowedExtra(), 0u);
}

// End-to-end properties of TO through the full system.

TEST(VirtualThreadSystem, ExtraBlocksAreDispatchedInactive)
{
    SimConfig config = applyPolicy(paperConfig(0.5), Policy::To);
    auto workload = WorkloadRegistry::instance().create("BFS-TWC");
    GpuUvmSystem system(config);
    system.run(*workload, WorkloadScale::Tiny);
    workload->validate();
    // Context switches happened and cost cycles.
    EXPECT_GT(system.gpu().vtc().contextSwitches(), 0u);
}

TEST(VirtualThreadSystem, IdealSwitchNotSlowerThanCostly)
{
    SimConfig costly = applyPolicy(paperConfig(0.5), Policy::To);
    SimConfig ideal = costly;
    ideal.to.ideal_ctx_switch = true;
    const RunResult rc =
        runWorkload(costly, "BFS-TWC", WorkloadScale::Tiny, true);
    const RunResult ri =
        runWorkload(ideal, "BFS-TWC", WorkloadScale::Tiny, true);
    EXPECT_EQ(ri.context_switch_cycles, 0u);
    // With free switches the run must not get slower by more than
    // scheduling noise.
    EXPECT_LE(ri.cycles, rc.cycles * 105 / 100);
}

TEST(VirtualThreadSystem, Fig5ModeDegradesPreloadedRun)
{
    // Traditional GPU (everything preloaded): forcing +1 block with
    // context switching on memory stalls must not help — the paper's
    // Fig 5 observation.
    SimConfig base = paperConfig(0.0);
    base.uvm.preload = true;
    SimConfig oversub = base;
    oversub.to.enabled = true;
    oversub.to.initial_extra_blocks = 1;
    oversub.to.max_extra_blocks = 1;
    oversub.to.switch_on_memory_stall = true;
    const RunResult rb =
        runWorkload(base, "BFS-TWC", WorkloadScale::Tiny, true);
    const RunResult ro =
        runWorkload(oversub, "BFS-TWC", WorkloadScale::Tiny, true);
    EXPECT_GT(ro.context_switches, 0u);
    EXPECT_GE(ro.cycles, rb.cycles);
}

} // namespace
} // namespace bauvm
