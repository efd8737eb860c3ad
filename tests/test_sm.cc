/**
 * @file
 * SM-level tests: block lifecycle, barrier semantics, fault
 * suspension/resume, activation/deactivation, and listener events.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/gpu/sm.h"
#include "src/mem/memory_hierarchy.h"
#include "src/sim/event_queue.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/uvm_runtime.h"

namespace bauvm
{
namespace
{

constexpr std::uint64_t kPage = 64 * 1024;

/** Records listener callbacks. */
struct Recorder : SmListener {
    std::vector<std::uint32_t> stalled, finished, inactive_ready;
    void onBlockStalled(std::uint32_t, std::uint32_t slot) override
    {
        stalled.push_back(slot);
    }
    void onBlockFinished(std::uint32_t, std::uint32_t slot) override
    {
        finished.push_back(slot);
    }
    void onInactiveWarpReady(std::uint32_t, std::uint32_t slot) override
    {
        inactive_ready.push_back(slot);
    }
};

class SmTest : public ::testing::Test
{
  protected:
    SmTest()
        : manager_(UvmConfig{}, /*unlimited=*/0),
          hierarchy_(MemConfig{}, 1, kPage, manager_.pageTable()),
          runtime_(UvmConfig{}, events_, manager_, hierarchy_),
          sm_(0, GpuConfig{}, events_, hierarchy_, runtime_, &recorder_)
    {
        runtime_.registerAllocation(0, 1024 * kPage);
    }

    KernelInfo
    kernel(std::uint32_t blocks, std::uint32_t tpb,
           WarpProgramFactory factory)
    {
        KernelInfo k;
        k.name = "t";
        k.num_blocks = blocks;
        k.threads_per_block = tpb;
        k.regs_per_thread = 16;
        k.make_program = std::move(factory);
        return k;
    }

    EventQueue events_;
    GpuMemoryManager manager_;
    MemoryHierarchy hierarchy_;
    UvmRuntime runtime_;
    Recorder recorder_;
    Sm sm_;
};

WarpProgram
computeOnly(WarpCtx)
{
    co_yield WarpOp::compute(10);
    co_yield WarpOp::compute(5);
}

TEST_F(SmTest, BlockRunsToCompletion)
{
    const KernelInfo k = kernel(1, 64, computeOnly);
    sm_.addBlock(&k, 0, true);
    events_.run();
    ASSERT_EQ(recorder_.finished.size(), 1u);
    EXPECT_TRUE(sm_.blockFinished(recorder_.finished[0]));
    // 2 warps x 2 compute ops issued.
    EXPECT_EQ(sm_.issuedInstructions(), 4u);
}

TEST_F(SmTest, InactiveBlockDoesNotIssue)
{
    const KernelInfo k = kernel(1, 64, computeOnly);
    sm_.addBlock(&k, 0, /*active=*/false);
    events_.run();
    EXPECT_EQ(sm_.issuedInstructions(), 0u);
    EXPECT_TRUE(recorder_.finished.empty());
    EXPECT_EQ(sm_.residentBlocks(), 1u);
}

TEST_F(SmTest, ActivationStartsInactiveBlock)
{
    const KernelInfo k = kernel(1, 64, computeOnly);
    const std::uint32_t slot = sm_.addBlock(&k, 0, false);
    sm_.activateBlock(slot, /*delay=*/100);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
    // Nothing could issue before the restore delay elapsed.
    EXPECT_GE(events_.now(), 100u);
}

TEST_F(SmTest, MemoryOpFaultsAndResumes)
{
    const KernelInfo k = kernel(1, 32, [](WarpCtx) -> WarpProgram {
        co_yield loadOf(VAddr{0x10000});
        co_yield WarpOp::compute(1);
    });
    sm_.addBlock(&k, 0, true);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
    EXPECT_TRUE(manager_.isResident(1)); // page was migrated
    // The single-warp block fully stalled when its only warp faulted.
    EXPECT_FALSE(recorder_.stalled.empty());
}

TEST(SmLineSize, CoalescesToTheConfiguredL1Line)
{
    // A 32-lane unit-stride op of 8-byte words covers 256 bytes: two
    // 128-byte lines, but four lines of a 64-byte L1.
    for (const std::uint32_t line : {64u, 128u}) {
        MemConfig mem;
        mem.l1.line_bytes = line;
        EventQueue events;
        GpuMemoryManager manager(UvmConfig{}, /*unlimited=*/0);
        MemoryHierarchy hierarchy(mem, 1, kPage, manager.pageTable());
        UvmRuntime runtime(UvmConfig{}, events, manager, hierarchy);
        runtime.registerAllocation(0, 16 * kPage);
        Recorder recorder;
        Sm sm(0, GpuConfig{}, events, hierarchy, runtime, &recorder);

        KernelInfo k;
        k.name = "unit-stride";
        k.num_blocks = 1;
        k.threads_per_block = 32;
        k.regs_per_thread = 16;
        k.make_program = [](WarpCtx ctx) -> WarpProgram {
            LaneVec a;
            for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane)
                a.push_back(0x20000 + 8 * lane);
            co_yield WarpOp::load(std::move(a));
        };
        sm.addBlock(&k, 0, true);
        events.run();
        ASSERT_EQ(recorder.finished.size(), 1u);
        EXPECT_EQ(sm.coalescer().transactions(), 256u / line) << line;
    }
}

TEST_F(SmTest, BarrierJoinsAllWarps)
{
    // Warp 0 computes long, warp 1 short; both must meet at the
    // barrier before either proceeds.
    const KernelInfo k = kernel(1, 64, [](WarpCtx ctx) -> WarpProgram {
        co_yield WarpOp::compute(ctx.warp_in_block == 0 ? 500 : 5);
        co_yield WarpOp::sync();
        co_yield WarpOp::compute(1);
    });
    sm_.addBlock(&k, 0, true);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
    // Completion must be after the slow warp's 500 cycles.
    EXPECT_GT(events_.now(), 500u);
}

TEST_F(SmTest, FinishedWarpReleasesBarrier)
{
    // Warp 1 exits immediately; warp 0's barrier must not deadlock.
    const KernelInfo k = kernel(1, 64, [](WarpCtx ctx) -> WarpProgram {
        if (ctx.warp_in_block == 1)
            co_return;
        co_yield WarpOp::sync();
        co_yield WarpOp::compute(1);
    });
    sm_.addBlock(&k, 0, true);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
}

TEST_F(SmTest, DeactivatedBlockParksReadyWarps)
{
    const KernelInfo k = kernel(1, 32, [](WarpCtx) -> WarpProgram {
        for (int i = 0; i < 100; ++i)
            co_yield WarpOp::compute(10);
    });
    const std::uint32_t slot = sm_.addBlock(&k, 0, true);
    // Let it run briefly, then deactivate mid-flight.
    events_.run(/*until=*/50);
    sm_.deactivateBlock(slot);
    events_.run();
    EXPECT_TRUE(recorder_.finished.empty());
    EXPECT_FALSE(sm_.blockFinished(slot));
    // Reactivate: it finishes.
    sm_.activateBlock(slot, 0);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
}

TEST_F(SmTest, SlotReuseAfterFinish)
{
    const KernelInfo k = kernel(2, 32, computeOnly);
    const std::uint32_t s0 = sm_.addBlock(&k, 0, true);
    events_.run();
    const std::uint32_t s1 = sm_.addBlock(&k, 1, true);
    EXPECT_EQ(s0, s1); // retired slot recycled
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 2u);
}

TEST_F(SmTest, IssuePortSerializesSameCycleWarps)
{
    // 8 warps all ready at cycle 0: with a 1-wide issue port their
    // first ops issue on consecutive cycles, so the last compute(1)
    // finishes at >= 8 cycles.
    const KernelInfo k = kernel(1, 256, [](WarpCtx) -> WarpProgram {
        co_yield WarpOp::compute(1);
    });
    sm_.addBlock(&k, 0, true);
    events_.run();
    EXPECT_GE(events_.now(), 8u);
    EXPECT_EQ(sm_.issuedInstructions(), 8u);
}

TEST_F(SmTest, SwitchInCandidateTracksRunnability)
{
    const KernelInfo k = kernel(1, 32, computeOnly);
    const std::uint32_t slot = sm_.addBlock(&k, 0, false);
    EXPECT_TRUE(sm_.switchInCandidate(slot)); // fresh block is runnable
    sm_.activateBlock(slot, 0);
    EXPECT_FALSE(sm_.switchInCandidate(slot)); // activating
    events_.run();
    EXPECT_FALSE(sm_.switchInCandidate(slot)); // finished
}

} // namespace
} // namespace bauvm
