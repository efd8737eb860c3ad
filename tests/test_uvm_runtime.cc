/**
 * @file
 * Tests of the batch-processing state machine — the Fig 2 semantics the
 * paper analyzes — and of the three eviction disciplines (baseline
 * serialized, unobtrusive, ideal).
 */

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "src/mem/memory_hierarchy.h"
#include "src/sim/event_queue.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/uvm_runtime.h"

namespace bauvm
{
namespace
{

constexpr std::uint64_t kPage = 64 * 1024;

/** Standalone harness wiring runtime + manager + hierarchy. */
struct RuntimeHarness
{
    void
    makeRuntime(std::uint64_t capacity_pages, UvmConfig config = {})
    {
        config.prefetch_enabled = false; // unit tests want exact counts
        config_ = config;
        manager_ =
            std::make_unique<GpuMemoryManager>(config, capacity_pages);
        hierarchy_ = std::make_unique<MemoryHierarchy>(
            mem_config_, 1, config.page_bytes, manager_->pageTable());
        runtime_ = std::make_unique<UvmRuntime>(
            config, events_, *manager_, *hierarchy_);
        runtime_->registerAllocation(0, 1024 * kPage);
    }

    /** Faults page @p vpn and counts the wake. */
    void
    fault(PageNum vpn)
    {
        runtime_->onPageFault(vpn, [this, vpn](Cycle c) {
            wakes_.emplace_back(vpn, c);
        });
    }

    EventQueue events_;
    UvmConfig config_;
    MemConfig mem_config_;
    std::unique_ptr<GpuMemoryManager> manager_;
    std::unique_ptr<MemoryHierarchy> hierarchy_;
    std::unique_ptr<UvmRuntime> runtime_;
    std::vector<std::pair<PageNum, Cycle>> wakes_;
};

/** Fixture: one harness per test. */
class UvmRuntimeTest : public ::testing::Test, public RuntimeHarness
{
};

TEST_F(UvmRuntimeTest, SingleFaultMigratesAndWakes)
{
    makeRuntime(0);
    fault(1);
    events_.run();
    ASSERT_EQ(wakes_.size(), 1u);
    EXPECT_TRUE(manager_->isResident(1));
    EXPECT_EQ(runtime_->batches(), 1u);
    // Wake time = interrupt latency + handling + one page transfer.
    const Cycle expected =
        usToCycles(config_.interrupt_latency_us) +
        usToCycles(config_.fault_handling_us) +
        usToCycles(config_.fault_handling_per_page_us) +
        runtime_->pcie().transferCycles(kPage);
    EXPECT_EQ(wakes_[0].second, expected);
}

TEST_F(UvmRuntimeTest, FaultsBeforeBatchStartJoinTheBatch)
{
    makeRuntime(0);
    fault(1);
    // A fault arriving during the interrupt latency joins batch 1.
    events_.scheduleAt(usToCycles(0.5), [this] { fault(2); });
    events_.run();
    EXPECT_EQ(runtime_->batches(), 1u);
    ASSERT_EQ(runtime_->batchRecords().size(), 1u);
    EXPECT_EQ(runtime_->batchRecords()[0].fault_pages, 2u);
}

TEST_F(UvmRuntimeTest, FaultsDuringProcessingWaitForNextBatch)
{
    makeRuntime(0);
    fault(1);
    // Arrives mid-handling (after batch 1 began): next batch (Fig 2,
    // pages B and C).
    events_.scheduleAt(usToCycles(10.0), [this] { fault(2); });
    events_.run();
    ASSERT_EQ(runtime_->batches(), 2u);
    EXPECT_EQ(runtime_->batchRecords()[0].fault_pages, 1u);
    EXPECT_EQ(runtime_->batchRecords()[1].fault_pages, 1u);
    // Batch 2 begins exactly when batch 1 ends (no interrupt round
    // trip — the driver optimization).
    EXPECT_EQ(runtime_->batchRecords()[1].begin,
              runtime_->batchRecords()[0].end);
}

TEST_F(UvmRuntimeTest, DuplicateFaultSamePageSharesEntry)
{
    makeRuntime(0);
    fault(1);
    fault(1);
    events_.run();
    EXPECT_EQ(wakes_.size(), 2u);
    EXPECT_EQ(runtime_->batchRecords()[0].fault_pages, 1u);
    EXPECT_EQ(runtime_->batchRecords()[0].duplicate_faults, 1u);
}

TEST_F(UvmRuntimeTest, FaultOnInFlightPageJoinsWaiters)
{
    makeRuntime(0);
    fault(1);
    // Fault the same page while its migration is in flight.
    events_.scheduleAt(usToCycles(23.0), [this] { fault(1); });
    events_.run();
    EXPECT_EQ(runtime_->batches(), 1u);
    EXPECT_EQ(wakes_.size(), 2u);
    EXPECT_EQ(wakes_[0].second, wakes_[1].second);
}

TEST_F(UvmRuntimeTest, FaultOnResidentPageWakesImmediately)
{
    makeRuntime(0);
    fault(1);
    events_.run();
    wakes_.clear();
    fault(1);
    EXPECT_EQ(wakes_.size(), 1u); // synchronous replay
    EXPECT_EQ(runtime_->batches(), 1u);
}

TEST_F(UvmRuntimeTest, MigrationsAreSortedByAddress)
{
    makeRuntime(0);
    fault(9);
    fault(3);
    fault(7);
    events_.run();
    ASSERT_EQ(wakes_.size(), 3u);
    // Ascending page order -> page 3 arrives first, then 7, then 9.
    EXPECT_EQ(wakes_[0].first, 3u);
    EXPECT_EQ(wakes_[1].first, 7u);
    EXPECT_EQ(wakes_[2].first, 9u);
    EXPECT_LT(wakes_[0].second, wakes_[1].second);
}

TEST_F(UvmRuntimeTest, HandlingTimeMatchesConfig)
{
    UvmConfig config;
    config.fault_handling_us = 45.0;
    makeRuntime(0, config);
    fault(1);
    events_.run();
    const auto &rec = runtime_->batchRecords()[0];
    EXPECT_EQ(rec.handlingTime(),
              usToCycles(45.0) +
                  usToCycles(config_.fault_handling_per_page_us));
}

TEST_F(UvmRuntimeTest, BaselineEvictionSerializes)
{
    makeRuntime(2);
    fault(1);
    fault(2);
    events_.run();
    wakes_.clear();
    // Memory full: two more pages, each needing an eviction.
    fault(3);
    fault(4);
    events_.run();
    ASSERT_EQ(wakes_.size(), 2u);
    const Cycle page = runtime_->pcie().transferCycles(kPage);
    // Serialized: evict,migrate,evict,migrate -> the second wake is a
    // full 2*page after the first.
    EXPECT_EQ(wakes_[1].second - wakes_[0].second, 2 * page);
    EXPECT_EQ(manager_->evictions(), 2u);
}

TEST_F(UvmRuntimeTest, UnobtrusiveEvictionOverlaps)
{
    UvmConfig config;
    config.unobtrusive_eviction = true;
    makeRuntime(2, config);
    fault(1);
    fault(2);
    events_.run();
    wakes_.clear();
    fault(3);
    fault(4);
    events_.run();
    ASSERT_EQ(wakes_.size(), 2u);
    const Cycle page = runtime_->pcie().transferCycles(kPage);
    // Pipelined: inbound transfers run back to back on the H2D channel.
    EXPECT_EQ(wakes_[1].second - wakes_[0].second, page);
    EXPECT_EQ(manager_->evictions(), 2u);
}

TEST_F(UvmRuntimeTest, UnobtrusiveBeatsBaselineEndToEnd)
{
    // Two separate fixtures (the event queue is not resettable):
    // measure the wall time to land 8 pages into full memory.
    auto run_policy = [](bool ue) {
        RuntimeHarness t;
        UvmConfig config;
        config.unobtrusive_eviction = ue;
        t.makeRuntime(4, config);
        for (PageNum p = 1; p <= 4; ++p)
            t.fault(p);
        t.events_.run();
        for (PageNum p = 5; p <= 12; ++p)
            t.fault(p);
        t.events_.run();
        return t.wakes_.back().second;
    };
    const Cycle baseline_done = run_policy(false);
    const Cycle ue_done = run_policy(true);
    EXPECT_LT(ue_done, baseline_done);
}

TEST_F(UvmRuntimeTest, IdealEvictionNoDeviceToHostTraffic)
{
    UvmConfig config;
    config.ideal_eviction = true;
    makeRuntime(2, config);
    fault(1);
    fault(2);
    events_.run();
    fault(3);
    events_.run();
    EXPECT_EQ(manager_->evictions(), 1u);
    EXPECT_EQ(runtime_->pcie().bytesMoved(PcieDir::DeviceToHost), 0u);
}

TEST_F(UvmRuntimeTest, EvictionShootsDownTlbAndUnmaps)
{
    makeRuntime(1);
    fault(1);
    events_.run();
    EXPECT_TRUE(manager_->isResident(1));
    fault(2);
    events_.run();
    EXPECT_FALSE(manager_->isResident(1));
    EXPECT_TRUE(manager_->isResident(2));
}

TEST_F(UvmRuntimeTest, ResidencyNeverExceedsCapacity)
{
    makeRuntime(4);
    for (PageNum p = 1; p <= 20; ++p)
        fault(p);
    events_.run();
    EXPECT_LE(manager_->pageTable().residentPages(), 4u);
    EXPECT_LE(manager_->committedFrames(), 4u);
}

TEST_F(UvmRuntimeTest, PrefetchRidesAlongWithDemand)
{
    UvmConfig config;
    config.prefetch_enabled = true;
    config_ = config;
    manager_ = std::make_unique<GpuMemoryManager>(config, 0);
    hierarchy_ = std::make_unique<MemoryHierarchy>(
        mem_config_, 1, config.page_bytes, manager_->pageTable());
    runtime_ = std::make_unique<UvmRuntime>(config, events_, *manager_,
                                            *hierarchy_);
    runtime_->registerAllocation(0, 1024 * kPage);
    // 3 of 4 pages in a subtree: the 4th is prefetched.
    fault(0);
    fault(1);
    fault(2);
    events_.run();
    EXPECT_EQ(runtime_->prefetchedPages(), 1u);
    EXPECT_TRUE(manager_->isResident(3));
    EXPECT_EQ(runtime_->batchRecords()[0].prefetch_pages, 1u);
}

TEST_F(UvmRuntimeTest, BatchProcessingTimeCoversAllMigrations)
{
    makeRuntime(0);
    for (PageNum p = 1; p <= 5; ++p)
        fault(p);
    events_.run();
    const auto &rec = runtime_->batchRecords()[0];
    const Cycle page = runtime_->pcie().transferCycles(kPage);
    EXPECT_EQ(rec.processingTime(),
              usToCycles(config_.fault_handling_us) +
                  5 * usToCycles(config_.fault_handling_per_page_us) +
                  5 * page);
    EXPECT_EQ(rec.fault_pages, 5u);
}

TEST_F(UvmRuntimeTest, AdviceCallbackFiresPerBatch)
{
    makeRuntime(0);
    int advice_calls = 0;
    runtime_->setAdviceCallback(
        [&](OversubAdvice) { ++advice_calls; });
    fault(1);
    events_.run();
    EXPECT_EQ(advice_calls, 1);
}

TEST_F(UvmRuntimeTest, ProactiveEvictionDrainsAtIdle)
{
    makeRuntime(4);
    runtime_->enableProactiveEviction(0.5);
    for (PageNum p = 1; p <= 4; ++p)
        fault(p);
    events_.run();
    // Idle now: proactive eviction should have pushed occupancy to
    // <= 50% of 4 frames.
    EXPECT_LE(manager_->committedFrames(), 2u);
}

// ---- BatchLog: the shared, immutable log a run hands over ------------

/** A log of @p n records whose begin field is its index. */
BatchLog
indexedLog(std::size_t n)
{
    std::vector<BatchRecord> records(n);
    for (std::size_t i = 0; i < n; ++i)
        records[i].begin = i;
    return BatchLog(std::move(records));
}

TEST(BatchLog, MovedFromLogIsEmpty)
{
    BatchLog a = indexedLog(3);
    const BatchRecord *first = &a[0];
    BatchLog b(std::move(a));
    EXPECT_TRUE(a.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.begin(), a.end());
    EXPECT_EQ(&b[0], first);

    BatchLog c;
    c = std::move(b);
    EXPECT_TRUE(b.empty()); // NOLINT(bugprone-use-after-move)
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(&c[0], first);
    EXPECT_EQ(c[2].begin, 2u);
}

TEST(BatchLog, EmptyVectorMakesAnEmptyLog)
{
    const BatchLog log{std::vector<BatchRecord>{}};
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.begin(), log.end());
}

TEST(BatchLog, ConcurrentCopiesLeaveTheLogIntact)
{
    constexpr std::size_t kRecords = 1000;
    const BatchLog log = indexedLog(kRecords);
    const BatchRecord *first = &log[0];
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&log, first] {
            for (int i = 0; i < 20000; ++i) {
                BatchLog copy = log;
                BatchLog second = copy;
                copy = {};
                if (&second[0] != first || second.size() != kRecords)
                    ADD_FAILURE() << "a copy lost the shared buffer";
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    ASSERT_EQ(log.size(), kRecords);
    EXPECT_EQ(&log[0], first);
    for (std::size_t i = 0; i < kRecords; ++i)
        EXPECT_EQ(log[i].begin, i);
}

} // namespace
} // namespace bauvm
