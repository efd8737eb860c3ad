/**
 * @file
 * Proves the UVM runtime's steady-state fault path performs zero heap
 * allocations: a counting global operator new/delete is toggled around
 * a self-sustaining fault/prefetch/migrate/evict loop once the dense
 * page-metadata table, the waiter slab, the batch scratch vectors and
 * the batch-record vector's capacity are warm. The same hook counts
 * bytes, which proves a graph workload's build reads the cached graph
 * instead of copying it. Lives in its own binary so the global hook
 * cannot perturb (or be perturbed by) the main test suite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "src/graph/graph_cache.h"
#include "src/mem/memory_hierarchy.h"
#include "src/sim/event_queue.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/uvm_runtime.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_registry.h"

namespace
{
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
} // namespace

void *
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(n, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

// Out of line: inlined into gtest's `new TestClass`, it draws GCC's
// -Wmismatched-new-delete (free() on operator new's pointer).
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace bauvm
{
namespace
{

/**
 * Self-sustaining fault traffic: keeps a handful of faults in flight
 * over a footprint 8x device capacity, so every batch migrates,
 * prefetches around, and evicts under pressure. Each woken waiter
 * schedules the next fault one cycle later (the SM replay shape)
 * until the round's budget is spent.
 */
class FaultLoop
{
  public:
    FaultLoop(UvmRuntime &rt, EventQueue &q) : rt_(rt), q_(q) {}

    /** Runs one round of @p faults faults; returns waiters woken. */
    std::uint64_t
    run(std::uint64_t faults)
    {
        budget_ = faults;
        issued_ = 0;
        woken_ = 0;
        for (int i = 0; i < 8; ++i)
            issue();
        q_.run();
        return woken_;
    }

  private:
    static constexpr PageNum kFootprint = 64;

    void
    issue()
    {
        if (issued_ >= budget_)
            return;
        // Stride-7 walk: coprime with the footprint, so successive
        // faults leave the resident set and come back (refaults).
        const PageNum vpn = (issued_ * 7) % kFootprint;
        ++issued_;
        FaultLoop *self = this;
        rt_.onPageFault(vpn, [self](Cycle) {
            ++self->woken_;
            self->q_.scheduleAfter(1, [self] { self->issue(); });
        });
    }

    UvmRuntime &rt_;
    EventQueue &q_;
    std::uint64_t budget_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t woken_ = 0;
};

/**
 * One independent fault-loop stack — the per-unit state an intra-cell
 * worker thread owns. Warm-up mirrors the single-threaded test.
 */
struct LoopStack {
    UvmConfig config;
    EventQueue events;
    GpuMemoryManager manager;
    MemoryHierarchy hierarchy;
    UvmRuntime runtime;
    FaultLoop loop;

    LoopStack()
        : config(makeConfig()), manager(config, /*capacity_pages=*/8),
          hierarchy(MemConfig{}, 1, config.page_bytes,
                    manager.pageTable()),
          runtime(config, events, manager, hierarchy),
          loop(runtime, events)
    {
        runtime.registerAllocation(0, 64 * config.page_bytes);
    }

    static UvmConfig
    makeConfig()
    {
        UvmConfig c;
        c.root_chunk_pages = 4;
        return c;
    }

    void
    warmUp(std::uint64_t faults)
    {
        loop.run(faults);
        const std::uint64_t before = runtime.batches();
        loop.run(faults);
        const std::uint64_t per_round = runtime.batches() - before;
        ASSERT_GT(per_round, 0u);
        while (runtime.batchRecords().capacity() -
                   runtime.batchRecords().size() <
               2 * per_round + 8)
            loop.run(faults);
    }
};

TEST(MemAlloc, SteadyStateFaultPathIsAllocationFree)
{
    UvmConfig config;
    config.root_chunk_pages = 4; // exercise the chunk page FIFOs
    EventQueue events;
    GpuMemoryManager manager(config, /*capacity_pages=*/8);
    MemoryHierarchy hierarchy(MemConfig{}, 1, config.page_bytes,
                              manager.pageTable());
    UvmRuntime runtime(config, events, manager, hierarchy);
    runtime.registerAllocation(0, 64 * config.page_bytes);

    FaultLoop loop(runtime, events);
    const std::uint64_t kFaults = 512;

    // Warm-up: grow the metadata table, waiter slab, batch scratch and
    // event slabs to steady-state capacity, then keep running rounds
    // until the batch-record vector has headroom for the measured
    // round (its once-per-batch push_back is the only amortized growth
    // left on the path).
    loop.run(kFaults);
    const std::uint64_t before = runtime.batches();
    loop.run(kFaults);
    const std::uint64_t per_round = runtime.batches() - before;
    ASSERT_GT(per_round, 0u);
    while (runtime.batchRecords().capacity() -
               runtime.batchRecords().size() <
           2 * per_round + 8)
        loop.run(kFaults);

    const std::uint64_t fallbacks_before =
        UvmRuntime::WakeFn::heapFallbacks();
    g_allocs.store(0);
    g_counting.store(true);
    const std::uint64_t woken = loop.run(kFaults);
    g_counting.store(false);

    EXPECT_EQ(woken, kFaults);
    EXPECT_GT(manager.evictions(), 0u) << "loop must run under pressure";
    EXPECT_GT(runtime.prefetchedPages(), 0u)
        << "loop must exercise the prefetcher";
    EXPECT_EQ(g_allocs.load(), 0u)
        << "steady-state fault/migrate/evict/wake must not allocate";
    EXPECT_EQ(UvmRuntime::WakeFn::heapFallbacks(), fallbacks_before)
        << "waiter captures within the inline budget must stay inline";
}

/**
 * The hookless path — what an untraced, unaudited sweep cell runs —
 * must stay allocation-free in steady state even when two intra-cell
 * worker threads drive independent stacks concurrently (the
 * --cell-threads shape). The global operator-new hook counts
 * allocations process-wide, so a single stray allocation on either
 * worker fails the test.
 */
TEST(MemAlloc, HooklessPathIsAllocationFreeOnTwoThreads)
{
    constexpr std::uint64_t kFaults = 512;
    LoopStack stacks[2];
    stacks[0].warmUp(kFaults);
    stacks[1].warmUp(kFaults);

    const std::uint64_t fallbacks_before =
        UvmRuntime::WakeFn::heapFallbacks();
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> woken[2] = {{0}, {0}};
    auto worker = [&](int u) {
        // Thread startup may allocate; counting begins only once both
        // workers sit in this spin loop.
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        woken[u].store(stacks[u].loop.run(kFaults));
    };
    std::thread t0(worker, 0);
    std::thread t1(worker, 1);
    while (ready.load() != 2) {
    }
    g_allocs.store(0);
    g_counting.store(true);
    go.store(true, std::memory_order_release);
    t0.join();
    t1.join();
    g_counting.store(false);

    for (int u = 0; u < 2; ++u) {
        EXPECT_EQ(woken[u].load(), kFaults) << "worker " << u;
        EXPECT_GT(stacks[u].manager.evictions(), 0u)
            << "worker " << u << " must run under pressure";
    }
    EXPECT_EQ(g_allocs.load(), 0u)
        << "hookless steady state must not allocate on either worker";
    EXPECT_EQ(UvmRuntime::WakeFn::heapFallbacks(), fallbacks_before);
}

/**
 * A graph workload's device arrays read the cached graph in place: once
 * the GraphBuildCache holds the graph, a second build allocates only
 * its per-run state, less than one 4-byte column array of the graph
 * (a widened copy of the columns alone would be twice that). SSSP-TWC
 * covers the weighted path.
 */
TEST(MemAlloc, GraphWorkloadBuildDoesNotCopyTheCachedGraph)
{
    GraphBuildCache::Scope graph_scope;
    for (const char *name : {"BFS-HYB", "SSSP-TWC"}) {
        SCOPED_TRACE(name);
        constexpr std::uint64_t kSeed = 1;
        WorkloadRegistry::instance().create(name)->build(
            WorkloadScale::Small, kSeed);

        auto workload = WorkloadRegistry::instance().create(name);
        g_bytes.store(0);
        g_counting.store(true);
        workload->build(WorkloadScale::Small, kSeed);
        g_counting.store(false);

        const auto *graph_workload =
            dynamic_cast<const GraphWorkloadBase *>(workload.get());
        ASSERT_NE(graph_workload, nullptr);
        const std::uint64_t col_bytes =
            graph_workload->graph().numEdges() * 4;
        EXPECT_LT(g_bytes.load(), col_bytes)
            << "a cache-hit build must not copy the graph";
    }
}

} // namespace
} // namespace bauvm
