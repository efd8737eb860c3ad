/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot primitives:
 * event queue scheduling, TLB/cache lookups, coalescing, page-table
 * walks and R-MAT generation. These bound the simulator's own
 * throughput, not the modeled GPU's.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "src/graph/generator.h"
#include "src/gpu/coalescer.h"
#include "src/mem/cache.h"
#include "src/mem/page_table_walker.h"
#include "src/mem/tlb.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace
{

using namespace bauvm;

// ---------------------------------------------------------------------
// Event-queue kernel (the slab/calendar EventQueue). The shapes mirror
// real simulator traffic:
//  - ScheduleRun:   the original scatter of 1024 absolute times;
//  - ShortDelay:    chained 1-8 cycle events (L1/L2 hits, issue
//                   slots) — the calendar ring's sweet spot;
//  - CancelHeavy:   schedule/cancel churn (speculative wakeups,
//                   rescheduled timers) — exercises tombstones;
//  - MixedHorizon:  short delays interleaved with far-future PCIe
//                   completions and batch timers — ring + heap mix.
// ---------------------------------------------------------------------

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t sink = 0;
        for (int i = 0; i < 1024; ++i)
            q.scheduleAt(static_cast<Cycle>(i * 7 % 997),
                         [&sink] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueShortDelay(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t sink = 0;
        // 8 chains of self-rescheduling short-delay events, 128 hops
        // each: the shape of cache-hit latencies and coalescer ticks.
        struct Chain {
            EventQueue *q;
            std::uint64_t *sink;
            int hops = 0;
            void
            operator()()
            {
                ++*sink;
                if (++hops < 128) {
                    auto next = *this;
                    q->scheduleAfter(1 + (hops & 7), std::move(next));
                }
            }
        };
        for (int c = 0; c < 8; ++c)
            q.scheduleAt(static_cast<Cycle>(c), Chain{&q, &sink});
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 8 * 128);
}
BENCHMARK(BM_EventQueueShortDelay);

void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t sink = 0;
        std::vector<EventId> ids;
        ids.reserve(1024);
        for (int i = 0; i < 1024; ++i)
            ids.push_back(q.scheduleAt(
                static_cast<Cycle>(1 + i * 13 % 4096),
                [&sink] { ++sink; }));
        // Cancel three quarters — speculative wakeups that were
        // superseded — then drain the survivors.
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (i % 4 != 0)
                q.cancel(ids[i]);
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void
BM_EventQueueMixedHorizon(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t sink = 0;
        // 7/8 near-future (hit latencies), 1/8 far-future (PCIe
        // completions, batch timers) — the simulator's real mix.
        for (int i = 0; i < 1024; ++i) {
            const Cycle when =
                (i % 8 == 7)
                    ? static_cast<Cycle>(5000 + i * 97 % 100000)
                    : static_cast<Cycle>(i * 7 % 997);
            q.scheduleAt(when, [&sink] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueMixedHorizon);

void
BM_TlbLookup(benchmark::State &state)
{
    TlbConfig config{64, 0, 1};
    Tlb tlb(config, "bm");
    Rng rng(7);
    for (auto _ : state) {
        const PageNum vpn = rng.nextBelow(256);
        if (!tlb.lookup(vpn))
            tlb.insert(vpn);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig config{16 * 1024, 4, 128, 28};
    Cache cache(config, "bm");
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextBelow(4096), false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_Coalesce32Divergent(benchmark::State &state)
{
    Coalescer coalescer(128);
    Rng rng(7);
    std::vector<VAddr> addrs(32);
    for (auto _ : state) {
        for (auto &a : addrs)
            a = rng.nextBelow(1 << 24);
        benchmark::DoNotOptimize(coalescer.coalesce(addrs));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Coalesce32Divergent);

void
BM_PageWalk(benchmark::State &state)
{
    MemConfig config;
    PageTableWalker walker(config);
    Rng rng(7);
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            walker.walk(rng.nextBelow(1 << 20), t));
        t += 10;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageWalk);

void
BM_RmatGenerate(benchmark::State &state)
{
    for (auto _ : state) {
        RmatParams params;
        params.num_vertices = 1 << 12;
        params.num_edges = 1 << 14;
        benchmark::DoNotOptimize(generateRmat(params));
    }
}
BENCHMARK(BM_RmatGenerate);

} // namespace

BENCHMARK_MAIN();
