/**
 * @file
 * google-benchmark microbenchmarks of the memory/UVM metadata data
 * path: page-table churn, the fault-buffer -> memory-manager fault
 * handling loop, chunked eviction churn and batch prefetch analysis,
 * all on the production dense-PageMetaTable implementation. The shapes
 * mirror real simulator traffic:
 *  - MemTranslate:     map/frameOf/unmap churn — the page-table ops
 *                      behind every walker miss and migration;
 *  - MemFaultPath:     insert faults, drain a batch, evict-to-fit and
 *                      commit — the steady-state per-batch loop;
 *  - MemEvictChurn:    commit/evict under capacity pressure with
 *                      32-page root chunks — stresses the intrusive
 *                      chunk LRU and per-chunk page FIFOs;
 *  - MemPrefetchBatch: one tree-prefetch analysis over a dense fault
 *                      batch into persistent scratch.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/types.h"
#include "src/uvm/fault_buffer.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/prefetcher.h"

namespace
{

using namespace bauvm;

// ------------------------------------------------------- MemTranslate

void
BM_MemTranslate(benchmark::State &state)
{
    constexpr PageNum kPages = 1024;
    PageTable pt;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (PageNum p = 0; p < kPages; ++p)
            pt.map(p, p * 2 + 1);
        // Scattered residency/frame probes (a walker's view).
        std::uint64_t x = 88172645463325252ull;
        for (int i = 0; i < 4096; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const PageNum vpn = x % (kPages * 2);
            if (pt.isResident(vpn))
                sink += pt.frameOf(vpn);
        }
        for (PageNum p = 0; p < kPages; ++p)
            pt.unmap(p);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * (kPages * 2 + 4096));
}
BENCHMARK(BM_MemTranslate);

// ------------------------------------------------------- MemFaultPath

/**
 * The per-batch fault handling loop: insert a buffer's worth of faults
 * (with duplicates), drain the batch, then evict-to-fit and commit
 * every drained page. The footprint (4x capacity) keeps the manager at
 * capacity so every batch pays the full evict+commit path.
 */
void
BM_MemFaultPath(benchmark::State &state)
{
    constexpr PageNum kFootprint = 2048;
    constexpr int kBatchFaults = 256;
    UvmConfig config;
    GpuMemoryManager mgr(config, 512);
    FaultBuffer fb(256, mgr.pageTable().meta());
    std::vector<FaultRecord> batch;
    PageNum next = 0;
    Cycle now = 0;
    for (auto _ : state) {
        for (int i = 0; i < kBatchFaults; ++i) {
            const PageNum vpn = (next + i * 3) % kFootprint;
            fb.insert(vpn, now + i);
            if ((i & 7) == 0) // warp-duplicate faults on the same page
                fb.insert(vpn, now + i);
        }
        next = (next + kBatchFaults * 3) % kFootprint;
        fb.drainInto(batch);
        for (const FaultRecord &rec : batch) {
            if (mgr.isResident(rec.vpn))
                continue;
            while (!mgr.hasFreeFrame()) {
                PageNum victim = 0;
                if (!mgr.beginEviction(&victim, now))
                    break;
                mgr.completeEviction(victim);
            }
            mgr.reserveFrame();
            mgr.commitPage(rec.vpn, now);
        }
        now += 1000;
        benchmark::DoNotOptimize(batch.size());
    }
    state.SetItemsProcessed(state.iterations() * kBatchFaults);
}
BENCHMARK(BM_MemFaultPath);

// ------------------------------------------------------- MemEvictChurn

/**
 * Sequential commits sweeping 4x capacity with 32-page root chunks:
 * every commit past warm-up evicts first, exercising chunk LRU unlink/
 * append and the per-chunk page FIFO at chunk granularity.
 */
void
BM_MemEvictChurn(benchmark::State &state)
{
    constexpr PageNum kFootprint = 4096;
    UvmConfig config;
    config.root_chunk_pages = 32;
    GpuMemoryManager mgr(config, 1024);
    PageNum next = 0;
    Cycle now = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i) {
            const PageNum vpn = next;
            next = (next + 1) % kFootprint;
            if (mgr.isResident(vpn))
                continue;
            while (!mgr.hasFreeFrame()) {
                PageNum victim = 0;
                if (!mgr.beginEviction(&victim, now))
                    break;
                mgr.completeEviction(victim);
            }
            mgr.reserveFrame();
            mgr.commitPage(vpn, now);
            ++now;
        }
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MemEvictChurn);

// ---------------------------------------------------- MemPrefetchBatch

/**
 * One tree analysis per iteration over a dense fault batch: 18 of 32
 * pages faulted in each of 16 VA blocks, so every block crosses the
 * 50% density threshold and fills.
 */
void
BM_MemPrefetchBatch(benchmark::State &state)
{
    UvmConfig config;
    TreePrefetcher pf(
        config, [](PageNum) { return false; },
        [](PageNum vpn) { return vpn < (1u << 16); });
    std::vector<PageNum> faulted;
    for (PageNum block = 0; block < 16; ++block)
        for (PageNum i = 0; i < 18; ++i)
            faulted.push_back(block * pf.pagesPerBlock() + i);
    std::vector<PageNum> out;
    for (auto _ : state) {
        pf.computePrefetchesInto(faulted, &out);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(state.iterations() * faulted.size());
}
BENCHMARK(BM_MemPrefetchBatch);

} // namespace

BENCHMARK_MAIN();
