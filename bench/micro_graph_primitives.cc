/**
 * @file
 * google-benchmark microbenchmarks of graph construction: the
 * external-memory streamed CSR builder (src/graph/stream) against the
 * in-core build it is differential-tested bit-identical to
 * (generateRmat + relabelByDegree, BM_GraphInCoreCsrBuild).
 *
 * The benchmark scale is deliberately small (Tiny-tier edges): the
 * point is the relative cost of streamed regeneration + partition
 * scatter vs one in-core sort, which is scale-stable, not a Huge-tier
 * soak on a shared CI runner.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/graph/generator.h"
#include "src/graph/stream/csr_stream_builder.h"

namespace
{

using namespace bauvm;

RmatParams
benchParams()
{
    RmatParams p;
    p.num_vertices = 1 << 13;
    p.num_edges = 1 << 16;
    p.seed = 42;
    return p;
}

void
BM_GraphStreamCsrBuild(benchmark::State &state)
{
    const RmatParams p = benchParams();
    StreamCsrOptions opt;
    // A scratch budget far below the column bytes forces the real
    // multi-partition path, not a degenerate single pass.
    opt.scratch_bytes = 64 << 10;
    std::uint64_t edges = 0;
    for (auto _ : state) {
        const CsrGraph g = buildCsrStreamed(p, opt);
        edges = g.numEdges();
        benchmark::DoNotOptimize(edges);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_GraphStreamCsrBuild)->Unit(benchmark::kMillisecond);

void
BM_GraphInCoreCsrBuild(benchmark::State &state)
{
    const RmatParams p = benchParams();
    std::uint64_t edges = 0;
    for (auto _ : state) {
        const CsrGraph g = relabelByDegree(generateRmat(p));
        edges = g.numEdges();
        benchmark::DoNotOptimize(edges);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_GraphInCoreCsrBuild)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
