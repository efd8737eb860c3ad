/**
 * @file
 * google-benchmark microbenchmarks of graph construction: the one
 * R-MAT builder, building the degree-relabeled graph directly
 * (buildRmatCsr in RmatOrder::ByDegree, as every graph workload does),
 * against a raw build followed by relabelByDegree, which gives the
 * same bytes through a second CSR copy.
 *
 * The benchmark scale is deliberately small (Tiny-tier edges, with the
 * default chunk floor so the build splits into chunks): the point is
 * the relative cost of the two passes against one pass plus a
 * relabel, not a Huge-tier soak on a shared CI runner.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/graph/generator.h"

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
BM_GraphRmatCsrBuild(benchmark::State &state)
{
    const RmatParams p = benchParams();
    std::uint64_t edges = 0;
    for (auto _ : state) {
        const CsrGraph g = buildRmatCsr(p, RmatOrder::ByDegree);
        edges = g.numEdges();
        benchmark::DoNotOptimize(edges);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_GraphRmatCsrBuild)->Unit(benchmark::kMillisecond);

void
BM_GraphRawThenRelabel(benchmark::State &state)
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
BENCHMARK(BM_GraphRawThenRelabel)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
