/**
 * @file
 * The build entry points of the retired external-memory graph builder,
 * kept as thin names over buildRmatCsr (src/graph/generator.h).
 *
 * Every R-MAT graph, Huge included, now builds through buildRmatCsr:
 * it holds the final CSR arrays plus one 4-byte row counter per vertex
 * and build chunk, never an edge list, a second CSR copy or a spill
 * file. These names stay because the benchmark harness (perfbench/)
 * calls them, and because the stream parameters still take part in
 * the cell key (cellKey) and the graph-cache key, which must not move:
 * the parameters no longer choose how a graph is built.
 */

#ifndef BAUVM_GRAPH_STREAM_CSR_STREAM_BUILDER_H_
#define BAUVM_GRAPH_STREAM_CSR_STREAM_BUILDER_H_

#include <cstdint>

#include "src/graph/csr_graph.h"
#include "src/graph/generator.h"

namespace bauvm
{

/** The stream block size the keys record by default. */
constexpr std::uint32_t kDefaultEdgesPerBlock = 1u << 16;

/** Options of one buildCsrStreamed() call. Only relabel_by_degree and
 *  threads change anything; edges_per_block and scratch_bytes are
 *  accepted and ignored. */
struct StreamCsrOptions {
    std::uint32_t edges_per_block = kDefaultEdgesPerBlock;
    std::uint64_t scratch_bytes = 64ull << 20;
    /** Apply the descending-degree relabeling every graph workload
     *  applies (relabelByDegree). */
    bool relabel_by_degree = true;
    BuildThreads threads;
};

/** buildRmatCsr(@p params, RmatOrder::ByDegree or RmatOrder::Raw as
 *  opt.relabel_by_degree says, opt.threads). */
CsrGraph buildCsrStreamed(const RmatParams &params,
                          const StreamCsrOptions &opt = {});

/**
 * Process-wide stream parameters. GraphWorkloadBase::buildGraph()
 * records in its graph-cache key whether a graph's (edge_factor-scaled)
 * edge count reaches stream_threshold_edges, and if so
 * edges_per_block; cellKey() folds all three fields into every cell's
 * content address. Mutable so tests can check that a change re-keys
 * the --resume result cache.
 */
struct GraphStreamConfig {
    /** Raw R-MAT edge count at or above which a graph's cache key is
     *  marked streamed. Default: only WorkloadScale::Huge. */
    std::uint64_t stream_threshold_edges = 16ull << 20;
    std::uint32_t edges_per_block = kDefaultEdgesPerBlock;
    std::uint64_t scratch_bytes = 64ull << 20;
};

/** The mutable process-wide instance (not thread-safe to mutate while
 *  a sweep runs; set it before fanning out). */
GraphStreamConfig &graphStreamConfig();

} // namespace bauvm

#endif // BAUVM_GRAPH_STREAM_CSR_STREAM_BUILDER_H_
