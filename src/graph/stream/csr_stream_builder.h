/**
 * @file
 * External-memory CSR construction over the streamed R-MAT edge
 * stream.
 *
 * buildCsrStreamed() produces the same CsrGraph an in-core build
 * (generateRmat + optional relabelByDegree) produces — bit-identical,
 * differential-tested — while never materializing the edge list. Peak
 * host RAM is bounded by the final CSR arrays plus a configurable
 * partition scratch budget:
 *
 *  - the generator's capture pass counts out-degrees as it draws;
 *    the degree-descending relabel (degreeDescendingIds) and the
 *    row-offset array follow from them;
 *  - the vertex range is then cut into contiguous partitions whose
 *    column data fits the scratch budget, and one counting-sort pass
 *    per partition streams every block again, scattering that
 *    partition's column indices (and weights) into scratch and
 *    spilling the finished rows to a temp file;
 *  - the spill files, which hold the final arrays in order, are read
 *    back sequentially once all scratch is released.
 *
 * This is what lets WorkloadScale::Huge reach the paper's 349 MB+
 * working sets (and beyond GPU memory at any --ratio) without host
 * RAM ever holding an edge list several times that size.
 */

#ifndef BAUVM_GRAPH_STREAM_CSR_STREAM_BUILDER_H_
#define BAUVM_GRAPH_STREAM_CSR_STREAM_BUILDER_H_

#include <cstdint>

#include "src/graph/csr_graph.h"
#include "src/graph/stream/rmat_stream.h"

namespace bauvm
{

/** Tuning knobs for one streamed build. */
struct StreamCsrOptions {
    /** Stream granularity (raw draws per regenerated block). */
    std::uint32_t edges_per_block = kDefaultEdgesPerBlock;
    /** Per-partition scratch ceiling (column + weight + cursor
     *  bytes); smaller budgets mean more streaming passes. */
    std::uint64_t scratch_bytes = 64ull << 20;
    /** Apply the same descending-degree relabeling the in-core
     *  workload build applies (relabelByDegree). */
    bool relabel_by_degree = true;
    /** Threads for the capture pass (the scatter passes are serial).
     *  Each capture thread past the first takes an 8-byte-per-vertex
     *  degree array, so scratch_bytes also caps the thread count. */
    BuildThreads threads;
};

/** Builds the CSR graph of @p params out of core; see file doc. */
CsrGraph buildCsrStreamed(const RmatParams &params,
                          const StreamCsrOptions &opt = {});

/**
 * Process-wide streamed-build policy consulted by
 * GraphWorkloadBase::buildGraph(): presets whose (edge_factor-scaled)
 * edge count reaches stream_threshold_edges build through
 * buildCsrStreamed() instead of in core. Mutable so tests and benches
 * can force the streamed path at small scales; the values are folded
 * into cellKey() so a change re-keys the --resume result cache.
 */
struct GraphStreamConfig {
    /** Raw R-MAT edge count at or above which builds stream.
     *  Default: only WorkloadScale::Huge qualifies. */
    std::uint64_t stream_threshold_edges = 16ull << 20;
    std::uint32_t edges_per_block = kDefaultEdgesPerBlock;
    std::uint64_t scratch_bytes = 64ull << 20;
};

/** The mutable process-wide instance (not thread-safe to mutate while
 *  a sweep runs; set it before fanning out). */
GraphStreamConfig &graphStreamConfig();

} // namespace bauvm

#endif // BAUVM_GRAPH_STREAM_CSR_STREAM_BUILDER_H_
