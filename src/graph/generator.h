/**
 * @file
 * Synthetic graph generators.
 *
 * R-MAT (Chakrabarti et al.) stands in for the real-world social/web
 * graphs the paper uses from GraphBIG: it produces the skewed degree
 * distribution and poor locality that make these workloads irregular.
 * Uniform and 2D-grid generators provide contrast for tests and for the
 * regular-workload suite.
 */

#ifndef BAUVM_GRAPH_GENERATOR_H_
#define BAUVM_GRAPH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/csr_graph.h"
#include "src/sim/rng.h"

namespace bauvm
{

/** Parameters for R-MAT generation. */
struct RmatParams {
    VertexId num_vertices = 1 << 14; //!< rounded up to a power of two
    std::uint64_t num_edges = 1 << 17;
    double a = 0.57, b = 0.19, c = 0.19; //!< d = 1 - a - b - c
    bool undirected = true;  //!< also insert the reverse edge
    bool weighted = false;   //!< uniform weights in [1, 64]
    std::uint64_t seed = 1;
};

/**
 * Host threads for one graph build. The built graph is byte-identical
 * for every value; only the build's wall time changes.
 */
struct BuildThreads {
    std::size_t threads = 0; //!< 0 = hardware concurrency
    /** Edges (raw R-MAT draws, or CSR edges for the relabel) below
     *  which a chunk is not worth a thread. Tests lower it to split
     *  small graphs. */
    std::uint64_t min_chunk_edges = std::uint64_t{1} << 16;

    /** Contiguous chunks to split @p edges raw edges into: one per
     *  thread, but none smaller than min_chunk_edges, and at least
     *  one. */
    std::size_t chunksFor(std::uint64_t edges) const;
};

/**
 * Generates an R-MAT graph. Its raw edges are drawn and counting-
 * sorted in contiguous chunks on @p threads (one chunk if weighted;
 * see generator.cc), each undirected draw placed in both rows.
 */
CsrGraph generateRmat(const RmatParams &params,
                      const BuildThreads &threads = {});

/**
 * Relabels vertices by descending degree (stable; ties keep old-id
 * order). Real GraphBIG inputs (crawled social/web graphs) have strong
 * id locality — hot hub data clusters on few pages — whereas raw R-MAT
 * ids scatter maximally; the relabeling restores that property. Used
 * by every graph workload build and matched bit for bit by the
 * external-memory builder (src/graph/stream/csr_stream_builder). The
 * scatter runs on @p threads, split by old-vertex range.
 */
CsrGraph relabelByDegree(const CsrGraph &raw,
                         const BuildThreads &threads = {});

/**
 * The relabelByDegree order as an old-id -> new-id map over per-vertex
 * out-degrees: descending degree, ties in old-id order. A counting sort,
 * so it is stable by construction; the external-memory builder uses it
 * too.
 */
std::vector<VertexId> degreeDescendingIds(
    std::span<const std::uint64_t> degree);

/** Generates a uniform random graph with the same knobs. */
CsrGraph generateUniform(VertexId num_vertices, std::uint64_t num_edges,
                         bool undirected, bool weighted,
                         std::uint64_t seed);

/** Generates a 4-neighbour 2D grid graph of @p side x @p side. */
CsrGraph generateGrid(VertexId side, bool weighted, std::uint64_t seed);

} // namespace bauvm

#endif // BAUVM_GRAPH_GENERATOR_H_
