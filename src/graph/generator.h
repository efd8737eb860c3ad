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
    std::uint64_t min_chunk_edges = std::uint64_t{1} << 13;

    /** Contiguous chunks to split @p edges raw edges into: one per
     *  thread, but none smaller than min_chunk_edges, and at least
     *  one. */
    std::size_t chunksFor(std::uint64_t edges) const;
};

/** Largest num_vertices whose power-of-two round-up fits a VertexId. */
constexpr VertexId kMaxRmatVertices = VertexId{1} << 31;

/** Fatal()s unless @p params describes a generatable graph: partition
 *  probabilities must be non-negative with a + b + c < 1, num_edges
 *  must be non-zero and make fewer than 2^32 directed edges (twice
 *  num_edges if undirected), and num_vertices must be in
 *  [2, kMaxRmatVertices]. */
void validateRmatParams(const RmatParams &params);

/** Vertex count of the graph @p params generates: num_vertices rounded
 *  up to a power of two. @pre validateRmatParams(params) passed. */
VertexId rmatVertexCount(const RmatParams &params);

/** The vertex ids an R-MAT build gives its CSR rows. */
enum class RmatOrder {
    Raw,      //!< the drawn ids (generateRmat)
    ByDegree, //!< relabelByDegree's ids, without building Raw first
};

/**
 * Builds the CSR graph of @p params: every R-MAT graph is built here.
 * The raw edges are cut into contiguous chunks on @p threads, and each
 * chunk draws its edges twice. Pass 1 counts them per row and keeps
 * no draw; the counts give the rows in @p order and each chunk's
 * write position in every row. Pass 2 draws them again and writes each
 * edge (both directions if undirected) straight into the final
 * arrays. So the build holds the CSR arrays, the new ids and one
 * 4-byte counter per vertex and chunk, never an edge list or a second
 * CSR copy. See generator.cc.
 */
CsrGraph buildRmatCsr(const RmatParams &params, RmatOrder order,
                      const BuildThreads &threads = {});

/** The R-MAT graph of @p params in its drawn ids:
 *  buildRmatCsr(params, RmatOrder::Raw, threads). */
CsrGraph generateRmat(const RmatParams &params,
                      const BuildThreads &threads = {});

/**
 * Relabels vertices by descending degree (stable; ties keep old-id
 * order). Real GraphBIG inputs (crawled social/web graphs) have strong
 * id locality — hot hub data clusters on few pages — whereas raw R-MAT
 * ids scatter maximally; the relabeling restores that property. A
 * graph workload builds its relabeled graph directly, with
 * buildRmatCsr(params, RmatOrder::ByDegree), which matches this bit
 * for bit. The scatter runs on @p threads, split by old-vertex range.
 */
CsrGraph relabelByDegree(const CsrGraph &raw,
                         const BuildThreads &threads = {});

/** Generates a uniform random graph with the same knobs. */
CsrGraph generateUniform(VertexId num_vertices, std::uint64_t num_edges,
                         bool undirected, bool weighted,
                         std::uint64_t seed);

/** Generates a 4-neighbour 2D grid graph of @p side x @p side. */
CsrGraph generateGrid(VertexId side, bool weighted, std::uint64_t seed);

} // namespace bauvm

#endif // BAUVM_GRAPH_GENERATOR_H_
