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

/** Generates an R-MAT graph. */
CsrGraph generateRmat(const RmatParams &params);

/**
 * Relabels vertices by descending degree (stable; ties keep old-id
 * order). Real GraphBIG inputs (crawled social/web graphs) have strong
 * id locality — hot hub data clusters on few pages — whereas raw R-MAT
 * ids scatter maximally; the relabeling restores that property. Used
 * by every graph workload build and matched bit for bit by the
 * external-memory builder (src/graph/stream/csr_stream_builder).
 */
CsrGraph relabelByDegree(const CsrGraph &raw);

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
