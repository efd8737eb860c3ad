/**
 * @file
 * Seed-addressable out-of-core R-MAT edge stream.
 *
 * StreamedRmatGenerator slices the canonical R-MAT edge sequence of an
 * RmatParams into fixed-size blocks that can be regenerated on demand,
 * in any order, without ever materializing the full edge list. Each
 * block's generator state is a pure function of (seed, block layout):
 * construction replays the RNG draw sequence once — O(num_edges) time,
 * O(num_blocks) memory, no edge storage — capturing the generator
 * state at every block boundary, and block(b) then replays just that
 * block from its captured state.
 *
 * An unweighted raw edge takes exactly log2(n) draws, so block b
 * starts b * edges_per_block * log2(n) draws in, and the capture pass
 * splits into contiguous block groups that each start by Rng::jump()
 * and run on their own thread. A weighted edge draws its weight only
 * when it is not a self loop, so there a block's start depends on the
 * draws before it and the capture pass stays one serial replay.
 *
 * The in-core generateRmat() draws the same sequence in contiguous
 * chunks, each from one jump, keeping only the raw draws; it writes
 * each reverse edge at scatter time and never calls
 * CsrGraph::fromEdges(). So fromEdges() over the concatenated blocks
 * is an independent reference, and the stream tests compare the two:
 * a streamed consumer (src/graph/stream/csr_stream_builder) must see
 * exactly the edge sequence, self-loop drops, reverse-edge doubling
 * and weight draws an in-core build places. The two share only the
 * per-edge draw; pinned graph digests guard the draw itself.
 */

#ifndef BAUVM_GRAPH_STREAM_RMAT_STREAM_H_
#define BAUVM_GRAPH_STREAM_RMAT_STREAM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/generator.h"
#include "src/sim/rng.h"

namespace bauvm
{

/** Stream granularity: raw R-MAT draws per block (before self-loop
 *  drops and undirected doubling). Block boundaries do not affect the
 *  generated graph — only regeneration granularity. */
constexpr std::uint32_t kDefaultEdgesPerBlock = 1u << 16;

/** One regenerated block of the edge stream: the surviving directed
 *  edges (reverse edges included for undirected graphs) and, for
 *  weighted graphs, the parallel weight array. */
struct RmatStreamBlock {
    std::vector<std::pair<VertexId, VertexId>> edges;
    std::vector<std::uint32_t> weights;

    void
    clear()
    {
        edges.clear();
        weights.clear();
    }
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

/**
 * Draws @p raw_edges raw R-MAT edges of @p params from @p rng and
 * appends the survivors to @p out (reserving room for all of them up
 * front): self loops are dropped (drawing no weight), undirected graphs
 * also get each reverse edge, and weighted graphs get one weight per
 * surviving draw, shared by both directions.
 * @pre validateRmatParams(params) passed.
 */
void appendRmatEdges(const RmatParams &params, Rng &rng,
                     std::uint64_t raw_edges, RmatStreamBlock *out);

/** See file doc. */
class StreamedRmatGenerator
{
  public:
    /** When @p degrees is non-null it receives every vertex's final
     *  out-degree (self loops dropped, undirected edges counted at both
     *  ends), counted during the capture pass. An unweighted graph's
     *  capture runs in contiguous block groups on @p threads; a
     *  weighted graph's is one serial pass (see the file doc). Every
     *  group past the first counts into its own numVertices()-entry
     *  array, so the caller bounds that memory through @p threads. */
    explicit StreamedRmatGenerator(
        const RmatParams &params,
        std::uint32_t edges_per_block = kDefaultEdgesPerBlock,
        std::vector<std::uint64_t> *degrees = nullptr,
        const BuildThreads &threads = {});

    const RmatParams &params() const { return params_; }
    /** Vertex count after the generator's power-of-two round-up. */
    VertexId numVertices() const { return num_vertices_; }
    std::uint32_t edgesPerBlock() const { return edges_per_block_; }
    std::uint64_t numBlocks() const { return block_start_.size(); }

    /** Raw draw count of block @p b (== edgesPerBlock() except for the
     *  tail block). The surviving directed edge count may be smaller
     *  (self loops) or up to 2x (undirected doubling). */
    std::uint64_t rawEdgesInBlock(std::uint64_t b) const;

    /**
     * Regenerates block @p b into @p out (cleared first). Deterministic
     * and order-independent: any call sequence yields the same block
     * contents.
     */
    void block(std::uint64_t b, RmatStreamBlock *out) const;

  private:
    RmatParams params_;
    std::uint32_t edges_per_block_;
    VertexId num_vertices_;
    std::vector<Rng> block_start_; //!< RNG state per block boundary
};

} // namespace bauvm

#endif // BAUVM_GRAPH_STREAM_RMAT_STREAM_H_
