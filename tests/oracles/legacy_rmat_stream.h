/**
 * @file
 * Reference copy of the seed-addressable R-MAT edge stream and its
 * floating-point quadrant draw, from before every graph build went
 * through buildRmatCsr (src/graph/generator.cc).
 *
 * StreamedRmatGenerator slices the canonical R-MAT edge sequence of an
 * RmatParams into fixed-size blocks that can be regenerated on demand,
 * in any order: construction replays the RNG draw sequence once,
 * serially, capturing the generator state at every block boundary,
 * and block(b) then replays just that block from its captured state.
 * appendRmatEdges materializes the doubled edge list (each reverse
 * edge right after its forward edge) through QuadrantDraw, which
 * compares Rng::nextDouble() against a, a + b and a + b + c.
 *
 * These are test oracles, compiled into the test binary only: the
 * stream tests build CsrGraph::fromEdges over the concatenated blocks
 * and compare it with buildRmatCsr, which shares neither the draw nor
 * the placement with this code, and a differential test compares
 * QuadrantDraw with the integer-threshold RmatDraw edge by edge.
 *
 * Do not use these in the simulator proper.
 */

#ifndef BAUVM_TESTS_ORACLES_LEGACY_RMAT_STREAM_H_
#define BAUVM_TESTS_ORACLES_LEGACY_RMAT_STREAM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/generator.h"
#include "src/sim/rng.h"

namespace bauvm
{

/**
 * Draws raw R-MAT edges, consuming the canonical RNG sequence: log2(n)
 * quadrant draws, then one weight draw iff the graph is weighted and
 * the edge is not a dropped self loop.
 */
class QuadrantDraw
{
  public:
    // The thresholds keep the left-to-right sum (a + b) + c.
    QuadrantDraw(const RmatParams &p, VertexId n)
        : top_bit_(n >> 1), a_(p.a), ab_(p.a + p.b),
          abc_(p.a + p.b + p.c), weighted_(p.weighted)
    {
    }

    /** @return false when the edge is a self loop. */
    bool
    operator()(Rng &rng, VertexId *src, VertexId *dst,
               std::uint32_t *weight) const
    {
        VertexId s = 0, d = 0;
        for (VertexId bit = top_bit_; bit > 0; bit >>= 1) {
            // Quadrants a | b | c | d split [0, 1) in that order: the
            // source takes the bit in c and d, the destination in b and
            // d.
            const double r = rng.nextDouble();
            const VertexId in_s = r >= ab_;
            const VertexId in_d = (r >= a_) & ((r < ab_) | (r >= abc_));
            s |= bit & (0u - in_s);
            d |= bit & (0u - in_d);
        }
        if (s == d)
            return false;
        *src = s;
        *dst = d;
        if (weighted_)
            *weight = static_cast<std::uint32_t>(rng.nextRange(1, 64));
        return true;
    }

  private:
    VertexId top_bit_;
    double a_, ab_, abc_;
    bool weighted_;
};

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

/**
 * Draws @p raw_edges raw R-MAT edges of @p params from @p rng and
 * appends the survivors to @p out: self loops are dropped (drawing no
 * weight), undirected graphs also get each reverse edge, and weighted
 * graphs get one weight per surviving draw, shared by both directions.
 * @pre validateRmatParams(params) passed.
 */
void appendRmatEdges(const RmatParams &params, Rng &rng,
                     std::uint64_t raw_edges, RmatStreamBlock *out);

/** See file doc. */
class StreamedRmatGenerator
{
  public:
    /** Raw R-MAT draws per block (before self-loop drops and
     *  undirected doubling). Block boundaries do not affect the
     *  generated edges, only the regeneration granularity. */
    explicit StreamedRmatGenerator(
        const RmatParams &params, std::uint32_t edges_per_block = 1u << 16);

    std::uint64_t numBlocks() const { return block_start_.size(); }

    /** Raw draw count of block @p b (the block size except for the
     *  tail block). */
    std::uint64_t rawEdgesInBlock(std::uint64_t b) const;

    /** Regenerates block @p b into @p out (cleared first), the same
     *  contents whatever blocks were regenerated before. */
    void block(std::uint64_t b, RmatStreamBlock *out) const;

  private:
    RmatParams params_;
    std::uint32_t edges_per_block_;
    std::vector<Rng> block_start_; //!< RNG state per block boundary
};

} // namespace bauvm

#endif // BAUVM_TESTS_ORACLES_LEGACY_RMAT_STREAM_H_
