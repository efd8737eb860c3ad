/**
 * @file
 * The R-MAT edge draw of buildRmatCsr (src/graph/generator.cc).
 *
 * One raw edge consumes log2(n) quadrant draws from the RNG, then one
 * weight draw iff the graph is weighted and the edge is not a self
 * loop (self loops are dropped). This sequence defines the generated
 * graphs, and pinned graph digests guard it.
 *
 * A quadrant draw compares r = (x >> 11) * 2^-53, the value of
 * Rng::nextDouble() for x = Rng::next(), with the thresholds a, a + b
 * and a + b + c. Scaling by 2^53 is exact, so r >= t holds exactly
 * when the integer x >> 11 is at least ceil(t * 2^53): the draw
 * compares integers and never converts to double. a, b and c are
 * non-negative, so the thresholds ascend and the three compares sum
 * to the quadrant's 2-bit code, 2 * source bit + destination bit
 * (a = 0, b = 1, c = 2, d = 3). The codes of one edge are collected
 * in one word and deinterleaved once. tests/oracles keeps the
 * floating-point draw this replaced, and a differential test compares
 * the two edge by edge.
 */

#ifndef BAUVM_GRAPH_RMAT_DRAW_H_
#define BAUVM_GRAPH_RMAT_DRAW_H_

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/graph/generator.h"
#include "src/sim/rng.h"

namespace bauvm
{

/** See file doc. */
class RmatDraw
{
  public:
    /** @pre validateRmatParams(params) passed. The thresholds keep
     *  the left-to-right sum (a + b) + c: a reassociated sum can move
     *  a threshold by one ulp and so change the generated graph. */
    explicit RmatDraw(const RmatParams &params)
        : levels_(std::countr_zero(rmatVertexCount(params))),
          a_(threshold(params.a)), ab_(threshold(params.a + params.b)),
          abc_(threshold(params.a + params.b + params.c)),
          weighted_(params.weighted)
    {
    }

    /** Draws one raw edge from @p rng. @return false, having drawn no
     *  weight, when the edge is a self loop. */
    bool
    operator()(Rng &rng, VertexId *src, VertexId *dst,
               std::uint32_t *weight) const
    {
        // Local copies: the RNG state and the thresholds are all
        // 64-bit words, so through the references the compiler would
        // store the state and reload the thresholds at every level.
        Rng r = rng;
        const std::uint64_t a = a_, ab = ab_, abc = abc_;
        std::uint64_t codes = 0;
        for (unsigned level = levels_; level > 0; --level) {
            const std::uint64_t x = r.next() >> 11;
            codes = codes << 2 | static_cast<std::uint64_t>(
                                     (x >= a) + (x >= ab) + (x >= abc));
        }
        const VertexId s = evenBits(codes >> 1);
        const VertexId d = evenBits(codes);
        if (s != d) {
            *src = s;
            *dst = d;
            if (weighted_)
                *weight = static_cast<std::uint32_t>(r.nextRange(1, 64));
        }
        rng = r;
        return s != d;
    }

  private:
    /** ceil(t * 2^53): at most 2^53, so the cast is exact. */
    static std::uint64_t
    threshold(double t)
    {
        return static_cast<std::uint64_t>(std::ceil(std::ldexp(t, 53)));
    }

    /** Bits 0, 2, 4, ... of @p x packed into bits 0, 1, 2, ... */
    static VertexId
    evenBits(std::uint64_t x)
    {
        x &= 0x5555555555555555ull;
        x = (x | x >> 1) & 0x3333333333333333ull;
        x = (x | x >> 2) & 0x0f0f0f0f0f0f0f0full;
        x = (x | x >> 4) & 0x00ff00ff00ff00ffull;
        x = (x | x >> 8) & 0x0000ffff0000ffffull;
        x = (x | x >> 16) & 0x00000000ffffffffull;
        return static_cast<VertexId>(x);
    }

    unsigned levels_;               //!< log2(n): one code per level
    std::uint64_t a_, ab_, abc_;    //!< ceil(threshold * 2^53)
    bool weighted_;
};

} // namespace bauvm

#endif // BAUVM_GRAPH_RMAT_DRAW_H_
