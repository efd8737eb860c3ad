#include "src/graph/stream/rmat_stream.h"

#include <algorithm>
#include <bit>

#include "src/sim/log.h"
#include "src/sim/parallel_units.h"

namespace bauvm
{

namespace
{

/**
 * Draws raw R-MAT edges, consuming the canonical RNG sequence: log2(n)
 * quadrant draws, then one weight draw iff the graph is weighted and
 * the edge is not a dropped self loop.
 */
class QuadrantDraw
{
  public:
    // The thresholds keep the left-to-right sum (a + b) + c: a
    // reassociated sum can move a threshold by one ulp and so change
    // the generated graph.
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
            // d. Masks, not branches: the quadrant is random, so a
            // branch per bit mispredicts.
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

} // namespace

void
validateRmatParams(const RmatParams &params)
{
    if (params.a < 0.0 || params.b < 0.0 || params.c < 0.0) {
        fatal("RmatParams: negative partition probability "
              "(a=%g b=%g c=%g)",
              params.a, params.b, params.c);
    }
    if (params.a + params.b + params.c >= 1.0) {
        fatal("RmatParams: partition probabilities must satisfy "
              "a + b + c < 1 (got %g)",
              params.a + params.b + params.c);
    }
    if (params.num_edges == 0)
        fatal("RmatParams: num_edges must be non-zero");
    // generateRmat counts and places a row's edges in 32 bits.
    const std::uint64_t most_edges =
        params.undirected ? UINT32_MAX / 2 : UINT32_MAX;
    if (params.num_edges > most_edges) {
        fatal("RmatParams: num_edges %llu makes 2^32 or more directed "
              "edges (the 32-bit in-row edge counters would wrap)",
              static_cast<unsigned long long>(params.num_edges));
    }
    if (params.num_vertices < 2)
        fatal("RmatParams: need at least two vertices");
    if (params.num_vertices > kMaxRmatVertices) {
        fatal("RmatParams: num_vertices %u exceeds the 2^31 limit (the "
              "power-of-two round-up must fit a 32-bit vertex id)",
              params.num_vertices);
    }
}

VertexId
rmatVertexCount(const RmatParams &params)
{
    return std::bit_ceil(params.num_vertices);
}

void
appendRmatEdges(const RmatParams &params, Rng &rng,
                std::uint64_t raw_edges, RmatStreamBlock *out)
{
    const std::uint64_t most = raw_edges * (params.undirected ? 2 : 1);
    out->edges.reserve(out->edges.size() + most);
    if (params.weighted)
        out->weights.reserve(out->weights.size() + most);

    const QuadrantDraw draw(params, rmatVertexCount(params));
    VertexId src = 0, dst = 0;
    std::uint32_t weight = 0;
    for (std::uint64_t e = 0; e < raw_edges; ++e) {
        if (!draw(rng, &src, &dst, &weight))
            continue; // self loop: dropped, no weight drawn
        out->edges.emplace_back(src, dst);
        if (params.weighted)
            out->weights.push_back(weight);
        if (params.undirected) {
            out->edges.emplace_back(dst, src);
            if (params.weighted)
                out->weights.push_back(weight);
        }
    }
}

StreamedRmatGenerator::StreamedRmatGenerator(
    const RmatParams &params, std::uint32_t edges_per_block,
    std::vector<std::uint64_t> *degrees, const BuildThreads &threads)
    : params_(params), edges_per_block_(edges_per_block)
{
    validateRmatParams(params_);
    if (edges_per_block_ == 0)
        fatal("StreamedRmatGenerator: edges_per_block must be > 0");
    num_vertices_ = rmatVertexCount(params_);
    if (degrees != nullptr)
        degrees->assign(num_vertices_, 0);

    // Capture pass: record the generator state at each block boundary
    // and count degrees; no edges are stored. Group g captures blocks
    // [first_block(g), first_block(g + 1)), starting by a jump to its
    // first block. Group 0 counts into @p degrees, the others into
    // their own arrays (reserved here, on the calling thread's heap),
    // summed after the join.
    const QuadrantDraw draw(params_, num_vertices_);
    const std::uint64_t blocks =
        (params_.num_edges + edges_per_block_ - 1) / edges_per_block_;
    block_start_.resize(blocks);
    const std::size_t groups =
        params_.weighted ? 1 : std::min<std::uint64_t>(
                                   threads.chunksFor(params_.num_edges),
                                   blocks);
    const auto first_block = [&](std::size_t g) {
        return blocks * g / groups;
    };
    const std::uint64_t draws_per_edge = std::countr_zero(num_vertices_);
    std::vector<std::vector<std::uint64_t>> partial(groups - 1);
    if (degrees != nullptr)
        for (std::vector<std::uint64_t> &counts : partial)
            counts.reserve(num_vertices_);
    runUnits(groups, groups, [&](std::size_t g) {
        std::vector<std::uint64_t> *deg = degrees;
        if (g != 0 && degrees != nullptr) {
            partial[g - 1].assign(num_vertices_, 0);
            deg = &partial[g - 1];
        }
        Rng rng(params_.seed);
        rng.jump(first_block(g) * edges_per_block_ * draws_per_edge);
        VertexId src = 0, dst = 0;
        std::uint32_t weight = 0;
        for (std::uint64_t b = first_block(g); b < first_block(g + 1);
             ++b) {
            block_start_[b] = rng;
            const std::uint64_t raw = rawEdgesInBlock(b);
            for (std::uint64_t e = 0; e < raw; ++e) {
                if (!draw(rng, &src, &dst, &weight) || deg == nullptr)
                    continue;
                ++(*deg)[src];
                if (params_.undirected)
                    ++(*deg)[dst];
            }
        }
    });
    if (degrees != nullptr)
        for (const std::vector<std::uint64_t> &counts : partial)
            for (VertexId v = 0; v < num_vertices_; ++v)
                (*degrees)[v] += counts[v];
}

std::uint64_t
StreamedRmatGenerator::rawEdgesInBlock(std::uint64_t b) const
{
    if (b >= block_start_.size())
        panic("StreamedRmatGenerator: block %llu out of range",
              static_cast<unsigned long long>(b));
    const std::uint64_t begin = b * edges_per_block_;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + edges_per_block_,
                                params_.num_edges);
    return end - begin;
}

void
StreamedRmatGenerator::block(std::uint64_t b, RmatStreamBlock *out) const
{
    const std::uint64_t raw = rawEdgesInBlock(b); // range-checks b
    out->clear();
    Rng rng = block_start_[b]; // value copy: replay from the boundary
    appendRmatEdges(params_, rng, raw, out);
}

} // namespace bauvm
