#include "tests/oracles/legacy_rmat_stream.h"

#include <algorithm>

#include "src/sim/log.h"

namespace bauvm
{

void
appendRmatEdges(const RmatParams &params, Rng &rng,
                std::uint64_t raw_edges, RmatStreamBlock *out)
{
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

StreamedRmatGenerator::StreamedRmatGenerator(const RmatParams &params,
                                             std::uint32_t edges_per_block)
    : params_(params), edges_per_block_(edges_per_block)
{
    validateRmatParams(params_);
    if (edges_per_block_ == 0)
        fatal("StreamedRmatGenerator: edges_per_block must be > 0");

    // Capture pass: record the generator state at each block boundary;
    // no edges are stored.
    const QuadrantDraw draw(params_, rmatVertexCount(params_));
    const std::uint64_t blocks =
        (params_.num_edges + edges_per_block_ - 1) / edges_per_block_;
    Rng rng(params_.seed);
    VertexId src = 0, dst = 0;
    std::uint32_t weight = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        block_start_.push_back(rng);
        for (std::uint64_t e = rawEdgesInBlock(b); e > 0; --e)
            draw(rng, &src, &dst, &weight);
    }
}

std::uint64_t
StreamedRmatGenerator::rawEdgesInBlock(std::uint64_t b) const
{
    const std::uint64_t begin = b * edges_per_block_;
    if (begin >= params_.num_edges)
        panic("StreamedRmatGenerator: block %llu out of range",
              static_cast<unsigned long long>(b));
    return std::min<std::uint64_t>(edges_per_block_,
                                   params_.num_edges - begin);
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
