#include "src/graph/generator.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/stream/rmat_stream.h"
#include "src/sim/log.h"

namespace bauvm
{

namespace
{

void
appendEdge(std::vector<std::pair<VertexId, VertexId>> &edges,
           std::vector<std::uint32_t> &weights, bool weighted,
           bool undirected, VertexId src, VertexId dst, Rng &rng)
{
    if (src == dst)
        return; // drop self loops
    edges.emplace_back(src, dst);
    std::uint32_t w = 0;
    if (weighted) {
        w = static_cast<std::uint32_t>(rng.nextRange(1, 64));
        weights.push_back(w);
    }
    if (undirected) {
        edges.emplace_back(dst, src);
        if (weighted)
            weights.push_back(w);
    }
}

} // namespace

CsrGraph
generateRmat(const RmatParams &params)
{
    // One sequential pass over the canonical draw sequence, straight
    // into the edge list. StreamedRmatGenerator replays the same
    // sequence block by block from captured RNG states.
    validateRmatParams(params);
    RmatStreamBlock all;
    Rng rng(params.seed);
    appendRmatEdges(params, rng, params.num_edges, &all);
    return CsrGraph::fromEdges(rmatVertexCount(params), all.edges,
                               all.weights);
}

std::vector<VertexId>
degreeDescendingIds(std::span<const std::uint64_t> degree)
{
    const std::uint64_t max_degree =
        degree.empty() ? 0 : *std::max_element(degree.begin(), degree.end());
    // Counting sort, buckets from the highest degree down; a bucket
    // hands out ids in old-id order, so ties keep old-id order.
    std::vector<VertexId> next(max_degree + 1, 0);
    for (const std::uint64_t d : degree)
        ++next[max_degree - d];
    std::exclusive_scan(next.begin(), next.end(), next.begin(),
                        VertexId{0});
    std::vector<VertexId> new_id(degree.size());
    for (std::size_t v = 0; v < degree.size(); ++v)
        new_id[v] = next[max_degree - degree[v]]++;
    return new_id;
}

CsrGraph
relabelByDegree(const CsrGraph &raw)
{
    const VertexId n = raw.numVertices();
    std::vector<std::uint64_t> degree(n);
    for (VertexId v = 0; v < n; ++v)
        degree[v] = raw.degree(v);
    const std::vector<VertexId> new_id = degreeDescendingIds(degree);

    // New row new_id[v] holds old vertex v's neighbours, mapped, in
    // their original order: exactly the row CsrGraph::fromEdges builds
    // from the relabeled edge list in old-vertex order.
    std::vector<std::uint64_t> row(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v)
        row[new_id[v] + 1] = degree[v];
    std::partial_sum(row.begin(), row.end(), row.begin());

    std::vector<VertexId> cols(raw.numEdges());
    std::vector<std::uint32_t> weights(raw.weighted() ? raw.numEdges()
                                                      : 0);
    for (VertexId v = 0; v < n; ++v) {
        const std::uint64_t at = row[new_id[v]];
        const auto nbrs = raw.neighbors(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i)
            cols[at + i] = new_id[nbrs[i]];
        if (raw.weighted()) {
            const auto ew = raw.edgeWeights(v);
            std::copy(ew.begin(), ew.end(), weights.begin() + at);
        }
    }
    return CsrGraph::fromCsrArrays(std::move(row), std::move(cols),
                                   std::move(weights));
}

CsrGraph
generateUniform(VertexId num_vertices, std::uint64_t num_edges,
                bool undirected, bool weighted, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<VertexId, VertexId>> edges;
    std::vector<std::uint32_t> weights;
    edges.reserve(num_edges * (undirected ? 2 : 1));
    for (std::uint64_t e = 0; e < num_edges; ++e) {
        const auto src =
            static_cast<VertexId>(rng.nextBelow(num_vertices));
        const auto dst =
            static_cast<VertexId>(rng.nextBelow(num_vertices));
        appendEdge(edges, weights, weighted, undirected, src, dst, rng);
    }
    return CsrGraph::fromEdges(num_vertices, edges, weights);
}

CsrGraph
generateGrid(VertexId side, bool weighted, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<VertexId, VertexId>> edges;
    std::vector<std::uint32_t> weights;
    const VertexId n = side * side;
    for (VertexId y = 0; y < side; ++y) {
        for (VertexId x = 0; x < side; ++x) {
            const VertexId v = y * side + x;
            if (x + 1 < side)
                appendEdge(edges, weights, weighted, true, v, v + 1, rng);
            if (y + 1 < side)
                appendEdge(edges, weights, weighted, true, v, v + side,
                           rng);
        }
    }
    return CsrGraph::fromEdges(n, edges, weights);
}

} // namespace bauvm
