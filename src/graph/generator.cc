#include "src/graph/generator.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/stream/rmat_stream.h"
#include "src/sim/log.h"
#include "src/sim/parallel_units.h"

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

std::size_t
BuildThreads::chunksFor(std::uint64_t edges) const
{
    const std::uint64_t workers =
        threads != 0 ? threads
                     : std::max(1u, std::thread::hardware_concurrency());
    const std::uint64_t by_size =
        edges / std::max<std::uint64_t>(min_chunk_edges, 1);
    return static_cast<std::size_t>(
        std::clamp<std::uint64_t>(by_size, 1, workers));
}

CsrGraph
generateRmat(const RmatParams &params, const BuildThreads &threads)
{
    validateRmatParams(params);
    const VertexId n = rmatVertexCount(params);
    // A weighted edge draws its weight only when it is not a self
    // loop, so where a later edge starts in the draw sequence depends
    // on the edges before it: a weighted graph draws in one chunk.
    // Each chunk's row counters take 4n bytes. Keeping n raw edges or
    // more in every chunk holds them to at most half of the chunk's
    // own edge data, however many cores the host has.
    const std::size_t chunks =
        params.weighted
            ? 1
            : std::min<std::uint64_t>(
                  threads.chunksFor(params.num_edges),
                  std::max<std::uint64_t>(params.num_edges / n, 1));

    // The graph's own arrays are reserved before the draw buffers, at
    // their most (every draw survives), so the draw buffers lie above
    // them in the heap: freed, they leave one block at its top that
    // relabelByDegree's arrays reuse. Reserved after them, the freed
    // draws would leave a hole too small for the relabel's columns: a
    // second Large build in one process then peaks at 103 MiB, not 72.
    const std::uint64_t most_edges =
        params.num_edges * (params.undirected ? 2 : 1);
    std::vector<std::uint64_t> row(static_cast<std::size_t>(n) + 1, 0);
    std::vector<VertexId> cols;
    std::vector<std::uint32_t> weights;
    cols.reserve(most_edges);
    weights.reserve(params.weighted ? most_edges : 0);

    // An unweighted raw edge takes exactly log2(n) draws, so chunk c,
    // which starts at raw edge e, starts e * log2(n) draws into the
    // sequence: one jump. Each chunk keeps only its surviving raw
    // draws (and one weight per draw) and counts them per row, at both
    // ends if the graph is undirected, on its own thread. The calling
    // thread reserves every buffer (without touching it), so the big
    // blocks come from its heap and go back there, not to per-thread
    // malloc arenas.
    RmatParams draws = params;
    draws.undirected = false; // reverse edges are written at scatter
    const std::uint64_t draws_per_edge = std::countr_zero(n);
    const auto first_edge = [&](std::size_t c) {
        return params.num_edges * c / chunks;
    };
    std::vector<RmatStreamBlock> chunk(chunks);
    std::vector<std::vector<std::uint32_t>> in_row(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::uint64_t raw = first_edge(c + 1) - first_edge(c);
        chunk[c].edges.reserve(raw);
        chunk[c].weights.reserve(params.weighted ? raw : 0);
        in_row[c].reserve(n);
    }
    runUnits(chunks, chunks, [&](std::size_t c) {
        Rng rng(params.seed);
        rng.jump(first_edge(c) * draws_per_edge);
        appendRmatEdges(draws, rng, first_edge(c + 1) - first_edge(c),
                        &chunk[c]);
        std::vector<std::uint32_t> &counts = in_row[c];
        counts.assign(n, 0);
        for (const auto &[src, dst] : chunk[c].edges) {
            ++counts[src];
            if (params.undirected)
                ++counts[dst];
        }
    });

    // The row lengths, and each chunk's counts turned in place into the
    // offset of its first edge within the row. Chunk c's edges of a row
    // then land after those of chunks 0..c-1, in draw order: the stable
    // order CsrGraph::fromEdges keeps. A row holds fewer than 2^32
    // edges (validateRmatParams), so the 32-bit offsets cannot wrap.
    for (VertexId v = 0; v < n; ++v) {
        std::uint32_t at = 0;
        for (std::vector<std::uint32_t> &counts : in_row) {
            const std::uint32_t k = counts[v];
            counts[v] = at;
            at += k;
        }
        row[v + 1] = row[v] + at;
    }

    // Each draw (src, dst) writes its forward edge, then its reverse
    // edge (dst, src): the order of the doubled list appendRmatEdges
    // builds for an undirected graph. A weight goes to both.
    cols.resize(row[n]);
    weights.resize(params.weighted ? row[n] : 0);
    runUnits(chunks, chunks, [&](std::size_t c) {
        std::vector<std::uint32_t> &at = in_row[c];
        const RmatStreamBlock &drawn = chunk[c];
        for (std::size_t i = 0; i < drawn.edges.size(); ++i) {
            const auto [src, dst] = drawn.edges[i];
            const std::uint64_t fwd = row[src] + at[src]++;
            cols[fwd] = dst;
            if (params.weighted)
                weights[fwd] = drawn.weights[i];
            if (params.undirected) {
                const std::uint64_t rev = row[dst] + at[dst]++;
                cols[rev] = src;
                if (params.weighted)
                    weights[rev] = drawn.weights[i];
            }
        }
    });
    return CsrGraph::fromCsrArrays(std::move(row), std::move(cols),
                                   std::move(weights));
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
relabelByDegree(const CsrGraph &raw, const BuildThreads &threads)
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

    // Each old-vertex range, cut to hold about the same number of
    // edges, fills its own new rows.
    std::vector<VertexId> cols(raw.numEdges());
    std::vector<std::uint32_t> weights(raw.weighted() ? raw.numEdges()
                                                      : 0);
    const std::size_t parts = threads.chunksFor(raw.numEdges());
    const std::vector<std::uint64_t> &raw_row = raw.rowOffsets();
    const auto first_vertex = [&](std::size_t p) {
        if (p == parts)
            return n;
        return static_cast<VertexId>(
            std::lower_bound(raw_row.begin(), raw_row.end() - 1,
                             raw.numEdges() * p / parts) -
            raw_row.begin());
    };
    runUnits(parts, parts, [&](std::size_t p) {
        const VertexId hi = first_vertex(p + 1);
        for (VertexId v = first_vertex(p); v < hi; ++v) {
            const std::uint64_t at = row[new_id[v]];
            const auto nbrs = raw.neighbors(v);
            for (std::size_t i = 0; i < nbrs.size(); ++i)
                cols[at + i] = new_id[nbrs[i]];
            if (raw.weighted()) {
                const auto ew = raw.edgeWeights(v);
                std::copy(ew.begin(), ew.end(), weights.begin() + at);
            }
        }
    });
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
