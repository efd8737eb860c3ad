#include "src/graph/generator.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/rmat_draw.h"
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

/** Raw draws per block. Drawing a block into buffers that stay in
 *  cache, then counting or scattering it, keeps the random stores of
 *  a block in flight together; drawn and stored one edge at a time,
 *  the ~20 RNG steps between stores starve them of memory
 *  parallelism (the Large scatter took twice as long). */
constexpr std::uint64_t kBlockEdges = 4096;

/** Draws @p raw_edges raw edges from @p rng a block at a time, and
 *  hands @p use each block's surviving edges, in draw order, as
 *  (src, dst, weight, count) arrays. */
template <typename Use>
void
drawBlocks(const RmatDraw &draw, Rng &rng, std::uint64_t raw_edges,
           Use &&use)
{
    VertexId src[kBlockEdges], dst[kBlockEdges];
    std::uint32_t weight[kBlockEdges];
    while (raw_edges > 0) {
        const std::uint64_t take = std::min(raw_edges, kBlockEdges);
        std::size_t kept = 0;
        for (std::uint64_t e = 0; e < take; ++e)
            kept += draw(rng, &src[kept], &dst[kept], &weight[kept]);
        use(src, dst, weight, kept);
        raw_edges -= take;
    }
}

/** The relabelByDegree order as an old-id -> new-id map over
 *  per-vertex out-degrees: descending degree, ties in old-id order. */
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
    // buildRmatCsr counts and places a row's edges in 32 bits.
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

CsrGraph
buildRmatCsr(const RmatParams &params, RmatOrder order,
             const BuildThreads &threads)
{
    validateRmatParams(params);
    const VertexId n = rmatVertexCount(params);
    const RmatDraw draw(params);
    // Each chunk's row counters take 4n bytes. Keeping n raw edges or
    // more in every chunk holds them to the bytes of the columns the
    // chunk writes (half of them if undirected), however many cores
    // the host has.
    const std::size_t chunks = std::min<std::uint64_t>(
        threads.chunksFor(params.num_edges),
        std::max<std::uint64_t>(params.num_edges / n, 1));
    const auto first_edge = [&](std::size_t c) {
        return params.num_edges * c / chunks;
    };
    const auto raw_edges = [&](std::size_t c) {
        return first_edge(c + 1) - first_edge(c);
    };

    // Pass 1: each chunk draws its edges and counts them per row, at
    // both ends if the graph is undirected, keeping no draw. The
    // calling thread reserves the counters (without touching them), so
    // the blocks come from its heap, not from per-thread malloc arenas.
    std::vector<std::vector<std::uint32_t>> next(chunks);
    for (std::vector<std::uint32_t> &counts : next)
        counts.reserve(n);
    const auto count = [&](std::size_t c, Rng &rng) {
        std::vector<std::uint32_t> &counts = next[c];
        counts.assign(n, 0);
        drawBlocks(draw, rng, raw_edges(c),
                   [&](const VertexId *src, const VertexId *dst,
                       const std::uint32_t *, std::size_t kept) {
                       for (std::size_t i = 0; i < kept; ++i) {
                           ++counts[src[i]];
                           if (params.undirected)
                               ++counts[dst[i]];
                       }
                   });
    };
    std::vector<Rng> start(chunks, Rng(params.seed));
    if (params.weighted) {
        // A weighted edge draws its weight only when it is not a self
        // loop, so where a chunk starts in the draw sequence depends
        // on the chunks before it: pass 1 runs serially and records
        // each chunk's start. Pass 2 still runs the chunks in parallel.
        Rng rng(params.seed);
        for (std::size_t c = 0; c < chunks; ++c) {
            start[c] = rng;
            count(c, rng);
        }
    } else {
        // An unweighted raw edge takes exactly log2(n) draws, so chunk
        // c, which starts at raw edge e, starts e * log2(n) draws into
        // the sequence: one jump.
        const std::uint64_t draws_per_edge = std::countr_zero(n);
        runUnits(chunks, chunks, [&](std::size_t c) {
            start[c].jump(first_edge(c) * draws_per_edge);
            Rng rng = start[c];
            count(c, rng);
        });
    }

    // The row lengths give the new ids and the row offsets. Then each
    // chunk's counts become the position of its next edge in each row:
    // chunk c's edges of a row land after those of chunks 0..c-1, in
    // draw order, the order CsrGraph::fromEdges and relabelByDegree
    // keep. The graph has fewer than 2^32 edges (validateRmatParams),
    // so 32-bit positions cannot wrap.
    std::vector<VertexId> new_id;
    std::vector<std::uint64_t> row(static_cast<std::size_t>(n) + 1, 0);
    {
        std::vector<std::uint64_t> degree(n, 0);
        for (const std::vector<std::uint32_t> &counts : next)
            for (VertexId v = 0; v < n; ++v)
                degree[v] += counts[v];
        if (order == RmatOrder::ByDegree) {
            new_id = degreeDescendingIds(degree);
        } else {
            new_id.resize(n);
            std::iota(new_id.begin(), new_id.end(), VertexId{0});
        }
        for (VertexId v = 0; v < n; ++v)
            row[new_id[v] + 1] = degree[v];
    }
    std::partial_sum(row.begin(), row.end(), row.begin());
    for (VertexId v = 0; v < n; ++v) {
        auto at = static_cast<std::uint32_t>(row[new_id[v]]);
        for (std::vector<std::uint32_t> &counts : next) {
            const std::uint32_t k = counts[v];
            counts[v] = at;
            at += k;
        }
    }

    // Pass 2: each chunk draws its edges again and writes each draw
    // (src, dst) as the forward edge, then the reverse edge (dst, src)
    // if undirected, the order of the doubled edge list. A weight goes
    // to both.
    std::vector<VertexId> cols(row[n]);
    std::vector<std::uint32_t> weights(params.weighted ? row[n] : 0);
    runUnits(chunks, chunks, [&](std::size_t c) {
        std::vector<std::uint32_t> &at = next[c];
        Rng rng = start[c];
        drawBlocks(draw, rng, raw_edges(c),
                   [&](const VertexId *src, const VertexId *dst,
                       const std::uint32_t *weight, std::size_t kept) {
                       for (std::size_t i = 0; i < kept; ++i) {
                           const std::uint32_t fwd = at[src[i]]++;
                           cols[fwd] = new_id[dst[i]];
                           if (params.weighted)
                               weights[fwd] = weight[i];
                           if (params.undirected) {
                               const std::uint32_t rev = at[dst[i]]++;
                               cols[rev] = new_id[src[i]];
                               if (params.weighted)
                                   weights[rev] = weight[i];
                           }
                       }
                   });
    });
    return CsrGraph::fromCsrArrays(std::move(row), std::move(cols),
                                   std::move(weights));
}

CsrGraph
generateRmat(const RmatParams &params, const BuildThreads &threads)
{
    return buildRmatCsr(params, RmatOrder::Raw, threads);
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
