#include "src/graph/csr_graph.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/sim/log.h"
#include "src/sim/parallel_units.h"

namespace bauvm
{

CsrGraph
CsrGraph::fromEdges(
    VertexId num_vertices,
    const std::vector<std::pair<VertexId, VertexId>> &edges,
    const std::vector<std::uint32_t> &weights)
{
    if (!weights.empty() && weights.size() != edges.size())
        fatal("CsrGraph: weight count does not match edge count");

    CsrGraph g;
    g.row_offsets_.assign(num_vertices + 1, 0);
    for (const auto &[src, dst] : edges) {
        if (src >= num_vertices || dst >= num_vertices)
            fatal("CsrGraph: edge endpoint out of range");
        ++g.row_offsets_[src + 1];
    }
    std::partial_sum(g.row_offsets_.begin(), g.row_offsets_.end(),
                     g.row_offsets_.begin());

    g.col_indices_.resize(edges.size());
    if (!weights.empty())
        g.weights_.resize(edges.size());
    std::vector<std::uint64_t> cursor(g.row_offsets_.begin(),
                                      g.row_offsets_.end() - 1);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto &[src, dst] = edges[i];
        const std::uint64_t pos = cursor[src]++;
        g.col_indices_[pos] = dst;
        if (!weights.empty())
            g.weights_[pos] = weights[i];
    }
    return g;
}

CsrGraph
CsrGraph::fromCsrArrays(std::vector<std::uint64_t> row_offsets,
                        std::vector<VertexId> col_indices,
                        std::vector<std::uint32_t> weights,
                        std::size_t check_parts)
{
    CsrGraph g;
    g.row_offsets_ = std::move(row_offsets);
    g.col_indices_ = std::move(col_indices);
    g.weights_ = std::move(weights);
    g.validate(check_parts);
    return g;
}

void
CsrGraph::validate(std::size_t parts) const
{
    if (row_offsets_.empty())
        panic("CsrGraph: empty row offsets");
    if (row_offsets_.front() != 0 ||
        row_offsets_.back() != col_indices_.size()) {
        panic("CsrGraph: bad offset bounds");
    }
    for (std::size_t i = 1; i < row_offsets_.size(); ++i) {
        if (row_offsets_[i] < row_offsets_[i - 1])
            panic("CsrGraph: non-monotonic offsets");
    }
    // Each part finds the largest column of its range; the panic is
    // raised here after the join, where the caller's abort capture
    // (thread-local) applies.
    parts = std::max<std::size_t>(parts, 1);
    std::vector<VertexId> part_max(parts, 0);
    const std::uint64_t edges = col_indices_.size();
    runUnits(parts, parts, [&](std::size_t p) {
        const std::uint64_t last = edges * (p + 1) / parts;
        VertexId hi = 0;
        for (std::uint64_t e = edges * p / parts; e < last; ++e)
            hi = std::max(hi, col_indices_[e]);
        part_max[p] = hi;
    });
    if (edges != 0 &&
        *std::max_element(part_max.begin(), part_max.end()) >=
            numVertices())
        panic("CsrGraph: column index out of range");
    if (!weights_.empty() && weights_.size() != col_indices_.size())
        panic("CsrGraph: weight array size mismatch");
}

} // namespace bauvm
