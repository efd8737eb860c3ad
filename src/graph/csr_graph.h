/**
 * @file
 * Compressed-sparse-row graph container used by every workload.
 */

#ifndef BAUVM_GRAPH_CSR_GRAPH_H_
#define BAUVM_GRAPH_CSR_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bauvm
{

/** Vertex identifier. */
using VertexId = std::uint32_t;

/**
 * Directed graph in CSR form (out-edges). Weights are optional and
 * parallel to the column-index array.
 */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Builds a CSR graph from an edge list.
     *
     * @param num_vertices  vertex count; all endpoints must be smaller.
     * @param edges         (src, dst) pairs; duplicates are kept.
     * @param weights       per-edge weights; empty for unweighted.
     */
    static CsrGraph fromEdges(
        VertexId num_vertices,
        const std::vector<std::pair<VertexId, VertexId>> &edges,
        const std::vector<std::uint32_t> &weights = {});

    /**
     * Adopts pre-built CSR arrays (validated, then moved in). Used by
     * the R-MAT builder (buildRmatCsr), which assembles the arrays
     * without ever holding an edge list, and passes its build's part
     * count as @p check_parts (see validate()).
     */
    static CsrGraph fromCsrArrays(std::vector<std::uint64_t> row_offsets,
                                  std::vector<VertexId> col_indices,
                                  std::vector<std::uint32_t> weights = {},
                                  std::size_t check_parts = 1);

    VertexId numVertices() const
    {
        return static_cast<VertexId>(row_offsets_.size()) - 1;
    }
    std::uint64_t numEdges() const { return col_indices_.size(); }
    bool weighted() const { return !weights_.empty(); }

    std::uint64_t degree(VertexId v) const
    {
        return row_offsets_[v + 1] - row_offsets_[v];
    }

    std::span<const VertexId> neighbors(VertexId v) const
    {
        return {col_indices_.data() + row_offsets_[v],
                col_indices_.data() + row_offsets_[v + 1]};
    }

    std::span<const std::uint32_t> edgeWeights(VertexId v) const
    {
        return {weights_.data() + row_offsets_[v],
                weights_.data() + row_offsets_[v + 1]};
    }

    const std::vector<std::uint64_t> &rowOffsets() const
    {
        return row_offsets_;
    }
    const std::vector<VertexId> &colIndices() const
    {
        return col_indices_;
    }
    const std::vector<std::uint32_t> &weights() const { return weights_; }

    /**
     * Structural sanity check; calls panic() on inconsistency, always
     * from the calling thread. The column check runs as @p parts
     * contiguous ranges on as many threads (1 = serial).
     */
    void validate(std::size_t parts = 1) const;

  private:
    std::vector<std::uint64_t> row_offsets_; //!< size V+1
    std::vector<VertexId> col_indices_;      //!< size E
    std::vector<std::uint32_t> weights_;     //!< size E or 0
};

} // namespace bauvm

#endif // BAUVM_GRAPH_CSR_GRAPH_H_
