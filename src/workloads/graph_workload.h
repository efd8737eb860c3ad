/**
 * @file
 * Shared infrastructure for the GraphBIG-style graph workloads: scale
 * presets, CSR device arrays, and address-building helpers used by the
 * warp programs.
 */

#ifndef BAUVM_WORKLOADS_GRAPH_WORKLOAD_H_
#define BAUVM_WORKLOADS_GRAPH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/csr_graph.h"
#include "src/graph/generator.h"
#include "src/workloads/device_array.h"
#include "src/workloads/workload.h"

namespace bauvm
{

/** Graph size per scale preset. */
struct GraphScale {
    VertexId vertices;
    std::uint64_t edges;       //!< undirected edge count before doubling
    std::uint32_t pr_iterations;
};

/** Maps a WorkloadScale to concrete graph dimensions. */
GraphScale graphScale(WorkloadScale scale);

/** Marker for "not yet discovered/colored/finished" in u32 arrays. */
constexpr std::uint32_t kInf = 0xffffffffu;

/** Threads per block used by every graph kernel. */
constexpr std::uint32_t kGraphTpb = 256;

/**
 * Base class holding the CSR structure in unified memory.
 *
 * Register pressure (52-64 regs/thread at 256 threads/block) is chosen
 * so that, as in the paper, occupancy is simultaneously thread- and
 * register-limited and baseline Virtual Thread has no spare capacity
 * for a free extra block.
 */
class GraphWorkloadBase : public Workload
{
  public:
    GraphWorkloadBase() = default;
    // Views may point into storage a subclass owns (TC's forward
    // adjacency); a copy would read the original's.
    GraphWorkloadBase(const GraphWorkloadBase &) = delete;
    GraphWorkloadBase &operator=(const GraphWorkloadBase &) = delete;

    const CsrGraph &graph() const { return *graph_; }
    VertexId source() const { return source_; }

  protected:
    /**
     * Generates the R-MAT input and uploads CSR arrays.
     * @param edge_factor scales the edge count of the preset (coloring
     *        uses a sparser graph: its round count tracks the core
     *        density, and GraphBIG's GC inputs are sparser too).
     */
    void buildGraph(WorkloadScale scale, std::uint64_t seed,
                    bool weighted, double edge_factor = 1.0);

    /** Number of blocks for a one-thread-per-vertex kernel. */
    std::uint32_t
    vertexBlocks() const
    {
        return (graph_->numVertices() + kGraphTpb - 1) / kGraphTpb;
    }

    /** Number of blocks for a one-warp-per-vertex kernel. */
    std::uint32_t
    warpPerVertexBlocks(std::uint32_t warp_size = 32) const
    {
        const std::uint32_t warps_per_block = kGraphTpb / warp_size;
        return (graph_->numVertices() + warps_per_block - 1) /
               warps_per_block;
    }

    // Immutable after build; shared across sweep cells of the same
    // (workload, seed) via GraphBuildCache. Per-run state belongs in
    // DeviceArrays; the CSR views below read the graph in place.
    std::shared_ptr<const CsrGraph> graph_;
    VertexId source_ = 0;
    // GraphBIG stores 64-bit vertex ids and weights, so the simulated
    // elements are 8 bytes wide (this also gives the workloads their
    // paper-like footprints); the host values are the cached graph's.
    DeviceView<std::uint64_t> d_row_;
    DeviceView<std::uint64_t, VertexId> d_col_;
    DeviceView<std::uint64_t, std::uint32_t> d_weight_; //!< weighted only
};

} // namespace bauvm

#endif // BAUVM_WORKLOADS_GRAPH_WORKLOAD_H_
