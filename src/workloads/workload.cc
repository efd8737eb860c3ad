#include "src/workloads/workload.h"

#include <numeric>
#include <span>

#include "src/graph/generator.h"
#include "src/graph/graph_cache.h"
#include "src/graph/stream/csr_stream_builder.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{

GraphScale
graphScale(WorkloadScale scale)
{
    switch (scale) {
      case WorkloadScale::Tiny:
        return GraphScale{4096, 32768, 4};
      case WorkloadScale::Small:
        return GraphScale{32768, 524288, 3};
      case WorkloadScale::Medium:
        return GraphScale{65536, 1 << 20, 2};
      case WorkloadScale::Large:
        return GraphScale{262144, 4 << 20, 2};
      case WorkloadScale::Huge:
        // Paper-scale tier: ~2M vertices, ~21M raw edges (~42M
        // directed after undirected doubling) put the shared CSR at
        // 349 MB+ of unified memory — the paper's largest real
        // dataset regime. Builds at this tier go through the
        // external-memory path (src/graph/stream), never holding the
        // edge list in host RAM.
        return GraphScale{2097152, 20971520, 2};
    }
    fatal("graphScale: bad scale");
}

namespace
{

/** Generates the R-MAT input and degree-relabels it, choosing the
 *  in-core or external-memory path by edge count (both paths are
 *  bit-identical; the streamed one bounds host RAM). */
CsrGraph
buildRelabeledRmat(const RmatParams &params, bool streamed)
{
    if (streamed) {
        const GraphStreamConfig &cfg = graphStreamConfig();
        StreamCsrOptions opt;
        opt.edges_per_block = cfg.edges_per_block;
        opt.scratch_bytes = cfg.scratch_bytes;
        opt.relabel_by_degree = true;
        return buildCsrStreamed(params, opt);
    }
    return relabelByDegree(generateRmat(params));
}

} // namespace

void
GraphWorkloadBase::buildGraph(WorkloadScale scale, std::uint64_t seed,
                              bool weighted, double edge_factor)
{
    const GraphScale gs = graphScale(scale);
    RmatParams params;
    params.num_vertices = gs.vertices;
    params.num_edges = static_cast<std::uint64_t>(
        static_cast<double>(gs.edges) * edge_factor);
    params.undirected = true;
    params.weighted = weighted;
    params.seed = seed;

    // Memoized across sweep cells: every policy cell of a workload
    // uses the same (workload, seed)-derived seed by design, so the
    // generated+relabeled graph is identical and shareable.
    const GraphStreamConfig &stream_cfg = graphStreamConfig();
    const bool streamed =
        params.num_edges >= stream_cfg.stream_threshold_edges;
    const GraphBuildCache::Key key{
        params.num_vertices,
        params.num_edges,
        seed,
        weighted,
        streamed,
        streamed ? stream_cfg.edges_per_block : 0};
    graph_ = GraphBuildCache::instance().getOrBuild(
        key, [&] { return buildRelabeledRmat(params, streamed); });

    d_row_ = DeviceView<std::uint64_t>(alloc_, graph_->rowOffsets(),
                                       "row_offsets");
    d_col_ = DeviceView<std::uint64_t, VertexId>(
        alloc_, graph_->colIndices(), "col_indices");
    if (weighted) {
        d_weight_ = DeviceView<std::uint64_t, std::uint32_t>(
            alloc_, graph_->weights(), "edge_weights");
    }

    // Start traversals from the highest-degree vertex so they reach
    // most of the graph.
    VertexId best = 0;
    for (VertexId v = 1; v < graph_->numVertices(); ++v) {
        if (graph_->degree(v) > graph_->degree(best))
            best = v;
    }
    source_ = best;
}

void
runFunctional(
    Workload &workload, std::uint64_t page_bytes,
    const std::function<void(std::uint32_t, PageNum)> &page_trace)
{
    KernelInfo kernel;
    while (workload.nextKernel(&kernel)) {
        const std::uint32_t warps_per_block = kernel.warpsPerBlock(32);
        for (std::uint32_t b = 0; b < kernel.num_blocks; ++b) {
            // Round-robin the block's warps at op granularity so
            // barriers and intra-block interleaving behave like SIMT.
            std::vector<WarpProgram> warps;
            std::vector<bool> alive(warps_per_block, true);
            warps.reserve(warps_per_block);
            for (std::uint32_t w = 0; w < warps_per_block; ++w) {
                WarpCtx ctx;
                ctx.block_id = b;
                ctx.warp_in_block = w;
                ctx.warp_size = 32;
                ctx.threads_per_block = kernel.threads_per_block;
                ctx.num_blocks = kernel.num_blocks;
                warps.push_back(kernel.make_program(ctx));
            }
            bool progress = true;
            while (progress) {
                progress = false;
                for (std::uint32_t w = 0; w < warps_per_block; ++w) {
                    if (!alive[w])
                        continue;
                    if (!warps[w].advance()) {
                        alive[w] = false;
                        continue;
                    }
                    progress = true;
                    if (page_trace) {
                        const WarpOp &op = warps[w].current();
                        for (VAddr a : op.addrs)
                            page_trace(b, a / page_bytes);
                    }
                }
            }
        }
    }
}

} // namespace bauvm
