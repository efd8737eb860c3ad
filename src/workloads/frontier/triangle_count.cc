/**
 * @file
 * Triangle counting over the degree-ordered forward orientation: each
 * undirected edge is kept once, pointing at its higher-degree (lower
 * relabeled id) endpoint, which bounds forward degrees near sqrt(E)
 * and keeps hub enumeration tractable. One warp per vertex u
 * intersects, for every forward neighbour a, the already-streamed
 * prefix of fwd(u) with fwd(a); each triangle is counted exactly once,
 * at its largest-id corner. Per-warp work tracks the product of
 * neighbour list lengths — wildly skewed, phase-free but
 * data-dependent irregularity.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "src/graph/reference_algorithms.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_factories.h"

namespace bauvm
{
namespace
{

class TriangleCountWorkload : public GraphWorkloadBase
{
  public:
    std::string name() const override { return "TC"; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, false);
        fwd_ = reference::buildForwardAdjacency(*graph_);
        const VertexId v = graph_->numVertices();
        const std::uint64_t m = fwd_.col.size();
        d_fwd_row_ =
            DeviceView<std::uint64_t>(alloc_, fwd_.row, "tc_fwd_row");
        // Zero-length allocations are fatal; a graph this sparse has
        // no triangles either way, so reserve a 1-element range.
        d_fwd_col_ = DeviceView<std::uint64_t, VertexId>(
            alloc_, fwd_.col, std::max<std::uint64_t>(m, 1),
            "tc_fwd_col");
        d_count_ = DeviceArray<std::uint64_t>(alloc_, v, "tc_count");
        d_count_.fill(0);
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (done_)
            return false;
        done_ = true;
        TriangleCountWorkload *self = this;
        out->name = "TC-count";
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 56;
        out->num_blocks = warpPerVertexBlocks();
        out->make_program = [self](WarpCtx ctx) {
            return countWarp(ctx, self);
        };
        return true;
    }

    void
    validate() const override
    {
        const auto ref = reference::triangleCounts(*graph_);
        for (VertexId v = 0; v < graph_->numVertices(); ++v) {
            if (d_count_[v] != ref[v]) {
                panic("TC: triangle count mismatch at vertex %u "
                      "(got %llu want %llu)",
                      v,
                      static_cast<unsigned long long>(d_count_[v]),
                      static_cast<unsigned long long>(ref[v]));
            }
        }
    }

    /** One warp per vertex u: stream fwd(u), then for each forward
     *  neighbour merge its forward list against the current prefix. */
    static WarpProgram
    countWarp(WarpCtx ctx, TriangleCountWorkload *self)
    {
        const std::uint32_t warps_per_block =
            ctx.threads_per_block / ctx.warp_size;
        const VertexId u =
            ctx.block_id * warps_per_block + ctx.warp_in_block;
        if (u >= self->graph_->numVertices())
            co_return;

        co_yield loadOf(self->d_fwd_row_.addr(u),
                        self->d_fwd_row_.addr(u + 1));
        const std::uint64_t begin = self->fwd_.row[u];
        const std::uint64_t end = self->fwd_.row[u + 1];
        if (end - begin < 2) {
            LaneVec za;
            za.push_back(self->d_count_.addr(u));
            co_yield WarpOp::store(std::move(za));
            co_return;
        }

        // Stream u's own forward list once (coalesced chunks).
        for (std::uint64_t e = begin; e < end; e += ctx.warp_size) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(ctx.warp_size, end - e);
            LaneVec ea;
            for (std::uint64_t i = 0; i < chunk; ++i)
                ea.push_back(self->d_fwd_col_.addr(e + i));
            co_yield WarpOp::load(std::move(ea));
        }

        std::uint64_t triangles = 0;
        const VertexId *ucol = self->fwd_.col.data();
        for (std::uint64_t j = begin + 1; j < end; ++j) {
            const VertexId a = ucol[j];
            co_yield loadOf(self->d_fwd_row_.addr(a),
                            self->d_fwd_row_.addr(a + 1));
            const std::uint64_t abegin = self->fwd_.row[a];
            const std::uint64_t aend = self->fwd_.row[a + 1];
            // Merge fwd(a) against fwd(u)[begin..j): both ascending.
            std::uint64_t p = begin;
            for (std::uint64_t e = abegin; e < aend;
                 e += ctx.warp_size) {
                const std::uint64_t chunk =
                    std::min<std::uint64_t>(ctx.warp_size, aend - e);
                LaneVec ea;
                for (std::uint64_t i = 0; i < chunk; ++i)
                    ea.push_back(self->d_fwd_col_.addr(e + i));
                co_yield WarpOp::load(std::move(ea));
                for (std::uint64_t i = 0; i < chunk; ++i) {
                    const VertexId x = self->fwd_.col[e + i];
                    while (p < j && ucol[p] < x)
                        ++p;
                    if (p < j && ucol[p] == x)
                        ++triangles;
                }
            }
        }
        self->d_count_[u] = triangles;
        LaneVec sa;
        sa.push_back(self->d_count_.addr(u));
        co_yield WarpOp::store(std::move(sa));
    }

  private:
    reference::ForwardAdjacency fwd_;
    DeviceView<std::uint64_t> d_fwd_row_;
    DeviceView<std::uint64_t, VertexId> d_fwd_col_;
    DeviceArray<std::uint64_t> d_count_;
    bool done_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeTriangleCountWorkload()
{
    return std::make_unique<TriangleCountWorkload>();
}

} // namespace bauvm
