/**
 * @file
 * K-truss decomposition (k = 4) by round-synchronous peeling over the
 * degree-ordered forward edge list (the TC orientation): each round
 * runs a support kernel — warp per vertex, re-counting for every
 * still-alive edge the triangles it closes with two other alive edges
 * — then a filter kernel — thread per edge, killing edges with
 * support < k - 2 and re-zeroing supports for the next round. Peeling
 * cascades: every removal can drop a neighbour edge below threshold,
 * so the alive set (and with it the support kernel's whole access
 * pattern) shrinks round by round until a fixed point.
 */

#include <algorithm>
#include <string>

#include "src/graph/reference_algorithms.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_factories.h"

namespace bauvm
{
namespace
{

constexpr std::uint32_t kTrussK = 4;

class KtrussWorkload : public GraphWorkloadBase
{
  public:
    std::string name() const override { return "KTRUSS"; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, false);
        fwd_ = reference::buildForwardAdjacency(*graph_);
        const std::uint64_t m = fwd_.col.size();
        edges_ = m;
        d_fwd_row_ = DeviceView<std::uint64_t>(alloc_, fwd_.row,
                                               "ktruss_fwd_row");
        d_fwd_col_ = DeviceView<std::uint64_t, VertexId>(
            alloc_, fwd_.col, std::max<std::uint64_t>(m, 1),
            "ktruss_fwd_col");
        d_alive_ = DeviceArray<std::uint32_t>(
            alloc_, std::max<std::uint64_t>(m, 1), "ktruss_alive");
        d_alive_.fill(1);
        d_support_ = DeviceArray<std::uint32_t>(
            alloc_, std::max<std::uint64_t>(m, 1), "ktruss_support");
        d_support_.fill(0);
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        KtrussWorkload *self = this;
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 56;
        if (!filter_phase_) {
            if (round_ > 0 && !changed_)
                return false; // previous filter removed nothing
            if (edges_ == 0)
                return false;
            out->name =
                name() + "-support-r" + std::to_string(round_);
            out->num_blocks = warpPerVertexBlocks();
            out->make_program = [self](WarpCtx ctx) {
                return supportWarp(ctx, self);
            };
        } else {
            changed_ = false;
            out->name = name() + "-filter-r" + std::to_string(round_);
            const auto e32 = static_cast<std::uint32_t>(edges_);
            out->num_blocks = (e32 + kGraphTpb - 1) / kGraphTpb;
            out->make_program = [self](WarpCtx ctx) {
                return filterWarp(ctx, self);
            };
            ++round_;
        }
        filter_phase_ = !filter_phase_;
        return true;
    }

    void
    validate() const override
    {
        const auto ref = reference::ktrussAliveEdges(*graph_, kTrussK);
        for (std::uint64_t e = 0; e < edges_; ++e) {
            const std::uint32_t got = d_alive_[e];
            const std::uint32_t want = ref[e];
            if (got != want) {
                panic("KTRUSS: alive mismatch at edge %llu "
                      "(got %u want %u)",
                      static_cast<unsigned long long>(e), got, want);
            }
        }
    }

    /** Warp per vertex u: for every alive pair in fwd(u) whose closing
     *  edge is alive, bump all three supports. */
    static WarpProgram
    supportWarp(WarpCtx ctx, KtrussWorkload *self)
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
        if (end - begin < 2)
            co_return;

        // Stream u's forward list and alive flags (coalesced chunks).
        for (std::uint64_t e = begin; e < end; e += ctx.warp_size) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(ctx.warp_size, end - e);
            LaneVec ea;
            for (std::uint64_t i = 0; i < chunk; ++i) {
                ea.push_back(self->d_fwd_col_.addr(e + i));
                ea.push_back(self->d_alive_.addr(e + i));
            }
            co_yield WarpOp::load(std::move(ea));
        }

        const VertexId *col = self->fwd_.col.data();
        for (std::uint64_t j = begin + 1; j < end; ++j) {
            if (!self->d_alive_[j])
                continue;
            const VertexId a = col[j];
            co_yield loadOf(self->d_fwd_row_.addr(a),
                            self->d_fwd_row_.addr(a + 1));
            const std::uint64_t abegin = self->fwd_.row[a];
            const std::uint64_t aend = self->fwd_.row[a + 1];
            // Merge fwd(a) with the alive prefix of fwd(u)[begin..j).
            std::uint64_t p = begin;
            for (std::uint64_t e = abegin; e < aend;
                 e += ctx.warp_size) {
                const std::uint64_t chunk =
                    std::min<std::uint64_t>(ctx.warp_size, aend - e);
                LaneVec ea;
                for (std::uint64_t i = 0; i < chunk; ++i) {
                    ea.push_back(self->d_fwd_col_.addr(e + i));
                    ea.push_back(self->d_alive_.addr(e + i));
                }
                co_yield WarpOp::load(std::move(ea));

                LaneVec sa;
                for (std::uint64_t i = 0; i < chunk; ++i) {
                    const std::uint64_t eidx = e + i;
                    const VertexId x = col[eidx];
                    while (p < j && col[p] < x)
                        ++p;
                    if (p < j && col[p] == x &&
                        self->d_alive_[p] && self->d_alive_[eidx]) {
                        // Triangle (u, col[p]=x, a): edges p (u-x),
                        // j (u-a), eidx (a-x) — all alive.
                        ++self->d_support_[p];
                        ++self->d_support_[j];
                        ++self->d_support_[eidx];
                        sa.push_back(self->d_support_.addr(p));
                        sa.push_back(self->d_support_.addr(j));
                        sa.push_back(self->d_support_.addr(eidx));
                    }
                }
                if (!sa.empty())
                    co_yield WarpOp::atomic(std::move(sa));
            }
        }
    }

    /** Thread per forward edge: peel under-supported edges and reset
     *  supports for the next round. */
    static WarpProgram
    filterWarp(WarpCtx ctx, KtrussWorkload *self)
    {
        const std::uint64_t e_count = self->edges_;
        LaneBuf<std::uint64_t> owned;
        LaneVec a;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const std::uint64_t e = ctx.globalThread(lane);
            if (e < e_count) {
                owned.push_back(e);
                a.push_back(self->d_alive_.addr(e));
                a.push_back(self->d_support_.addr(e));
            }
        }
        if (owned.empty())
            co_return;
        co_yield WarpOp::load(std::move(a));

        LaneVec sa;
        for (std::uint64_t e : owned) {
            if (self->d_alive_[e] &&
                self->d_support_[e] < kTrussK - 2) {
                self->d_alive_[e] = 0;
                self->changed_ = true;
                sa.push_back(self->d_alive_.addr(e));
            }
            // Every thread re-zeroes its edge's support so the next
            // support pass starts clean.
            self->d_support_[e] = 0;
            sa.push_back(self->d_support_.addr(e));
        }
        co_yield WarpOp::store(std::move(sa));
    }

  private:
    reference::ForwardAdjacency fwd_;
    DeviceView<std::uint64_t> d_fwd_row_;
    DeviceView<std::uint64_t, VertexId> d_fwd_col_;
    DeviceArray<std::uint32_t> d_alive_;
    DeviceArray<std::uint32_t> d_support_;
    std::uint64_t edges_ = 0;
    std::uint32_t round_ = 0;
    bool filter_phase_ = false;
    bool changed_ = true;
};

} // namespace

std::unique_ptr<Workload>
makeKtrussWorkload()
{
    return std::make_unique<KtrussWorkload>();
}

} // namespace bauvm
