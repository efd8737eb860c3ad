/**
 * @file
 * K-core decomposition by parallel peeling: for k = 0,1,2,... repeat a
 * removal kernel (one thread per vertex, atomic degree decrements on
 * neighbours) until no vertex with degree <= k remains, then advance k.
 * Produces the coreness of every vertex, layer by layer, as GraphBIG's
 * kCore does.
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

class KcoreWorkload : public GraphWorkloadBase
{
  public:
    std::string name() const override { return "KCORE"; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, false);
        const VertexId v = graph_->numVertices();
        d_degree_ = DeviceArray<std::uint32_t>(alloc_, v, "kcore_degree");
        d_core_ = DeviceArray<std::uint32_t>(alloc_, v, "kcore_core");
        d_core_.fill(kInf); // kInf == still alive
        std::uint32_t max_deg = 0;
        for (VertexId u = 0; u < v; ++u) {
            d_degree_[u] = static_cast<std::uint32_t>(graph_->degree(u));
            max_deg = std::max(max_deg, d_degree_[u]);
        }
        max_degree_ = max_deg;
        alive_ = v;
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (alive_ == 0)
            return false;
        if (!changed_ && !first_round_) {
            // The previous round removed nothing at this k: jump k to
            // the smallest residual degree still alive (the host-side
            // equivalent of GraphBIG's k++ sweep, skipping the empty
            // iterations so the simulation stays tractable).
            std::uint32_t min_deg = kInf;
            for (VertexId v = 0; v < graph_->numVertices(); ++v) {
                if (d_core_[v] == kInf)
                    min_deg = std::min(min_deg, d_degree_[v]);
            }
            if (min_deg == kInf || min_deg > max_degree_) {
                panic("KCORE: no removable vertex with %u alive",
                      alive_);
            }
            k_ = min_deg;
        }
        first_round_ = false;
        changed_ = false;

        KcoreWorkload *self = this;
        const std::uint32_t k = k_;
        out->name = "KCORE-k" + std::to_string(k);
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 52;
        out->num_blocks = vertexBlocks();
        out->make_program = [self, k](WarpCtx ctx) {
            return peelWarp(ctx, self, k);
        };
        return true;
    }

    void
    validate() const override
    {
        const auto ref = reference::kcore(*graph_);
        for (VertexId v = 0; v < graph_->numVertices(); ++v) {
            if (d_core_[v] != ref[v]) {
                panic("KCORE: coreness mismatch at %u (got %u want %u)",
                      v, d_core_[v], ref[v]);
            }
        }
    }

    static WarpProgram
    peelWarp(WarpCtx ctx, KcoreWorkload *self, std::uint32_t k)
    {
        const VertexId v_count = self->graph_->numVertices();
        LaneBuf<VertexId> owned;
        LaneVec a;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const VertexId v = ctx.globalThread(lane);
            if (v < v_count) {
                owned.push_back(v);
                a.push_back(self->d_core_.addr(v));
                a.push_back(self->d_degree_.addr(v));
            }
        }
        if (owned.empty())
            co_return;
        co_yield WarpOp::load(std::move(a));

        LaneBuf<VertexId> removing;
        for (VertexId v : owned) {
            if (self->d_core_[v] == kInf && self->d_degree_[v] <= k)
                removing.push_back(v);
        }
        if (removing.empty())
            co_return;

        LaneVec sa;
        for (VertexId v : removing) {
            self->d_core_[v] = k;
            --self->alive_;
            self->changed_ = true;
            sa.push_back(self->d_core_.addr(v));
        }
        co_yield WarpOp::store(std::move(sa));

        for (VertexId v : removing) {
            a.push_back(self->d_row_.addr(v));
            a.push_back(self->d_row_.addr(v + 1));
        }
        co_yield WarpOp::load(std::move(a));

        // Lockstep divergent walk decrementing neighbour degrees.
        LaneBuf<std::uint64_t> pos, end;
        for (VertexId v : removing) {
            pos.push_back(self->graph_->rowOffsets()[v]);
            end.push_back(self->graph_->rowOffsets()[v + 1]);
        }
        LaneBuf<std::size_t> who;
        LaneBuf<VertexId> nbrs;
        while (true) {
            LaneVec ea;
            who.clear();
            for (std::size_t i = 0; i < removing.size(); ++i) {
                if (pos[i] < end[i]) {
                    ea.push_back(self->d_col_.addr(pos[i]));
                    who.push_back(i);
                }
            }
            if (who.empty())
                break;
            co_yield WarpOp::load(std::move(ea));

            LaneVec da;
            nbrs.clear();
            for (std::size_t i : who) {
                const VertexId nb = self->d_col_[pos[i]];
                ++pos[i];
                nbrs.push_back(nb);
                da.push_back(self->d_core_.addr(nb));
                da.push_back(self->d_degree_.addr(nb));
            }
            co_yield WarpOp::load(std::move(da));

            LaneVec ua;
            for (VertexId nb : nbrs) {
                if (self->d_core_[nb] == kInf &&
                    self->d_degree_[nb] > 0) {
                    --self->d_degree_[nb];
                    ua.push_back(self->d_degree_.addr(nb));
                }
            }
            if (!ua.empty())
                co_yield WarpOp::atomic(std::move(ua));
        }
    }

  private:
    DeviceArray<std::uint32_t> d_degree_;
    DeviceArray<std::uint32_t> d_core_;
    std::uint32_t max_degree_ = 0;
    std::uint32_t k_ = 0;
    VertexId alive_ = 0;
    bool changed_ = false;
    bool first_round_ = true;
};

} // namespace

std::unique_ptr<Workload>
makeKcoreWorkload()
{
    return std::make_unique<KcoreWorkload>();
}

} // namespace bauvm
