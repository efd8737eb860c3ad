/**
 * @file
 * The five GraphBIG BFS implementations the paper evaluates:
 *
 *  - TTC (topological-thread-centric): one thread per vertex scans the
 *    level array every iteration; discovered neighbours are written
 *    directly. Divergent per-lane edge walks.
 *  - TA (topological-atomic): like TTC but neighbour updates use atomic
 *    operations.
 *  - TWC (topological-warp-centric): one warp per vertex; the warp's
 *    lanes cooperatively stream the vertex's edge list (coalesced).
 *  - TF (topological-frontier): explicit frontier queue with an atomic
 *    tail counter.
 *  - DWC (data-warp-centric): edge-centric passes over the raw edge
 *    list; the paper singles this variant out for its extremely
 *    divergent accesses and constant page thrashing.
 */

#include <algorithm>
#include <string>
#include <utility>

#include "src/graph/reference_algorithms.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_factories.h"

namespace bauvm
{
namespace
{

class BfsWorkload : public GraphWorkloadBase
{
  public:
    explicit BfsWorkload(std::string variant)
        : variant_(std::move(variant))
    {
    }

    std::string name() const override { return "BFS-" + variant_; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, false);
        const VertexId v = graph_->numVertices();
        d_level_ = DeviceArray<std::uint32_t>(alloc_, v, "bfs_level");
        d_level_.fill(kInf);
        d_level_[source_] = 0;

        if (variant_ == "TF") {
            d_frontier_ =
                DeviceArray<std::uint64_t>(alloc_, v, "bfs_frontier");
            d_next_frontier_ =
                DeviceArray<std::uint64_t>(alloc_, v, "bfs_next_frontier");
            d_counter_ =
                DeviceArray<std::uint32_t>(alloc_, 1, "bfs_counter");
            d_frontier_[0] = source_;
            frontier_size_ = 1;
        } else if (variant_ == "DWC") {
            const std::uint64_t e = graph_->numEdges();
            d_esrc_ = DeviceArray<std::uint64_t>(alloc_, e, "bfs_edge_src");
            d_edst_ = DeviceArray<std::uint64_t>(alloc_, e, "bfs_edge_dst");
            std::uint64_t idx = 0;
            for (VertexId s = 0; s < v; ++s) {
                for (VertexId d : graph_->neighbors(s)) {
                    d_esrc_[idx] = s;
                    d_edst_[idx] = d;
                    ++idx;
                }
            }
        }
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (variant_ == "TF") {
            // Host-side epilogue of the previous level: swap frontiers.
            if (level_ > 0) {
                std::swap(d_frontier_, d_next_frontier_);
                frontier_size_ = next_size_;
                next_size_ = 0;
            }
            if (frontier_size_ == 0)
                return false;
        } else if (level_ > 0 && !changed_) {
            return false;
        }
        changed_ = false;

        out->name = name() + "-level" + std::to_string(level_);
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 56;
        const std::uint32_t level = level_;
        BfsWorkload *self = this;

        if (variant_ == "TTC" || variant_ == "TA") {
            const bool atomic = variant_ == "TA";
            out->num_blocks = vertexBlocks();
            out->make_program = [self, level, atomic](WarpCtx ctx) {
                return topoThreadWarp(ctx, self, level, atomic);
            };
        } else if (variant_ == "TWC") {
            out->num_blocks = warpPerVertexBlocks();
            out->make_program = [self, level](WarpCtx ctx) {
                return twcWarp(ctx, self, level);
            };
        } else if (variant_ == "TF") {
            const std::uint32_t fsize = frontier_size_;
            out->num_blocks =
                (fsize + kGraphTpb - 1) / kGraphTpb;
            out->make_program = [self, level, fsize](WarpCtx ctx) {
                return frontierWarp(ctx, self, level, fsize);
            };
        } else if (variant_ == "DWC") {
            const auto edges =
                static_cast<std::uint32_t>(graph_->numEdges());
            out->num_blocks = (edges + kGraphTpb - 1) / kGraphTpb;
            out->make_program = [self, level](WarpCtx ctx) {
                return edgeCentricWarp(ctx, self, level);
            };
        } else {
            fatal("BfsWorkload: unknown variant '%s'", variant_.c_str());
        }
        ++level_;
        return true;
    }

    void
    validate() const override
    {
        const auto ref = reference::bfsLevels(*graph_, source_);
        for (VertexId v = 0; v < graph_->numVertices(); ++v) {
            const std::uint32_t got = d_level_[v];
            const std::uint32_t want =
                ref[v] == reference::kInfinity ? kInf : ref[v];
            if (got != want) {
                panic("%s: level mismatch at vertex %u (got %u want %u)",
                      name().c_str(), v, got, want);
            }
        }
    }

    // Kernel bodies are static member coroutines so they can touch the
    // workload's arrays directly.

    /** TTC/TA: one thread per vertex, lockstep divergent edge walk. */
    static WarpProgram
    topoThreadWarp(WarpCtx ctx, BfsWorkload *self, std::uint32_t level,
                   bool atomic)
    {
        const VertexId v_count = self->graph_->numVertices();
        LaneBuf<VertexId> owned;
        LaneVec a;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const VertexId v = ctx.globalThread(lane);
            if (v < v_count) {
                owned.push_back(v);
                a.push_back(self->d_level_.addr(v));
            }
        }
        if (owned.empty())
            co_return;
        co_yield WarpOp::load(std::move(a));

        LaneBuf<VertexId> active;
        for (VertexId v : owned) {
            if (self->d_level_[v] == level)
                active.push_back(v);
        }
        if (active.empty())
            co_return;

        for (VertexId v : active) {
            a.push_back(self->d_row_.addr(v));
            a.push_back(self->d_row_.addr(v + 1));
        }
        co_yield WarpOp::load(std::move(a));

        LaneBuf<std::uint64_t> pos, end;
        for (VertexId v : active) {
            pos.push_back(self->graph_->rowOffsets()[v]);
            end.push_back(self->graph_->rowOffsets()[v + 1]);
        }

        LaneBuf<std::size_t> who;
        LaneBuf<VertexId> nbrs;
        while (true) {
            LaneVec ea;
            who.clear();
            for (std::size_t i = 0; i < active.size(); ++i) {
                if (pos[i] < end[i]) {
                    ea.push_back(self->d_col_.addr(pos[i]));
                    who.push_back(i);
                }
            }
            if (who.empty())
                break;
            co_yield WarpOp::load(std::move(ea));

            LaneVec la;
            nbrs.clear();
            for (std::size_t i : who) {
                const VertexId nb = self->d_col_[pos[i]];
                ++pos[i];
                nbrs.push_back(nb);
                la.push_back(self->d_level_.addr(nb));
            }
            co_yield WarpOp::load(std::move(la));

            LaneVec sa;
            for (VertexId nb : nbrs) {
                if (self->d_level_[nb] == kInf) {
                    self->d_level_[nb] = level + 1;
                    self->changed_ = true;
                    sa.push_back(self->d_level_.addr(nb));
                }
            }
            if (!sa.empty()) {
                // Branch instead of a conditional operator: GCC 12
                // double-destroys conditional temporaries in co_yield.
                if (atomic)
                    co_yield WarpOp::atomic(std::move(sa));
                else
                    co_yield WarpOp::store(std::move(sa));
            }
        }
    }

    /** TWC: one warp per vertex, coalesced 32-edge chunks. */
    static WarpProgram
    twcWarp(WarpCtx ctx, BfsWorkload *self, std::uint32_t level)
    {
        const std::uint32_t warps_per_block =
            ctx.threads_per_block / ctx.warp_size;
        const VertexId v =
            ctx.block_id * warps_per_block + ctx.warp_in_block;
        if (v >= self->graph_->numVertices())
            co_return;

        co_yield loadOf(self->d_level_.addr(v));
        if (self->d_level_[v] != level)
            co_return;
        co_yield loadOf(self->d_row_.addr(v), self->d_row_.addr(v + 1));

        const std::uint64_t begin = self->graph_->rowOffsets()[v];
        const std::uint64_t end = self->graph_->rowOffsets()[v + 1];
        LaneBuf<VertexId> nbrs;
        for (std::uint64_t e = begin; e < end; e += ctx.warp_size) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(ctx.warp_size, end - e);
            LaneVec ea;
            for (std::uint64_t i = 0; i < chunk; ++i)
                ea.push_back(self->d_col_.addr(e + i));
            co_yield WarpOp::load(std::move(ea));

            LaneVec la;
            nbrs.clear();
            for (std::uint64_t i = 0; i < chunk; ++i) {
                const VertexId nb = self->d_col_[e + i];
                nbrs.push_back(nb);
                la.push_back(self->d_level_.addr(nb));
            }
            co_yield WarpOp::load(std::move(la));

            LaneVec sa;
            for (VertexId nb : nbrs) {
                if (self->d_level_[nb] == kInf) {
                    self->d_level_[nb] = level + 1;
                    self->changed_ = true;
                    sa.push_back(self->d_level_.addr(nb));
                }
            }
            if (!sa.empty())
                co_yield WarpOp::store(std::move(sa));
        }
    }

    /** TF: explicit frontier with an atomic tail counter. */
    static WarpProgram
    frontierWarp(WarpCtx ctx, BfsWorkload *self, std::uint32_t level,
                 std::uint32_t fsize)
    {
        LaneBuf<std::uint32_t> slots;
        LaneVec a;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const std::uint32_t idx = ctx.globalThread(lane);
            if (idx < fsize) {
                slots.push_back(idx);
                a.push_back(self->d_frontier_.addr(idx));
            }
        }
        if (slots.empty())
            co_return;
        co_yield WarpOp::load(std::move(a));

        LaneBuf<VertexId> active;
        for (std::uint32_t idx : slots)
            active.push_back(self->d_frontier_[idx]);

        for (VertexId v : active) {
            a.push_back(self->d_row_.addr(v));
            a.push_back(self->d_row_.addr(v + 1));
        }
        co_yield WarpOp::load(std::move(a));

        LaneBuf<std::uint64_t> pos, end;
        for (VertexId v : active) {
            pos.push_back(self->graph_->rowOffsets()[v]);
            end.push_back(self->graph_->rowOffsets()[v + 1]);
        }

        LaneBuf<std::size_t> who;
        LaneBuf<VertexId> nbrs;
        while (true) {
            LaneVec ea;
            who.clear();
            for (std::size_t i = 0; i < active.size(); ++i) {
                if (pos[i] < end[i]) {
                    ea.push_back(self->d_col_.addr(pos[i]));
                    who.push_back(i);
                }
            }
            if (who.empty())
                break;
            co_yield WarpOp::load(std::move(ea));

            LaneVec la;
            nbrs.clear();
            for (std::size_t i : who) {
                const VertexId nb = self->d_col_[pos[i]];
                ++pos[i];
                nbrs.push_back(nb);
                la.push_back(self->d_level_.addr(nb));
            }
            co_yield WarpOp::load(std::move(la));

            LaneVec sa;
            for (VertexId nb : nbrs) {
                if (self->d_level_[nb] == kInf) {
                    self->d_level_[nb] = level + 1;
                    const std::uint32_t slot = self->next_size_++;
                    self->d_next_frontier_[slot] = nb;
                    sa.push_back(self->d_counter_.addr(0));
                    sa.push_back(self->d_next_frontier_.addr(slot));
                    sa.push_back(self->d_level_.addr(nb));
                }
            }
            if (!sa.empty())
                co_yield WarpOp::atomic(std::move(sa));
        }
    }

    /** DWC: edge-centric pass, one thread per edge. */
    static WarpProgram
    edgeCentricWarp(WarpCtx ctx, BfsWorkload *self, std::uint32_t level)
    {
        const std::uint64_t e_count = self->graph_->numEdges();
        LaneBuf<std::uint64_t> edges;
        LaneVec a;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const std::uint64_t e = ctx.globalThread(lane);
            if (e < e_count) {
                edges.push_back(e);
                a.push_back(self->d_esrc_.addr(e));
            }
        }
        if (edges.empty())
            co_return;
        co_yield WarpOp::load(std::move(a));

        // Load the source levels (random gather).
        for (std::uint64_t e : edges)
            a.push_back(self->d_level_.addr(self->d_esrc_[e]));
        co_yield WarpOp::load(std::move(a));

        LaneBuf<std::uint64_t> live;
        for (std::uint64_t e : edges) {
            if (self->d_level_[self->d_esrc_[e]] == level)
                live.push_back(e);
        }
        if (live.empty())
            co_return;

        for (std::uint64_t e : live)
            a.push_back(self->d_edst_.addr(e));
        co_yield WarpOp::load(std::move(a));

        for (std::uint64_t e : live)
            a.push_back(self->d_level_.addr(self->d_edst_[e]));
        co_yield WarpOp::load(std::move(a));

        LaneVec sa;
        for (std::uint64_t e : live) {
            const VertexId dst = self->d_edst_[e];
            if (self->d_level_[dst] == kInf) {
                self->d_level_[dst] = level + 1;
                self->changed_ = true;
                sa.push_back(self->d_level_.addr(dst));
            }
        }
        if (!sa.empty())
            co_yield WarpOp::store(std::move(sa));
    }

    std::string variant_;
    DeviceArray<std::uint32_t> d_level_;
    DeviceArray<std::uint64_t> d_frontier_;
    DeviceArray<std::uint64_t> d_next_frontier_;
    DeviceArray<std::uint32_t> d_counter_;
    DeviceArray<std::uint64_t> d_esrc_;
    DeviceArray<std::uint64_t> d_edst_;
    std::uint32_t level_ = 0;
    bool changed_ = false;
    std::uint32_t frontier_size_ = 0;
    std::uint32_t next_size_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeBfsWorkload(const std::string &variant)
{
    return std::make_unique<BfsWorkload>(variant);
}

} // namespace bauvm
