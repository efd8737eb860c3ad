/**
 * @file
 * Direction-optimizing hybrid BFS (Beamer et al.): per level, the host
 * chooses between a top-down pass over an explicit frontier queue and
 * a bottom-up pass over every unvisited vertex.
 *
 *  - top-down ("-td-"): one thread per frontier entry walks the
 *    vertex's edge list, discovering unvisited neighbours and
 *    appending them to the next-frontier queue with an atomic tail
 *    counter (the BFS-TF idiom).
 *  - bottom-up ("-bu-"): one thread per vertex; an unvisited vertex
 *    scans its own neighbours for one with level == current and stops
 *    at the first hit, so a huge frontier costs one probe per
 *    already-settled parent instead of one update per frontier edge.
 *
 * The switch heuristic is Beamer's: go bottom-up when the frontier's
 * outgoing edges exceed 1/alpha of the unexplored edges, return
 * top-down when the frontier shrinks below V/beta. Both passes append
 * to the same pre-allocated queue (sized once per build, never
 * reallocated), so direction flips need no host-side rebuild.
 *
 * The access-pattern phases differ sharply — queue-indirect gathers
 * top-down vs near-sequential level scans bottom-up — which is exactly
 * the frontier-dependent irregularity the fixed-iteration GraphBIG
 * kernels lack.
 */

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

/** Beamer's published defaults. */
constexpr std::uint64_t kAlpha = 15;
constexpr std::uint64_t kBeta = 18;

class HybridBfsWorkload : public GraphWorkloadBase
{
  public:
    std::string name() const override { return "BFS-HYB"; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, false);
        const VertexId v = graph_->numVertices();
        d_level_ = DeviceArray<std::uint32_t>(alloc_, v, "hyb_level");
        d_level_.fill(kInf);
        d_level_[source_] = 0;
        // Worklists sized once for the worst case (whole graph in one
        // frontier); per-level reuse never reallocates.
        d_frontier_ =
            DeviceArray<std::uint64_t>(alloc_, v, "hyb_frontier");
        d_next_frontier_ =
            DeviceArray<std::uint64_t>(alloc_, v, "hyb_next_frontier");
        d_counter_ = DeviceArray<std::uint32_t>(alloc_, 1, "hyb_counter");
        d_frontier_[0] = source_;
        frontier_size_ = 1;
        scout_count_ = graph_->degree(source_);
        edges_to_check_ = graph_->numEdges() - scout_count_;
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (level_ > 0) {
            // Host epilogue of the previous level: swap queues and
            // re-aim the direction heuristic at the new frontier.
            std::swap(d_frontier_, d_next_frontier_);
            frontier_size_ = next_size_;
            next_size_ = 0;
            scout_count_ = 0;
            for (std::uint32_t i = 0; i < frontier_size_; ++i) {
                scout_count_ += graph_->degree(
                    static_cast<VertexId>(d_frontier_[i]));
            }
            edges_to_check_ -=
                scout_count_ < edges_to_check_ ? scout_count_
                                               : edges_to_check_;
        }
        if (frontier_size_ == 0)
            return false;

        if (!bottom_up_ && scout_count_ > edges_to_check_ / kAlpha)
            bottom_up_ = true;
        else if (bottom_up_ &&
                 frontier_size_ < graph_->numVertices() / kBeta)
            bottom_up_ = false;

        HybridBfsWorkload *self = this;
        const std::uint32_t level = level_;
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 56;
        if (bottom_up_) {
            out->name = name() + "-bu-level" + std::to_string(level);
            out->num_blocks = vertexBlocks();
            out->make_program = [self, level](WarpCtx ctx) {
                return bottomUpWarp(ctx, self, level);
            };
        } else {
            out->name = name() + "-td-level" + std::to_string(level);
            const std::uint32_t fsize = frontier_size_;
            out->num_blocks = (fsize + kGraphTpb - 1) / kGraphTpb;
            out->make_program = [self, level, fsize](WarpCtx ctx) {
                return topDownWarp(ctx, self, level, fsize);
            };
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
                panic("BFS-HYB: level mismatch at vertex %u "
                      "(got %u want %u)",
                      v, got, want);
            }
        }
    }

    /** Top-down: the BFS-TF frontier walk (queue gather + atomic
     *  appends). */
    static WarpProgram
    topDownWarp(WarpCtx ctx, HybridBfsWorkload *self, std::uint32_t level,
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
        for (std::uint32_t idx : slots) {
            active.push_back(
                static_cast<VertexId>(self->d_frontier_[idx]));
        }

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

    /** Bottom-up: every unvisited vertex probes its neighbours for a
     *  parent on the current level, stopping at the first hit. */
    static WarpProgram
    bottomUpWarp(WarpCtx ctx, HybridBfsWorkload *self,
                 std::uint32_t level)
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

        LaneBuf<VertexId> unvisited;
        for (VertexId v : owned) {
            if (self->d_level_[v] == kInf)
                unvisited.push_back(v);
        }
        if (unvisited.empty())
            co_return;

        for (VertexId v : unvisited) {
            a.push_back(self->d_row_.addr(v));
            a.push_back(self->d_row_.addr(v + 1));
        }
        co_yield WarpOp::load(std::move(a));

        LaneBuf<std::uint64_t> pos, end;
        LaneBuf<bool> found;
        found.assign(unvisited.size(), false);
        for (VertexId v : unvisited) {
            pos.push_back(self->graph_->rowOffsets()[v]);
            end.push_back(self->graph_->rowOffsets()[v + 1]);
        }

        LaneBuf<std::size_t> who;
        LaneBuf<VertexId> probes; //!< neighbour probed by who[k]
        while (true) {
            LaneVec ea;
            who.clear();
            for (std::size_t i = 0; i < unvisited.size(); ++i) {
                if (!found[i] && pos[i] < end[i]) {
                    ea.push_back(self->d_col_.addr(pos[i]));
                    who.push_back(i);
                }
            }
            if (who.empty())
                break;
            co_yield WarpOp::load(std::move(ea));

            LaneVec la;
            probes.clear();
            for (std::size_t i : who) {
                const VertexId nb = self->d_col_[pos[i]];
                ++pos[i];
                probes.push_back(nb);
                la.push_back(self->d_level_.addr(nb));
            }
            co_yield WarpOp::load(std::move(la));

            LaneVec sa;
            for (std::size_t k = 0; k < who.size(); ++k) {
                const std::size_t i = who[k];
                if (!found[i] && self->d_level_[probes[k]] == level) {
                    // First settled parent wins; the lane stops
                    // probing (the bottom-up early exit).
                    found[i] = true;
                    const VertexId v = unvisited[i];
                    self->d_level_[v] = level + 1;
                    const std::uint32_t slot = self->next_size_++;
                    self->d_next_frontier_[slot] = v;
                    sa.push_back(self->d_counter_.addr(0));
                    sa.push_back(self->d_next_frontier_.addr(slot));
                    sa.push_back(self->d_level_.addr(v));
                }
            }
            if (!sa.empty())
                co_yield WarpOp::atomic(std::move(sa));
        }
    }

  private:
    DeviceArray<std::uint32_t> d_level_;
    DeviceArray<std::uint64_t> d_frontier_;
    DeviceArray<std::uint64_t> d_next_frontier_;
    DeviceArray<std::uint32_t> d_counter_;
    std::uint32_t level_ = 0;
    std::uint32_t frontier_size_ = 0;
    std::uint32_t next_size_ = 0;
    std::uint64_t scout_count_ = 0;
    std::uint64_t edges_to_check_ = 0;
    bool bottom_up_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeHybridBfsWorkload()
{
    return std::make_unique<HybridBfsWorkload>();
}

} // namespace bauvm
