/**
 * @file
 * Streaming Multiprocessor model.
 *
 * An SM hosts resident thread blocks (active ones, plus inactive ones
 * when Thread Oversubscription is enabled), schedules their warps onto
 * a single issue port (1 instruction per cycle), and drives each warp's
 * operations through the memory hierarchy. Warps that fault suspend and
 * are woken by the UVM runtime; when every live warp of an active block
 * is suspended on faults, the SM notifies its listener (the Virtual
 * Thread controller), which may context-switch the block out.
 *
 * The class has no virtual functions: the issue loop calls the memory
 * hierarchy and UVM runtime directly (MemoryHierarchy::access inlines
 * into it), and its trace sites are null checks on the SimHooks copy.
 */

#ifndef BAUVM_GPU_SM_H_
#define BAUVM_GPU_SM_H_

#include <cstdint>
#include <vector>

#include "src/check/sim_hooks.h"
#include "src/gpu/coalescer.h"
#include "src/gpu/warp_program.h"
#include "src/mem/memory_hierarchy.h"
#include "src/sim/config.h"
#include "src/sim/event_queue.h"
#include "src/sim/types.h"
#include "src/trace/trace_sink.h"
#include "src/uvm/uvm_runtime.h"

namespace bauvm
{

/** Receives SM scheduling notifications (implemented by the VTC). */
class SmListener
{
  public:
    virtual ~SmListener() = default;
    /** Every live warp of active block @p slot is stalled. */
    virtual void onBlockStalled(std::uint32_t sm, std::uint32_t slot) = 0;
    /** Block @p slot retired (all warps done). */
    virtual void onBlockFinished(std::uint32_t sm, std::uint32_t slot) = 0;
    /** A warp of *inactive* block @p slot became runnable. */
    virtual void onInactiveWarpReady(std::uint32_t sm,
                                     std::uint32_t slot) = 0;
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    /** @param hooks observers: faults, dispatches, context switches
     *  and occupancy samples land on this SM's own trace track. */
    Sm(std::uint32_t id, const GpuConfig &config, EventQueue &events,
       MemoryHierarchy &hierarchy, UvmRuntime &runtime,
       SmListener *listener, const SimHooks &hooks = {});

    /**
     * Makes a grid block resident on this SM.
     *
     * @param kernel  the kernel being executed (must outlive the block).
     * @param block_id  index of the block within the grid.
     * @param active  whether the block may issue immediately.
     * @return the slot index identifying the block on this SM.
     */
    std::uint32_t addBlock(const KernelInfo *kernel,
                           std::uint32_t block_id, bool active);

    /**
     * Activates block @p slot after @p delay cycles (context restore).
     * The block is marked "activating" immediately so the controller
     * does not pick it twice.
     */
    void activateBlock(std::uint32_t slot, Cycle delay);

    /** Deactivates block @p slot immediately (context save is charged
     *  by the controller on the incoming block's restore delay). */
    void deactivateBlock(std::uint32_t slot);

    /** Number of block slots in use (finished blocks' slots recycle). */
    std::size_t residentBlocks() const;

    /** Active (issuing) blocks currently resident. */
    std::size_t activeBlocks() const;

    bool blockActive(std::uint32_t slot) const;
    bool blockFinished(std::uint32_t slot) const;
    bool blockStarted(std::uint32_t slot) const;

    /**
     * True when inactive block @p slot could make progress if switched
     * in (it has at least one runnable warp).
     */
    bool switchInCandidate(std::uint32_t slot) const;

    /** True when active block @p slot has every live warp stalled. */
    bool blockFullyStalled(std::uint32_t slot) const;

    /**
     * Lowest slot of a resident, unfinished, inactive block, or -1.
     * With @p runnable_only, the lowest one switchInCandidate()
     * accepts.
     */
    int firstInactiveBlock(bool runnable_only) const;

    /** First active block with every live warp stalled, or -1. */
    int firstFullyStalledActiveBlock() const;

    std::uint32_t id() const { return id_; }

    /**
     * Moves this SM's trace events onto track @p track. Multi-tenant
     * runs give each tenant's GPU a disjoint track range (tenant i's
     * SM j lands on i*num_sms+j) while SM ids stay GPU-local.
     */
    void setTraceTrack(TraceTrack track) { track_ = track; }

    /** Enables the Fig 5 mode: memory waits count as block stalls. */
    void setSwitchOnMemoryStall(bool on)
    {
        switch_on_memory_stall_ = on;
    }

    std::uint64_t issuedInstructions() const { return issued_; }
    std::uint64_t memoryInstructions() const
    {
        return coalescer_.memoryInstructions();
    }
    const Coalescer &coalescer() const { return coalescer_; }

    /** Pages this SM ever touched (for working-set experiments). */
    std::uint64_t pageFaultsRaised() const { return faults_raised_; }

  private:
    enum class WarpStatus {
        Ready,       //!< runnable (queued when its block is active)
        WaitOp,      //!< an issued operation is completing
        WaitFault,   //!< suspended on one or more page faults
        WaitBarrier, //!< parked at __syncthreads
        Done,
    };

    struct WarpState {
        WarpProgram prog;
        WarpCtx ctx;
        WarpStatus st = WarpStatus::Ready;
        bool fetched = false;     //!< first advance() performed
        bool waiting_mem = false; //!< WaitOp is a memory operation
        /** Set when the op's faults all resolved while the block was
         *  inactive: on the next dispatch the op completes directly
         *  (the hardware replays the access right after migration, so
         *  the data access is not re-executed from scratch). */
        bool replay_done = false;
        std::uint32_t pending_faults = 0;
    };

    struct Block {
        const KernelInfo *kernel = nullptr;
        std::uint32_t block_id = 0;
        bool in_use = false;
        bool active = false;
        bool activating = false;
        bool finished = false;
        bool started = false;
        std::uint32_t done_warps = 0;
        std::uint32_t barrier_waiting = 0;
        std::vector<WarpState> warps;

        std::uint32_t liveWarps() const
        {
            return static_cast<std::uint32_t>(warps.size()) - done_warps;
        }
    };

    /** Drains the ready queue, issuing one instruction per cycle;
     *  called from the one scheduled pump event. */
    void pump();
    void processOp(std::uint32_t slot, std::uint32_t warp, Cycle issue);
    void execMemoryOp(std::uint32_t slot, std::uint32_t warp,
                      const WarpOp &op, Cycle issue);
    void onOpComplete(std::uint32_t slot, std::uint32_t warp);
    void onFaultResolved(std::uint32_t slot, std::uint32_t warp);
    void finishWarp(std::uint32_t slot, std::uint32_t warp);
    void maybeReleaseBarrier(std::uint32_t slot);
    void enqueueReady(std::uint32_t slot, std::uint32_t warp);
    void schedulePump();
    void checkBlockStalled(std::uint32_t slot);
    /** Samples the active/resident block counters onto the trace. */
    void traceOccupancy();

    std::uint32_t id_;
    TraceTrack track_;
    GpuConfig config_;
    EventQueue &events_;
    MemoryHierarchy &hierarchy_;
    UvmRuntime &runtime_;
    SmListener *listener_;
    Coalescer coalescer_;
    SimHooks hooks_;

    bool switch_on_memory_stall_ = false;
    std::vector<Block> blocks_;
    /** (slot, warp) FIFO that pump() drains from ready_head_ and then
     *  empties, so enqueues reuse its capacity instead of allocating. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ready_queue_;
    std::size_t ready_head_ = 0;
    bool pump_scheduled_ = false;
    Cycle issue_free_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t faults_raised_ = 0;
    /** Persistent scratch: coalesced lines of the op being issued. */
    std::vector<VAddr> line_scratch_;
    /** Persistent scratch: distinct faulting pages of that op. */
    std::vector<PageNum> fault_page_scratch_;
};

} // namespace bauvm

#endif // BAUVM_GPU_SM_H_
