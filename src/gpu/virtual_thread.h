/**
 * @file
 * Virtual Thread controller implementing Thread Oversubscription (TO).
 *
 * Extends the Virtual Thread architecture (Yoon et al., ISCA'16) the way
 * the paper's section 4.1 describes:
 *  - extra thread blocks beyond the SM's scheduling limit are kept
 *    resident in an *inactive* state (block status table);
 *  - when every live warp of an active block stalls on page faults, the
 *    block is context-switched with a runnable inactive block, paying
 *    the cost of saving/restoring register state through global memory
 *    (graph kernels exhaust the register file, so the free
 *    shared-capacity path of baseline VT is unavailable);
 *  - the degree of oversubscription is controlled dynamically from the
 *    premature-eviction monitor: a collapse in the running average of
 *    page lifetimes disallows further context switching, while stable
 *    lifetimes add one more block per SM incrementally.
 */

#ifndef BAUVM_GPU_VIRTUAL_THREAD_H_
#define BAUVM_GPU_VIRTUAL_THREAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/check/sim_hooks.h"
#include "src/gpu/occupancy.h"
#include "src/gpu/sm.h"
#include "src/gpu/warp_program.h"
#include "src/sim/config.h"
#include "src/sim/event_queue.h"
#include "src/sim/types.h"
#include "src/trace/trace_sink.h"
#include "src/uvm/lifetime_tracker.h"

namespace bauvm
{

/** The Virtual Thread Controller with thread oversubscription. */
class VirtualThreadController
{
  public:
    /** @param hooks observers: oversubscription-degree changes emit
     *  counter samples stamped with the hook clock's current cycle. */
    VirtualThreadController(const ToConfig &config,
                            std::vector<std::unique_ptr<Sm>> &sms,
                            const SimHooks &hooks = {});

    /** Installs the kernel whose context size prices the switches. */
    void setKernel(const KernelInfo *kernel);

    /** Invoked by the Gpu when the dispatcher should add extra blocks
     *  (after the allowed degree grew). */
    void setTopUpCallback(std::function<void()> cb)
    {
        top_up_ = std::move(cb);
    }

    /** An active block on @p sm stalled completely. */
    void onBlockStalled(std::uint32_t sm, std::uint32_t slot);

    /** A warp of inactive block @p slot on @p sm became runnable. */
    void onInactiveWarpReady(std::uint32_t sm, std::uint32_t slot);

    /** Premature-eviction advice from the UVM runtime, once per batch. */
    void onAdvice(OversubAdvice advice);

    bool enabled() const { return config_.enabled; }

    /** Extra (beyond-schedule-limit) blocks each SM may host now. */
    std::uint32_t allowedExtra() const { return allowed_extra_; }

    /**
     * Cycles to move one block's context one way through global memory
     * (Eq. of section 6.5: context bits / bandwidth).
     */
    Cycle oneWayCost() const;

    std::uint64_t contextSwitches() const { return switches_; }
    std::uint64_t switchCycles() const { return switch_cycles_; }
    std::uint64_t throttleEvents() const { return throttles_; }
    std::uint64_t growEvents() const { return grows_; }

  private:
    void doSwitch(Sm &sm, std::uint32_t out_slot, std::uint32_t in_slot);

    ToConfig config_;
    std::vector<std::unique_ptr<Sm>> &sms_;
    SimHooks hooks_;
    const KernelInfo *kernel_ = nullptr;
    std::function<void()> top_up_;
    /** Consecutive healthy windows required before adding a block. */
    static constexpr std::uint32_t kGrowHysteresis = 8;

    std::uint32_t allowed_extra_ = 0;
    std::uint32_t grow_streak_ = 0;
    std::uint64_t switches_ = 0;
    std::uint64_t switch_cycles_ = 0;
    std::uint64_t throttles_ = 0;
    std::uint64_t grows_ = 0;
};

} // namespace bauvm

#endif // BAUVM_GPU_VIRTUAL_THREAD_H_
