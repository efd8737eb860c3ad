#include "src/gpu/virtual_thread.h"

#include "src/sim/log.h"

namespace bauvm
{

VirtualThreadController::VirtualThreadController(
    const ToConfig &config, std::vector<std::unique_ptr<Sm>> &sms,
    const SimHooks &hooks)
    : config_(config), sms_(sms), hooks_(hooks),
      allowed_extra_(config.enabled ? config.initial_extra_blocks : 0)
{
}

void
VirtualThreadController::setKernel(const KernelInfo *kernel)
{
    kernel_ = kernel;
}

Cycle
VirtualThreadController::oneWayCost() const
{
    if (config_.ideal_ctx_switch || !kernel_)
        return 0;
    const std::uint64_t bytes =
        contextBytes(*kernel_, config_.block_state_bytes);
    const std::uint32_t bw = config_.ctx_switch_bytes_per_cycle;
    return (bytes + bw - 1) / bw;
}

void
VirtualThreadController::doSwitch(Sm &sm, std::uint32_t out_slot,
                                  std::uint32_t in_slot)
{
    // Save the outgoing context (it always has live registers: the block
    // stalled mid-flight) and restore the incoming one unless it is a
    // fresh block whose registers are initialized at dispatch.
    Cycle cost = oneWayCost();
    if (sm.blockStarted(in_slot))
        cost += oneWayCost();
    BAUVM_DLOG("Vtc: sm %u switches slot %u -> slot %u (%llu cycles)",
               sm.id(), out_slot, in_slot,
               static_cast<unsigned long long>(cost));
    sm.deactivateBlock(out_slot);
    sm.activateBlock(in_slot, cost);
    ++switches_;
    switch_cycles_ += cost;
}

void
VirtualThreadController::onBlockStalled(std::uint32_t sm_id,
                                        std::uint32_t slot)
{
    if (!config_.enabled || allowed_extra_ == 0)
        return;
    Sm &sm = *sms_[sm_id];
    if (!sm.blockActive(slot) || !sm.blockFullyStalled(slot))
        return;
    const int in = sm.firstInactiveBlock(/*runnable_only=*/true);
    if (in < 0)
        return; // a later onInactiveWarpReady will retry
    doSwitch(sm, slot, static_cast<std::uint32_t>(in));
}

void
VirtualThreadController::onInactiveWarpReady(std::uint32_t sm_id,
                                             std::uint32_t slot)
{
    if (!config_.enabled || allowed_extra_ == 0)
        return;
    Sm &sm = *sms_[sm_id];
    if (!sm.switchInCandidate(slot))
        return;
    const int out = sm.firstFullyStalledActiveBlock();
    if (out < 0)
        return;
    doSwitch(sm, static_cast<std::uint32_t>(out), slot);
}

void
VirtualThreadController::onAdvice(OversubAdvice advice)
{
    if (!config_.enabled)
        return;
    const std::uint32_t before = allowed_extra_;
    switch (advice) {
      case OversubAdvice::Throttle:
        grow_streak_ = 0;
        if (allowed_extra_ > 0) {
            --allowed_extra_;
            ++throttles_;
        }
        break;
      case OversubAdvice::Grow:
        // Grow one block per SM only after a sustained run of healthy
        // lifetime windows ("in an incremental manner"); advice arrives
        // every batch, so raw growth would hit the cap immediately.
        if (++grow_streak_ >= kGrowHysteresis &&
            allowed_extra_ < config_.max_extra_blocks) {
            grow_streak_ = 0;
            ++allowed_extra_;
            ++grows_;
            if (top_up_)
                top_up_();
        }
        break;
      case OversubAdvice::NoChange:
        break;
    }
    if (hooks_.trace && hooks_.clock && allowed_extra_ != before) {
        hooks_.trace->counter(TraceEventType::OversubDegree,
                              kTraceTrackRuntime, hooks_.clock->now(),
                              allowed_extra_,
                              static_cast<std::uint32_t>(advice));
    }
}

} // namespace bauvm
