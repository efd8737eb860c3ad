#include "src/gpu/block_dispatcher.h"

#include "src/sim/log.h"

namespace bauvm
{

BlockDispatcher::BlockDispatcher(const GpuConfig &config,
                                 std::vector<std::unique_ptr<Sm>> &sms,
                                 VirtualThreadController &vtc)
    : config_(config), sms_(sms), vtc_(vtc),
      sm_enabled_(sms.size(), true)
{
}

void
BlockDispatcher::syncSmCount()
{
    // The SM vector is populated after the dispatcher is constructed
    // (both live inside Gpu); pick up late additions here.
    if (sm_enabled_.size() != sms_.size())
        sm_enabled_.resize(sms_.size(), true);
}

void
BlockDispatcher::launch(const KernelInfo *kernel,
                        std::function<void()> on_done)
{
    syncSmCount();
    kernel_ = kernel;
    on_done_ = std::move(on_done);
    total_ = kernel->num_blocks;
    next_block_ = 0;
    finished_ = 0;

    const Occupancy occ = computeOccupancy(config_, *kernel);
    baseline_ = occ.blocks_per_sm;
    vtc_.setKernel(kernel);
    BAUVM_DLOG("BlockDispatcher: launching '%s': %u blocks, %u "
               "active per SM (+%u oversubscribed)",
               kernel->name.c_str(), total_, baseline_,
               vtc_.enabled() ? vtc_.allowedExtra() : 0);

    // Round-robin the initial active assignment so that neighbouring
    // blocks land on different SMs, as hardware rasterization does.
    for (std::uint32_t round = 0; round < baseline_; ++round) {
        for (std::uint32_t s = 0; s < sms_.size(); ++s) {
            if (!sm_enabled_[s] || next_block_ >= total_)
                continue;
            sms_[s]->addBlock(kernel_, next_block_++, true);
        }
    }
    topUpExtras();

    if (total_ == 0)
        fatal("BlockDispatcher: kernel '%s' with zero blocks",
              kernel->name.c_str());
}

void
BlockDispatcher::topUpExtras()
{
    if (!vtc_.enabled() || kernel_ == nullptr)
        return;
    const std::uint32_t target = baseline_ + vtc_.allowedExtra();
    for (std::uint32_t s = 0; s < sms_.size(); ++s) {
        if (!sm_enabled_[s])
            continue;
        while (sms_[s]->residentBlocks() < target &&
               next_block_ < total_) {
            sms_[s]->addBlock(kernel_, next_block_++, false);
        }
    }
}

void
BlockDispatcher::refillSm(std::uint32_t sm_id)
{
    Sm &sm = *sms_[sm_id];
    if (!sm_enabled_[sm_id])
        return;

    // Keep the active count at the scheduling limit: promote resident
    // inactive blocks first (preferring runnable ones), then dispatch
    // fresh grid blocks.
    while (sm.activeBlocks() < baseline_) {
        int promote = sm.firstInactiveBlock(/*runnable_only=*/true);
        if (promote < 0 && next_block_ >= total_) {
            // Tail of the grid: promote even a stalled block so it can
            // finish once its pages arrive.
            promote = sm.firstInactiveBlock(/*runnable_only=*/false);
        }
        if (promote >= 0) {
            const auto slot = static_cast<std::uint32_t>(promote);
            const Cycle cost =
                sm.blockStarted(slot) ? vtc_.oneWayCost() : 0;
            sm.activateBlock(slot, cost);
            continue;
        }
        if (next_block_ < total_) {
            sm.addBlock(kernel_, next_block_++, true);
            continue;
        }
        break;
    }

    // Replenish the oversubscription pool.
    if (vtc_.enabled()) {
        const std::uint32_t target = baseline_ + vtc_.allowedExtra();
        while (sm.residentBlocks() < target && next_block_ < total_)
            sm.addBlock(kernel_, next_block_++, false);
    }
}

void
BlockDispatcher::onBlockFinished(std::uint32_t sm, std::uint32_t slot)
{
    (void)slot;
    ++finished_;
    if (finished_ == total_) {
        if (on_done_)
            on_done_();
        return;
    }
    refillSm(sm);
}

void
BlockDispatcher::setSmEnabled(std::uint32_t sm, bool enabled)
{
    syncSmCount();
    const bool was = sm_enabled_[sm];
    sm_enabled_[sm] = enabled;
    if (!was && enabled && kernel_ != nullptr && !done())
        refillSm(sm);
}

std::uint32_t
BlockDispatcher::enabledSms() const
{
    if (sm_enabled_.size() != sms_.size())
        return static_cast<std::uint32_t>(sms_.size());
    std::uint32_t n = 0;
    for (bool e : sm_enabled_)
        n += e ? 1 : 0;
    return n;
}

} // namespace bauvm
