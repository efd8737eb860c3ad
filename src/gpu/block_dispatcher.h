/**
 * @file
 * Grid block dispatcher.
 *
 * Assigns thread blocks of the launched kernel to SMs: up to the
 * occupancy (scheduling) limit as active blocks, plus — when thread
 * oversubscription is enabled — up to `allowedExtra()` inactive blocks
 * per SM. Supports ETC-style SM throttling (disabled SMs drain and
 * receive no new blocks).
 */

#ifndef BAUVM_GPU_BLOCK_DISPATCHER_H_
#define BAUVM_GPU_BLOCK_DISPATCHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/gpu/sm.h"
#include "src/gpu/virtual_thread.h"
#include "src/gpu/warp_program.h"
#include "src/sim/config.h"

namespace bauvm
{

/** Feeds the kernel's blocks to the SMs and tracks completion. */
class BlockDispatcher
{
  public:
    BlockDispatcher(const GpuConfig &config,
                    std::vector<std::unique_ptr<Sm>> &sms,
                    VirtualThreadController &vtc);

    /**
     * Starts a kernel: computes occupancy and performs the initial
     * assignment. @p on_done fires when the last block retires.
     */
    void launch(const KernelInfo *kernel, std::function<void()> on_done);

    /** SM callback: block @p slot on @p sm retired. */
    void onBlockFinished(std::uint32_t sm, std::uint32_t slot);

    /** Tops up inactive blocks after the TO degree grew. */
    void topUpExtras();

    /** Enables/disables an SM (ETC memory-aware throttling). */
    void setSmEnabled(std::uint32_t sm, bool enabled);

    std::uint32_t enabledSms() const;
    std::uint32_t baselineBlocksPerSm() const { return baseline_; }
    bool done() const { return finished_ == total_ && total_ != 0; }
    std::uint32_t finishedBlocks() const { return finished_; }

  private:
    void refillSm(std::uint32_t sm_id);
    void syncSmCount();

    GpuConfig config_;
    std::vector<std::unique_ptr<Sm>> &sms_;
    VirtualThreadController &vtc_;
    const KernelInfo *kernel_ = nullptr;
    std::function<void()> on_done_;
    std::vector<bool> sm_enabled_;
    std::uint32_t baseline_ = 0;
    std::uint32_t total_ = 0;
    std::uint32_t next_block_ = 0;
    std::uint32_t finished_ = 0;
};

} // namespace bauvm

#endif // BAUVM_GPU_BLOCK_DISPATCHER_H_
