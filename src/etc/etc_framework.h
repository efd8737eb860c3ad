/**
 * @file
 * ETC baseline (Li et al., ASPLOS'19): the memory-oversubscription
 * framework the paper compares against.
 *
 * ETC classifies applications and applies three techniques. For the
 * irregular applications evaluated here (following the paper, which
 * replicates the ETC authors' own choice):
 *  - Proactive Eviction (PE) is DISABLED — its timing prediction breaks
 *    down when many pages are touched in a short window;
 *  - Memory-aware Throttling (MT) statically throttles half the SMs
 *    when oversubscription is detected, then alternates detection and
 *    execution epochs, throttling further when thrashing worsens and
 *    unthrottling when it subsides;
 *  - Capacity Compression (CC) grows the effective device-memory
 *    capacity by the compression ratio at the cost of extra latency on
 *    every L2 access.
 */

#ifndef BAUVM_ETC_ETC_FRAMEWORK_H_
#define BAUVM_ETC_ETC_FRAMEWORK_H_

#include <cstdint>

#include "src/gpu/block_dispatcher.h"
#include "src/mem/memory_hierarchy.h"
#include "src/sim/config.h"
#include "src/sim/types.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/uvm_runtime.h"

namespace bauvm
{

/** Application classes ETC distinguishes. */
enum class EtcAppClass {
    RegularNoSharing,
    RegularWithSharing,
    Irregular,
};

/** Runtime controller implementing MT + CC (+ optional PE). */
class EtcFramework
{
  public:
    EtcFramework(const EtcConfig &config, EtcAppClass app_class,
                 GpuMemoryManager &manager, MemoryHierarchy &hierarchy,
                 UvmRuntime &runtime, BlockDispatcher &dispatcher,
                 std::uint32_t num_sms);

    /**
     * Applies the static parts (CC capacity/latency, PE arming) after
     * the workload footprint set the base capacity. Call once, after
     * GpuMemoryManager::setCapacityPages.
     */
    void applyStatic();

    /** Batch-end hook driving MT's epoch state machine. */
    void onBatchEnd(Cycle now);

    std::uint32_t throttledSms() const;
    std::uint64_t throttleTransitions() const { return transitions_; }

  private:
    void setActiveSms(std::uint32_t target);

    EtcConfig config_;
    EtcAppClass app_class_;
    GpuMemoryManager &manager_;
    MemoryHierarchy &hierarchy_;
    UvmRuntime &runtime_;
    BlockDispatcher &dispatcher_;
    std::uint32_t num_sms_;

    bool triggered_ = false;
    std::uint32_t active_sms_;
    Cycle epoch_start_ = 0;
    std::uint64_t epoch_premature_base_ = 0;
    std::uint64_t epoch_eviction_base_ = 0;
    double prev_thrash_ = -1.0;
    std::uint64_t transitions_ = 0;
};

} // namespace bauvm

#endif // BAUVM_ETC_ETC_FRAMEWORK_H_
