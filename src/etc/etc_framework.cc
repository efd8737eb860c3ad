#include "src/etc/etc_framework.h"

#include <algorithm>

#include "src/sim/log.h"

namespace bauvm
{

EtcFramework::EtcFramework(const EtcConfig &config, EtcAppClass app_class,
                           GpuMemoryManager &manager,
                           MemoryHierarchy &hierarchy, UvmRuntime &runtime,
                           BlockDispatcher &dispatcher,
                           std::uint32_t num_sms)
    : config_(config), app_class_(app_class), manager_(manager),
      hierarchy_(hierarchy), runtime_(runtime), dispatcher_(dispatcher),
      num_sms_(num_sms), active_sms_(num_sms)
{
}

void
EtcFramework::applyStatic()
{
    if (config_.capacity_compression) {
        if (!manager_.unlimited()) {
            const auto grown = static_cast<std::uint64_t>(
                static_cast<double>(manager_.capacityPages()) *
                config_.compression_ratio);
            manager_.setCapacityPages(std::max<std::uint64_t>(grown, 1));
        }
        hierarchy_.setExtraL2Latency(config_.compression_latency);
    }
    // PE is only sensible for regular applications; the paper (and the
    // ETC authors) disable it for irregular ones.
    if (config_.proactive_eviction &&
        app_class_ != EtcAppClass::Irregular) {
        runtime_.enableProactiveEviction(0.95);
    }
}

void
EtcFramework::setActiveSms(std::uint32_t target)
{
    target = std::max<std::uint32_t>(2, std::min(target, num_sms_));
    if (target == active_sms_)
        return;
    for (std::uint32_t s = 0; s < num_sms_; ++s)
        dispatcher_.setSmEnabled(s, s < target);
    active_sms_ = target;
    ++transitions_;
}

std::uint32_t
EtcFramework::throttledSms() const
{
    return num_sms_ - active_sms_;
}

void
EtcFramework::onBatchEnd(Cycle now)
{
    if (!config_.memory_aware_throttling ||
        app_class_ == EtcAppClass::RegularNoSharing) {
        return;
    }

    if (!triggered_) {
        if (manager_.evictions() == 0)
            return;
        // Oversubscription detected: static initial throttle of half
        // the SMs, then epoch-based adaptation.
        triggered_ = true;
        setActiveSms(num_sms_ / 2);
        epoch_start_ = now;
        epoch_premature_base_ = manager_.prematureEvictions();
        epoch_eviction_base_ = manager_.evictions();
        prev_thrash_ = -1.0;
        return;
    }

    if (now - epoch_start_ < config_.epoch_cycles)
        return;

    const std::uint64_t prem =
        manager_.prematureEvictions() - epoch_premature_base_;
    const std::uint64_t evs =
        manager_.evictions() - epoch_eviction_base_;
    const double thrash =
        evs ? static_cast<double>(prem) / static_cast<double>(evs) : 0.0;

    if (prev_thrash_ >= 0.0) {
        // MT toggles between full and half the SMs (the static 50%
        // throttle of the ETC paper); it never throttles deeper.
        if (thrash > prev_thrash_ * 1.05) {
            setActiveSms(num_sms_ / 2);
        } else if (thrash < prev_thrash_ * 0.5 || thrash == 0.0) {
            setActiveSms(num_sms_);
        }
    }
    prev_thrash_ = thrash;
    epoch_start_ = now;
    epoch_premature_base_ = manager_.prematureEvictions();
    epoch_eviction_base_ = manager_.evictions();
}

} // namespace bauvm
