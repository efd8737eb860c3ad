#include "src/uvm/uvm_runtime.h"

#include <algorithm>
#include <iterator>

#include "src/check/model_auditor.h"
#include "src/sim/log.h"

namespace bauvm
{

UvmRuntime::UvmRuntime(const UvmConfig &config, EventQueue &events,
                       GpuMemoryManager &manager,
                       MemoryHierarchy &hierarchy, const SimHooks &hooks)
    : hooks_(hooks), config_(config), events_(events), manager_(manager),
      hierarchy_(hierarchy), meta_(manager.pageTable().meta()),
      fault_buffer_(config.fault_buffer_entries, meta_, hooks),
      pcie_(config, hooks),
      pcie_compression_(config.pcie_compression_ratio),
      prefetcher_(
          config,
          [this](PageNum vpn) {
              return manager_.isResident(vpn) || meta_.inFlight(vpn);
          },
          [this](PageNum vpn) { return meta_.valid(vpn); },
          hooks),
      handling_cycles_(usToCycles(config.fault_handling_us)),
      interrupt_cycles_(usToCycles(config.interrupt_latency_us))
{
}

void
UvmRuntime::setTenantDirectory(const TenantDirectory *dir)
{
    dir_ = dir;
    demand_by_.assign(dir ? dir->size() : 0, 0);
}

void
UvmRuntime::registerAllocation(VAddr base, std::uint64_t bytes)
{
    const PageNum first = base / config_.page_bytes;
    const PageNum last = (base + bytes - 1) / config_.page_bytes;
    for (PageNum vpn = first; vpn <= last; ++vpn)
        meta_.ensure(vpn).setValid(true);
}

void
UvmRuntime::appendWaiter(PageNum vpn, WakeFn waiter)
{
    std::uint32_t idx;
    if (waiter_free_ != PageMeta::kNoIndex) {
        idx = waiter_free_;
        waiter_free_ = waiter_slab_[idx].next;
    } else {
        idx = static_cast<std::uint32_t>(waiter_slab_.size());
        waiter_slab_.emplace_back();
    }
    WaiterNode &node = waiter_slab_[idx];
    node.fn = std::move(waiter);
    node.next = PageMeta::kNoIndex;

    PageMeta &m = meta_.ensure(vpn);
    if (m.waiter_tail != PageMeta::kNoIndex)
        waiter_slab_[m.waiter_tail].next = idx;
    else
        m.waiter_head = idx;
    m.waiter_tail = idx;
}

void
UvmRuntime::wakeWaiters(PageNum vpn, Cycle now)
{
    const PageMeta *m = meta_.find(vpn);
    if (m == nullptr || m->waiter_head == PageMeta::kNoIndex)
        return;
    // Detach the whole list first: a woken warp may refault and
    // re-register on the same page, which must start a fresh list.
    std::uint32_t i = m->waiter_head;
    PageMeta &mut = meta_.at(vpn);
    mut.waiter_head = mut.waiter_tail = PageMeta::kNoIndex;
    while (i != PageMeta::kNoIndex) {
        // Recycle the node before invoking: the callback may append
        // new waiters (possibly growing the slab), so take everything
        // we need out of the node first and touch it no more.
        WakeFn fn = std::move(waiter_slab_[i].fn);
        const std::uint32_t next = waiter_slab_[i].next;
        waiter_slab_[i].next = waiter_free_;
        waiter_free_ = i;
        fn(now);
        i = next;
    }
}

void
UvmRuntime::radixSortAscending(std::vector<PageNum> &keys)
{
    const std::size_t n = keys.size();
    if (n < 2)
        return;
    PageNum max_key = 0;
    for (const PageNum k : keys)
        max_key = std::max(max_key, k);
    radix_scratch_.resize(n);
    std::vector<PageNum> *src = &keys;
    std::vector<PageNum> *dst = &radix_scratch_;
    for (std::uint32_t shift = 0;
         shift < 64 && (max_key >> shift) != 0; shift += 8) {
        std::size_t counts[256] = {};
        for (std::size_t i = 0; i < n; ++i)
            ++counts[((*src)[i] >> shift) & 0xff];
        std::size_t pos = 0;
        for (std::size_t d = 0; d < 256; ++d) {
            const std::size_t c = counts[d];
            counts[d] = pos;
            pos += c;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const PageNum k = (*src)[i];
            (*dst)[counts[(k >> shift) & 0xff]++] = k;
        }
        std::swap(src, dst);
    }
    if (src != &keys)
        keys.swap(radix_scratch_);
}

void
UvmRuntime::enableProactiveEviction(double target)
{
    proactive_eviction_ = true;
    proactive_target_ = target;
}

double
UvmRuntime::averageBatchPages() const
{
    if (records_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : records_)
        sum += r.fault_pages;
    return sum / static_cast<double>(records_.size());
}

double
UvmRuntime::averageProcessingTime() const
{
    if (records_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : records_)
        sum += static_cast<double>(r.processingTime());
    return sum / static_cast<double>(records_.size());
}

double
UvmRuntime::averageHandlingTime() const
{
    if (records_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : records_)
        sum += static_cast<double>(r.handlingTime());
    return sum / static_cast<double>(records_.size());
}

void
UvmRuntime::onPageFault(PageNum vpn, WakeFn waiter)
{
    const Cycle now = events_.now();
    if (manager_.isResident(vpn)) {
        // The page arrived between fault detection and registration
        // (an earlier waiter's batch already migrated it): replay now.
        waiter(now);
        return;
    }
    appendWaiter(vpn, std::move(waiter));
    if (meta_.inFlight(vpn)) {
        // Already queued in the active batch; the waiter joins it.
        return;
    }
    fault_buffer_.insert(vpn, now, tenantFor(vpn));
    if (state_ == State::Idle) {
        state_ = State::InterruptPending;
        if (hooks_.audit)
            hooks_.audit->onInterruptRaised(now);
        events_.scheduleAfter(interrupt_cycles_, [this] { batchBegin(); });
    }
}

void
UvmRuntime::batchBegin()
{
    // Chained: entered straight from batchEnd() with no interrupt
    // round trip (state still BatchActive at the call).
    if (hooks_.audit) {
        hooks_.audit->onBatchBegin(events_.now(),
                                   state_ == State::BatchActive);
    }
    state_ = State::BatchActive;
    current_ = BatchRecord{};
    current_.begin = events_.now();
    first_transfer_seen_ = false;
    mig_idx_ = 0;
    arrivals_pending_ = 0;

    // Unobtrusive Eviction's top-half: consult the memory status tracker
    // and kick one preemptive eviction before preprocessing even starts,
    // so the first migration never waits on an eviction.
    if (config_.unobtrusive_eviction && !config_.ideal_eviction &&
        manager_.atCapacity() && evictions_in_flight_ == 0) {
        if (hooks_.audit)
            hooks_.audit->onPreemptiveEviction(events_.now());
        launchEviction(events_.now());
    }

    fault_buffer_.drainInto(drained_batch_);
    demand_.clear();
    // SoA preprocessing: residency scan over the vpn array (waking
    // already-resident pages in drain order, exactly as the AoS loop
    // did), with duplicate/tenant accounting off the parallel arrays.
    const std::size_t drained = drained_batch_.size();
    for (std::size_t i = 0; i < drained; ++i) {
        const PageNum vpn = drained_batch_.vpns[i];
        if (manager_.isResident(vpn)) {
            // Resolved by a prefetch of a previous batch: replay.
            wakeWaiters(vpn, events_.now());
            continue;
        }
        demand_.push_back(vpn);
        current_.duplicate_faults += drained_batch_.duplicates[i] - 1;
        if (dir_ && drained_batch_.tenants[i] != kNoTenant)
            ++demand_by_[drained_batch_.tenants[i]];
    }
    // Distinct keys (the buffer deduplicates per page), bounded by the
    // allocation footprint: radix order == std::sort order.
    radixSortAscending(demand_);

    prefetch_.clear();
    if (config_.prefetch_enabled)
        prefetcher_.computePrefetchesInto(demand_, &prefetch_);

    current_.fault_pages = static_cast<std::uint32_t>(demand_.size());
    current_.prefetch_pages =
        static_cast<std::uint32_t>(prefetch_.size());
    demand_pages_ += demand_.size();
    prefetched_pages_ += prefetch_.size();

    migration_queue_.clear();
    migration_queue_.reserve(demand_.size() + prefetch_.size());
    std::merge(demand_.begin(), demand_.end(), prefetch_.begin(),
               prefetch_.end(), std::back_inserter(migration_queue_));
    for (PageNum vpn : migration_queue_)
        meta_.ensure(vpn).setInFlight(true);

    // Preprocessing (sort, prefetch analysis, CPU page-table walks):
    // the GPU runtime fault handling time, with a per-fault component
    // for the CPU-side table walks.
    const Cycle handling =
        handling_cycles_ +
        usToCycles(config_.fault_handling_per_page_us) *
            current_.fault_pages;
    if (hooks_.trace) {
        hooks_.trace->interval(TraceEventType::FaultHandling,
                               kTraceTrackRuntime, current_.begin,
                               current_.begin + handling,
                               current_.fault_pages);
    }
    BAUVM_DLOG("UvmRuntime: batch %llu begins at cycle %llu: %u demand "
               "+ %u prefetch pages (%u duplicate faults)",
               static_cast<unsigned long long>(records_.size() + 1),
               static_cast<unsigned long long>(current_.begin),
               current_.fault_pages, current_.prefetch_pages,
               current_.duplicate_faults);
    events_.scheduleAfter(handling, [this] { pumpMigrations(); });
}

bool
UvmRuntime::launchEviction(Cycle earliest, TenantId cause)
{
    PageNum victim;
    if (!manager_.beginEvictionFor(cause, &victim, events_.now()))
        return false;
    hierarchyFor(victim).invalidatePage(victim);
    ++evictions_in_flight_;
    if (config_.ideal_eviction) {
        manager_.completeEviction(victim);
        --evictions_in_flight_;
        return true;
    }
    const std::uint64_t bytes = pcie_compression_.compressedBytes(
        victim, config_.page_bytes);
    Cycle begin = 0;
    const Cycle done = pcie_.transfer(PcieDir::DeviceToHost, bytes,
                                      earliest, &begin);
    if (hooks_.trace) {
        hooks_.trace->interval(TraceEventType::Eviction,
                               kTraceTrackPcieD2h, begin, done,
                               victim,
                               static_cast<std::uint32_t>(bytes));
    }
    if (hooks_.audit)
        hooks_.audit->onEvictionTransfer(victim, begin, done, bytes);
    events_.scheduleAt(done,
                       [this, victim] { onEvictionComplete(victim); });
    return true;
}

void
UvmRuntime::scheduleMigration(PageNum vpn)
{
    manager_.reserveFrame(tenantFor(vpn));
    const std::uint64_t bytes = pcie_compression_.compressedBytes(
        vpn, config_.page_bytes);
    Cycle start = 0;
    const Cycle done = pcie_.transfer(PcieDir::HostToDevice, bytes,
                                      events_.now(), &start);
    if (hooks_.trace) {
        hooks_.trace->interval(TraceEventType::Migration,
                               kTraceTrackPcieH2d, start, done, vpn,
                               static_cast<std::uint32_t>(bytes));
    }
    if (hooks_.audit) {
        hooks_.audit->onMigrationScheduled(vpn, events_.now(),
                                           start, done, bytes);
    }
    if (!first_transfer_seen_) {
        first_transfer_seen_ = true;
        current_.first_transfer = start;
    }
    current_.migrated_bytes += config_.page_bytes;
    ++arrivals_pending_;
    events_.scheduleAt(done, [this, vpn] { onPageArrived(vpn); });
}

void
UvmRuntime::pumpMigrations()
{
    while (mig_idx_ < migration_queue_.size()) {
        // The head page's owner also pays for any eviction its
        // migration needs (the SharePolicy picks whose page goes).
        const TenantId cause = tenantFor(migration_queue_[mig_idx_]);
        if (manager_.hasFreeFrameFor(cause)) {
            scheduleMigration(migration_queue_[mig_idx_++]);
            continue;
        }
        if (config_.ideal_eviction) {
            if (!launchEviction(events_.now(), cause))
                break; // nothing evictable yet; arrivals will re-pump
            continue;
        }
        if (config_.unobtrusive_eviction) {
            // Keep the D2H pipeline just deep enough to hide the
            // eviction latency: the bottom half pairs each migration
            // with the *next* eviction (section 4.2), so victims are
            // selected just in time, one transfer ahead, rather than
            // being flushed out long before their frame is needed.
            const std::uint64_t remaining =
                migration_queue_.size() - mig_idx_;
            const std::uint64_t depth =
                remaining < 2 ? remaining : 2;
            while (evictions_in_flight_ < depth) {
                if (!launchEviction(events_.now(), cause))
                    break;
            }
            break;
        }
        // Baseline (Fig 4): eviction may only start once the previous
        // inbound migration has fully landed, and the next migration
        // waits for the eviction — strict serialization.
        if (evictions_in_flight_ == 0) {
            const Cycle earliest = std::max(
                events_.now(), pcie_.channelFree(PcieDir::HostToDevice));
            if (!launchEviction(earliest, cause) &&
                arrivals_pending_ == 0 && evictions_in_flight_ == 0) {
                panic("UvmRuntime: migration stalled with nothing "
                      "evictable (capacity too small?)");
            }
        }
        break;
    }

    if (mig_idx_ == migration_queue_.size() && arrivals_pending_ == 0 &&
        state_ == State::BatchActive) {
        batchEnd();
    }
}

void
UvmRuntime::onEvictionComplete(PageNum vpn)
{
    manager_.completeEviction(vpn);
    --evictions_in_flight_;
    if (state_ == State::BatchActive)
        pumpMigrations();
    else
        maybeProactiveEvict();
}

void
UvmRuntime::onPageArrived(PageNum vpn)
{
    const Cycle now = events_.now();
    manager_.commitPage(vpn, now);
    meta_.at(vpn).setInFlight(false);
    --arrivals_pending_;

    wakeWaiters(vpn, now);
    pumpMigrations();
}

void
UvmRuntime::batchEnd()
{
    current_.end = events_.now();
    if (!first_transfer_seen_) {
        // Batch with no migrations (all faults raced with prefetches):
        // handling still consumed runtime time.
        current_.first_transfer = current_.end;
    }
    if (hooks_.trace) {
        hooks_.trace->interval(TraceEventType::BatchWindow,
                               kTraceTrackRuntime, current_.begin,
                               current_.end, current_.fault_pages,
                               current_.prefetch_pages);
    }
    if (hooks_.audit) {
        hooks_.audit->onBatchEnd(current_.end, current_.fault_pages,
                                 current_.prefetch_pages);
    }
    BAUVM_DLOG("UvmRuntime: batch %llu ends at cycle %llu "
               "(handling %llu, processing %llu cycles)",
               static_cast<unsigned long long>(records_.size() + 1),
               static_cast<unsigned long long>(current_.end),
               static_cast<unsigned long long>(current_.handlingTime()),
               static_cast<unsigned long long>(
                   current_.processingTime()));
    records_.push_back(current_);

    const OversubAdvice advice =
        manager_.lifetimeTracker().update(events_.now());
    for (const AdviceFn &cb : advice_cbs_) {
        if (cb)
            cb(advice);
    }
    if (batch_end_cb_)
        batch_end_cb_(records_.back());

    if (!fault_buffer_.empty()) {
        // Waiting faults are handled immediately, skipping the
        // interrupt round trip (the driver's optimization).
        batchBegin();
        return;
    }
    state_ = State::Idle;
    maybeProactiveEvict();
}

void
UvmRuntime::maybeProactiveEvict()
{
    if (!proactive_eviction_ || manager_.unlimited() ||
        state_ != State::Idle) {
        return;
    }
    const auto capacity = manager_.capacityPages();
    const auto threshold =
        static_cast<std::uint64_t>(proactive_target_ *
                                   static_cast<double>(capacity));
    if (manager_.committedFrames() > threshold &&
        evictions_in_flight_ == 0) {
        launchEviction(events_.now());
    }
}

} // namespace bauvm
