#include "src/check/model_auditor.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/core/system.h"
#include "src/sim/event_queue.h"
#include "src/sim/log.h"
#include "src/trace/trace_sink.h"

namespace bauvm
{

namespace
{

/** printf into a std::string (diagnostics are off the hot path). */
std::string
format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, ap);
        out.resize(static_cast<std::size_t>(n));
    }
    va_end(ap);
    return out;
}

/** Number of trace-ring records appended to a diagnostic. */
constexpr std::uint64_t kDiagnosticTraceTail = 16;

} // namespace

ModelAuditor::ModelAuditor(const UvmConfig &config,
                           const EventQueue *clock,
                           const TraceSink *trace)
    : config_(config), clock_(clock), trace_(trace)
{
}

void
ModelAuditor::setContext(std::string context)
{
    context_ = std::move(context);
}

const char *
ModelAuditor::batchStateName(BatchState s)
{
    switch (s) {
      case BatchState::Idle:
        return "Idle";
      case BatchState::InterruptPending:
        return "InterruptPending";
      case BatchState::BatchActive:
        return "BatchActive";
    }
    return "?";
}

std::string
ModelAuditor::describe(const ShadowPage &p) const
{
    return format("{resident=%d in_h2d=%d in_d2h=%d}", p.resident,
                  p.in_h2d, p.in_d2h);
}

void
ModelAuditor::compact(PageNum vpn)
{
    auto it = pages_.find(vpn);
    if (it != pages_.end() && it->second.empty())
        pages_.erase(it);
}

void
ModelAuditor::fail(const char *invariant, PageNum vpn,
                   const std::string &expected,
                   const std::string &observed)
{
    std::string msg =
        format("ModelAuditor: invariant '%s' violated\n", invariant);
    msg += format("  cell:     %s\n", context_.c_str());
    msg += format("  cycle:    %" PRIu64 "\n",
                  clock_ ? clock_->now() : 0);
    msg += format("  page:     %" PRIu64 "\n", vpn);
    msg += format("  expected: %s\n", expected.c_str());
    msg += format("  observed: %s", observed.c_str());
    if (trace_ && trace_->size() > 0) {
        const std::uint64_t n =
            std::min<std::uint64_t>(trace_->size(), kDiagnosticTraceTail);
        msg += format("\n  trace tail (last %" PRIu64 " of %" PRIu64
                      " records):",
                      n, trace_->size());
        for (std::uint64_t i = trace_->size() - n; i < trace_->size();
             ++i) {
            const TraceRecord &r = trace_->at(i);
            msg += format("\n    [%" PRIu64 ", %" PRIu64 "] %s %s "
                          "arg0=%" PRIu64 " arg1=%u",
                          r.begin, r.end,
                          traceTrackName(r.track).c_str(),
                          traceEventTypeName(r.eventType()), r.arg0,
                          r.arg1);
        }
    }
    panic("%s", msg.c_str());
}

// ---- GpuMemoryManager sites ----------------------------------------

void
ModelAuditor::onCapacitySet(std::uint64_t capacity_pages)
{
    if (!holds(capacity_pages == 0 || capacity_pages >= committed_))
        fail("occupancy-conservation", 0,
             format("new capacity >= %" PRIu64 " committed frames",
                    committed_),
             format("capacity shrunk to %" PRIu64, capacity_pages));
    capacity_pages_ = capacity_pages;
}

void
ModelAuditor::setTenantDirectory(const TenantDirectory *dir)
{
    dir_ = dir;
    committed_by_.assign(dir ? dir->size() : 0, 0);
}

void
ModelAuditor::onFrameReserved(std::uint64_t observed_committed,
                              TenantId tenant)
{
    if (capacity_pages_ != 0) {
        ++committed_;
        if (!holds(committed_ <= capacity_pages_))
            fail("occupancy-conservation", 0,
                 format("committed frames <= capacity %" PRIu64,
                        capacity_pages_),
                 format("reservation raised committed to %" PRIu64,
                        committed_));
    }
    if (!holds(observed_committed == committed_))
        fail("occupancy-conservation", 0,
             format("manager status tracker == shadow %" PRIu64,
                    committed_),
             format("manager reports %" PRIu64 " committed frames",
                    observed_committed));
    if (dir_ && tenant != kNoTenant) {
        ++committed_by_[tenant];
        if (dir_->policy() == SharePolicy::StrictQuota) {
            const std::uint64_t quota =
                dir_->context(tenant).quota_pages;
            if (!holds(committed_by_[tenant] <= quota))
                fail("tenant-quota", tenant,
                     format("tenant %u committed frames <= quota %" PRIu64,
                            static_cast<unsigned>(tenant), quota),
                     format("reservation raised tenant frames to %" PRIu64,
                            committed_by_[tenant]));
        }
        std::uint64_t sum = 0;
        for (std::uint64_t c : committed_by_)
            sum += c;
        if (!holds(sum <= committed_))
            fail("tenant-occupancy", tenant,
                 format("per-tenant frames sum <= global %" PRIu64,
                        committed_),
                 format("tenant frames sum to %" PRIu64, sum));
    }
}

void
ModelAuditor::onPreload(PageNum vpn)
{
    ShadowPage &p = page(vpn);
    if (!holds(p.empty()))
        fail("page-residency", vpn,
             "preload of a host-resident page with no transfer in flight",
             format("preload of page in state %s", describe(p).c_str()));
    p.in_h2d = true;
    ++in_flight_h2d_;
}

void
ModelAuditor::onPageCommitted(PageNum vpn, Cycle now,
                              std::uint64_t observed_committed)
{
    (void)now;
    ShadowPage &p = page(vpn);
    if (!holds(!p.resident))
        fail("page-residency", vpn,
             "commit of a page that is not yet device-resident",
             format("double commit: page already in state %s",
                    describe(p).c_str()));
    if (!holds(p.in_h2d))
        fail("page-residency", vpn,
             "commit of a page with an inbound transfer in flight",
             format("commit without a scheduled migration (state %s)",
                    describe(p).c_str()));
    p.in_h2d = false;
    p.resident = true;
    --in_flight_h2d_;
    ++resident_count_;
    ++commits_;
    if (dir_) {
        if (!holds(dir_->tenantOf(vpn) != kNoTenant))
            fail("tenant-slice", vpn,
                 "committed page inside a registered tenant VA slice",
                 "page outside every tenant slice");
    }
    if (!holds(observed_committed == committed_))
        fail("occupancy-conservation", vpn,
             format("manager status tracker == shadow %" PRIu64,
                    committed_),
             format("manager reports %" PRIu64 " committed frames at "
                    "commit",
                    observed_committed));
}

void
ModelAuditor::onEvictionBegin(PageNum vpn, Cycle now,
                              std::uint64_t observed_committed)
{
    (void)now;
    ShadowPage &p = page(vpn);
    if (!holds(p.resident))
        fail("page-residency", vpn,
             "eviction victim is device-resident",
             format("eviction of page in state %s%s", describe(p).c_str(),
                    p.in_d2h ? " (double eviction)"
                             : " (non-resident victim)"));
    p.resident = false;
    p.in_d2h = true;
    --resident_count_;
    ++in_flight_d2h_;
    ++evictions_;
    // The frame stays committed until the D2H transfer completes.
    if (!holds(observed_committed == committed_))
        fail("occupancy-conservation", vpn,
             format("manager status tracker == shadow %" PRIu64,
                    committed_),
             format("manager reports %" PRIu64 " committed frames at "
                    "eviction begin",
                    observed_committed));
}

void
ModelAuditor::onEvictionComplete(PageNum vpn,
                                 std::uint64_t observed_committed)
{
    ShadowPage &p = page(vpn);
    if (!holds(p.in_d2h))
        fail("page-residency", vpn,
             "eviction completion matches an eviction in flight",
             format("eviction completion for page in state %s",
                    describe(p).c_str()));
    p.in_d2h = false;
    --in_flight_d2h_;
    compact(vpn);
    if (dir_) {
        const TenantId owner = dir_->tenantOf(vpn);
        if (owner != kNoTenant) {
            if (!holds(committed_by_[owner] > 0))
                fail("tenant-occupancy", vpn,
                     format("tenant %u holds a frame to release",
                            static_cast<unsigned>(owner)),
                     "eviction completion with zero tenant frames");
            --committed_by_[owner];
        }
    }
    if (capacity_pages_ != 0) {
        if (!holds(committed_ > 0))
            fail("occupancy-conservation", vpn,
                 "a committed frame to release",
                 "eviction completion with zero committed frames");
        --committed_;
    }
    if (!holds(observed_committed == committed_))
        fail("occupancy-conservation", vpn,
             format("manager status tracker == shadow %" PRIu64,
                    committed_),
             format("manager reports %" PRIu64 " committed frames after "
                    "eviction",
                    observed_committed));
}

// ---- UvmRuntime sites ----------------------------------------------

void
ModelAuditor::onInterruptRaised(Cycle now)
{
    (void)now;
    if (!holds(batch_ == BatchState::Idle))
        fail("batch-lifecycle", 0,
             "fault interrupt raised while the runtime is Idle",
             format("interrupt raised in state %s",
                    batchStateName(batch_)));
    batch_ = BatchState::InterruptPending;
}

void
ModelAuditor::onBatchBegin(Cycle now, bool chained)
{
    (void)now;
    if (chained) {
        if (!holds(batch_ == BatchState::Idle))
            fail("batch-lifecycle", 0,
                 "chained batch begins right after the previous batch "
                 "ended",
                 format("chained batch begin in state %s",
                        batchStateName(batch_)));
    } else {
        if (!holds(batch_ == BatchState::InterruptPending))
            fail("batch-lifecycle", 0,
                 "batch begins from a pending fault interrupt",
                 format("batch begin in state %s (no interrupt round "
                        "trip)",
                        batchStateName(batch_)));
    }
    batch_ = BatchState::BatchActive;
    ++batches_;
    migrations_this_batch_ = 0;
}

void
ModelAuditor::onPreemptiveEviction(Cycle now)
{
    (void)now;
    if (!holds(batch_ == BatchState::BatchActive))
        fail("batch-lifecycle", 0,
             "UE preemptive eviction inside an active batch",
             format("preemptive eviction in state %s",
                    batchStateName(batch_)));
    if (!holds(migrations_this_batch_ == 0))
        fail("batch-lifecycle", 0,
             "UE preemptive eviction only at batch start (top-half ISR, "
             "before any migration)",
             format("preemptive eviction after %" PRIu64
                    " migrations of the batch",
                    migrations_this_batch_));
}

void
ModelAuditor::onMigrationScheduled(PageNum vpn, Cycle now,
                                   Cycle wire_begin, Cycle wire_end,
                                   std::uint64_t wire_bytes)
{
    if (!holds(batch_ == BatchState::BatchActive))
        fail("batch-lifecycle", vpn,
             "migrations are scheduled only inside an active batch",
             format("migration scheduled in state %s",
                    batchStateName(batch_)));
    ShadowPage &p = page(vpn);
    if (!holds(!p.resident && !p.in_h2d))
        fail("page-residency", vpn,
             "migration of a host-resident page with no inbound transfer "
             "in flight",
             format("migration of page in state %s%s",
                    describe(p).c_str(),
                    p.in_h2d ? " (double migration)"
                    : p.resident ? " (already resident)"
                                 : ""));
    p.in_h2d = true;
    ++in_flight_h2d_;
    ++migrations_this_batch_;
    sched_h2d_bytes_ += wire_bytes;
    if (!holds(wire_begin >= now && wire_end > wire_begin))
        fail("pcie-conservation", vpn,
             format("transfer window starts at/after cycle %" PRIu64
                    " and has positive length",
                    now),
             format("window [%" PRIu64 ", %" PRIu64 "]", wire_begin,
                    wire_end));
}

void
ModelAuditor::onEvictionTransfer(PageNum vpn, Cycle wire_begin,
                                 Cycle wire_end,
                                 std::uint64_t wire_bytes)
{
    ShadowPage &p = page(vpn);
    if (!holds(p.in_d2h))
        fail("page-residency", vpn,
             "eviction transfer for a page whose eviction began",
             format("eviction transfer for page in state %s",
                    describe(p).c_str()));
    sched_d2h_bytes_ += wire_bytes;
    if (!holds(wire_end > wire_begin))
        fail("pcie-conservation", vpn,
             "positive transfer length",
             format("window [%" PRIu64 ", %" PRIu64 "]", wire_begin,
                    wire_end));
}

void
ModelAuditor::onBatchEnd(Cycle now, std::uint32_t fault_pages,
                         std::uint32_t prefetch_pages)
{
    (void)now;
    if (!holds(batch_ == BatchState::BatchActive))
        fail("batch-lifecycle", 0,
             "batch end closes an active batch",
             format("batch end in state %s", batchStateName(batch_)));
    const std::uint64_t expected =
        static_cast<std::uint64_t>(fault_pages) + prefetch_pages;
    if (!holds(migrations_this_batch_ == expected))
        fail("batch-lifecycle", 0,
             format("batch migrated exactly its %" PRIu64
                    " demand+prefetch pages",
                    expected),
             format("%" PRIu64 " migrations were scheduled",
                    migrations_this_batch_));
    batch_ = BatchState::Idle;
}

// ---- FaultBuffer sites ---------------------------------------------

void
ModelAuditor::onFaultBuffered(PageNum vpn, Cycle now,
                              std::size_t observed_entries,
                              std::size_t observed_overflow)
{
    (void)now;
    // Shadow replica of the buffer's merge/overflow policy.
    if (fb_entries_.count(vpn) == 0) {
        if (fb_entries_.size() >= config_.fault_buffer_entries) {
            if (std::find(fb_overflow_.begin(), fb_overflow_.end(),
                          vpn) == fb_overflow_.end())
                fb_overflow_.push_back(vpn);
        } else {
            fb_entries_.insert(vpn);
        }
    }
    if (!holds(observed_entries == fb_entries_.size() &&
                   observed_overflow == fb_overflow_.size()))
        fail("fault-buffer-accounting", vpn,
             format("buffer holds %zu entries + %zu overflowed faults",
                    fb_entries_.size(), fb_overflow_.size()),
             format("buffer reports %zu entries + %zu overflowed",
                    observed_entries, observed_overflow));
}

void
ModelAuditor::onFaultDrained(std::size_t drained,
                             std::size_t observed_entries,
                             std::size_t observed_overflow)
{
    if (!holds(drained == fb_entries_.size()))
        fail("fault-buffer-accounting", 0,
             format("drain returns the %zu buffered entries",
                    fb_entries_.size()),
             format("drain returned %zu records", drained));
    fb_entries_.clear();
    while (!fb_overflow_.empty() &&
           fb_entries_.size() < config_.fault_buffer_entries) {
        fb_entries_.insert(fb_overflow_.front());
        fb_overflow_.erase(fb_overflow_.begin());
    }
    if (!holds(observed_entries == fb_entries_.size() &&
                   observed_overflow == fb_overflow_.size()))
        fail("fault-buffer-accounting", 0,
             format("post-drain refill leaves %zu entries + %zu "
                    "overflowed",
                    fb_entries_.size(), fb_overflow_.size()),
             format("buffer reports %zu entries + %zu overflowed",
                    observed_entries, observed_overflow));
}

// ---- PcieLink sites ------------------------------------------------

void
ModelAuditor::onPcieTransfer(bool h2d, std::uint64_t bytes, Cycle begin,
                             Cycle end)
{
    Cycle &last = h2d ? h2d_last_begin_ : d2h_last_begin_;
    if (!holds(begin >= last))
        fail("pcie-conservation", 0,
             format("%s transfers start in FIFO order (previous began at "
                    "%" PRIu64 ")",
                    h2d ? "H2D" : "D2H", last),
             format("transfer begins at %" PRIu64, begin));
    if (!holds(end > begin))
        fail("pcie-conservation", 0,
             "positive transfer length",
             format("window [%" PRIu64 ", %" PRIu64 "]", begin, end));
    last = begin;
    (h2d ? link_h2d_bytes_ : link_d2h_bytes_) += bytes;
}

// ---- MemoryHierarchy / TLB sites -----------------------------------

void
ModelAuditor::onTranslationHit(PageNum vpn)
{
    auto it = pages_.find(vpn);
    const bool resident = it != pages_.end() && it->second.resident;
    if (!holds(resident))
        fail("tlb-coherence", vpn,
             "TLB hits serve only device-resident pages",
             format("TLB hit for page in state %s (stale translation "
                    "survived an eviction shootdown)",
                    it == pages_.end() ? "{host}"
                                       : describe(it->second).c_str()));
}

void
ModelAuditor::onTranslationInsert(PageNum vpn)
{
    auto it = pages_.find(vpn);
    const bool resident = it != pages_.end() && it->second.resident;
    if (!holds(resident))
        fail("tlb-coherence", vpn,
             "translations are cached only for device-resident pages",
             format("TLB insert for page in state %s",
                    it == pages_.end() ? "{host}"
                                       : describe(it->second).c_str()));
    ++cached_translations_[vpn];
}

void
ModelAuditor::onTranslationInvalidate(PageNum vpn)
{
    ++checks_; // shootdowns are always legal; count the observation
    cached_translations_.erase(vpn);
}

void
ModelAuditor::onWalkResolved(PageNum vpn, Cycle now,
                             bool observed_fault)
{
    (void)now;
    auto it = pages_.find(vpn);
    const bool resident = it != pages_.end() && it->second.resident;
    if (!holds(observed_fault == !resident))
        fail("tlb-coherence", vpn,
             format("page-table walk agrees with shadow residency "
                    "(resident=%d)",
                    resident),
             format("walk resolved %s",
                    observed_fault ? "a fault" : "a translation"));
}

// ---- end of run ----------------------------------------------------

void
ModelAuditor::finalize(const RunResult &result,
                       std::uint64_t observed_committed,
                       std::size_t observed_resident)
{
    if (!holds(in_flight_h2d_ == 0))
        fail("page-residency", 0,
             "no inbound transfer outlives the run",
             format("%zu pages still in flight H2D", in_flight_h2d_));
    if (!holds(in_flight_d2h_ == 0))
        fail("page-residency", 0,
             "no eviction transfer outlives the run",
             format("%zu pages still in flight D2H", in_flight_d2h_));
    if (!holds(batch_ == BatchState::Idle))
        fail("batch-lifecycle", 0,
             "the batch machinery drained to Idle",
             format("run ended in state %s", batchStateName(batch_)));
    if (!holds(fb_entries_.empty() && fb_overflow_.empty()))
        fail("fault-buffer-accounting", 0,
             "every buffered fault was batched",
             format("%zu entries + %zu overflowed faults leaked",
                    fb_entries_.size(), fb_overflow_.size()));
    if (!holds(observed_resident == resident_count_))
        fail("occupancy-conservation", 0,
             format("page table holds the %zu shadow-resident pages",
                    resident_count_),
             format("page table reports %zu resident pages",
                    observed_resident));
    if (capacity_pages_ != 0) {
        if (!holds(observed_committed == committed_ &&
                       committed_ == resident_count_))
            fail("occupancy-conservation", 0,
                 format("committed == resident == %zu at run end",
                        resident_count_),
                 format("manager reports %" PRIu64
                        " committed, shadow %" PRIu64,
                        observed_committed, committed_));
    }
    if (!holds(result.migrations == commits_))
        fail("occupancy-conservation", 0,
             format("RunResult.migrations == %" PRIu64 " shadow commits",
                    commits_),
             format("RunResult reports %" PRIu64, result.migrations));
    if (!holds(result.evictions == evictions_))
        fail("occupancy-conservation", 0,
             format("RunResult.evictions == %" PRIu64 " shadow evictions",
                    evictions_),
             format("RunResult reports %" PRIu64, result.evictions));
    if (!holds(result.batches == batches_))
        fail("batch-lifecycle", 0,
             format("RunResult.batches == %" PRIu64 " shadow batches",
                    batches_),
             format("RunResult reports %" PRIu64, result.batches));
    if (!holds(link_h2d_bytes_ == sched_h2d_bytes_ &&
                   result.pcie_h2d_bytes == link_h2d_bytes_))
        fail("pcie-conservation", 0,
             format("H2D bytes conserved: scheduled %" PRIu64
                    " == link %" PRIu64 " == reported",
                    sched_h2d_bytes_, link_h2d_bytes_),
             format("RunResult reports %" PRIu64 " H2D bytes",
                    result.pcie_h2d_bytes));
    if (!holds(link_d2h_bytes_ == sched_d2h_bytes_ &&
                   result.pcie_d2h_bytes == link_d2h_bytes_))
        fail("pcie-conservation", 0,
             format("D2H bytes conserved: scheduled %" PRIu64
                    " == link %" PRIu64 " == reported",
                    sched_d2h_bytes_, link_d2h_bytes_),
             format("RunResult reports %" PRIu64 " D2H bytes",
                    result.pcie_d2h_bytes));
}

} // namespace bauvm
