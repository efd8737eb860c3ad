/**
 * @file
 * The GPU runtime's page-fault batch-processing machinery — the system
 * the paper analyzes (section 2.2, Fig 2) and improves.
 *
 * Lifecycle of a batch:
 *   1. A fault raises an interrupt; after the top-half dispatch latency
 *      the batch begins by draining the whole fault buffer. Faults
 *      arriving afterwards wait for the *next* batch.
 *   2. (Unobtrusive Eviction) the top-half ISR consults the GPU memory
 *      status tracker; at capacity it launches one preemptive eviction
 *      immediately.
 *   3. The runtime preprocesses the batch for the configured fault
 *      handling time (sorting faults, inserting tree-prefetch requests,
 *      CPU-side page-table walks): Table 1 default 20 us.
 *   4. Migrations are scheduled in ascending page order. Baseline: when
 *      allocation fails, eviction and the subsequent migration are
 *      strictly serialized (Fig 4). UE: evictions stream on the
 *      device-to-host channel overlapping inbound migrations (Fig 10).
 *   5. Each arrival maps the page and wakes the waiting warps. After the
 *      last arrival the batch ends; if more faults are pending the next
 *      batch starts immediately (no interrupt round trip).
 *
 * Metadata layout: page validity, in-flight status and the per-page
 * waiter list all live in the shared dense PageMetaTable. Waiter
 * callbacks are pooled in a slab of nodes (InlineFunction storage, free
 * list reuse) linked through PageMeta::waiter_head/tail, and the batch
 * scratch buffers persist across batches — the steady-state fault path
 * performs no heap allocation.
 *
 * Batch preprocessing is structure-of-arrays: the fault buffer drains
 * into a FaultBatch (parallel vpn/cycle/duplicate/tenant arrays), the
 * residency and accounting passes scan those arrays directly, and the
 * demand list is ordered by an LSD radix sort on the bounded VPN key
 * space instead of std::sort — same ascending order, no comparator
 * calls.
 *
 * Observers (trace sink, model auditor) are reached through one
 * SimHooks copy shared with the fault buffer, PCIe link and
 * prefetcher; every emission site is a null check on it.
 */

#ifndef BAUVM_UVM_UVM_RUNTIME_H_
#define BAUVM_UVM_UVM_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/check/sim_hooks.h"
#include "src/mem/memory_hierarchy.h"
#include "src/mem/page_meta.h"
#include "src/mem/tenant_directory.h"
#include "src/sim/config.h"
#include "src/sim/event_queue.h"
#include "src/sim/inline_function.h"
#include "src/sim/types.h"
#include "src/trace/trace_sink.h"
#include "src/uvm/compression.h"
#include "src/uvm/fault_buffer.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/pcie_link.h"
#include "src/uvm/prefetcher.h"

namespace bauvm
{

/** Timing/size record of one processed batch (drives Figs 3, 12-16). */
struct BatchRecord {
    Cycle begin = 0;          //!< batch processing started
    Cycle first_transfer = 0; //!< first H2D transfer began
    Cycle end = 0;            //!< last page of the batch arrived
    std::uint32_t fault_pages = 0;    //!< distinct demand-faulted pages
    std::uint32_t prefetch_pages = 0; //!< prefetches riding along
    std::uint32_t duplicate_faults = 0; //!< coalesced duplicate faults
    std::uint64_t migrated_bytes = 0; //!< uncompressed bytes moved in

    /** GPU runtime fault handling time (begin -> first transfer). */
    Cycle handlingTime() const { return first_transfer - begin; }
    /** Batch processing time (begin -> last migration). */
    Cycle processingTime() const { return end - begin; }
    std::uint32_t totalPages() const
    {
        return fault_pages + prefetch_pages;
    }
};

/** The UVM runtime: fault intake, batching, migration, eviction. */
class UvmRuntime
{
  public:
    /**
     * Callback waking a faulted warp once its page is resident.
     * Stored inline in a pooled slab node; 48 bytes of capture is
     * plenty for the SM's replay closures, and anything bigger falls
     * back to one counted heap cell rather than failing.
     */
    using WakeFn = InlineFunction<48, void(Cycle)>;
    /** Callback receiving oversubscription advice after each batch. */
    using AdviceFn = std::function<void(OversubAdvice)>;
    /** Callback fired after every batch completes (ETC epochs hook). */
    using BatchEndFn = std::function<void(const BatchRecord &)>;

    /**
     * @param hooks observers for the runtime and its sub-components
     *              (fault buffer, PCIe link, prefetcher): batches,
     *              fault handling, migrations and evictions all emit
     *              timeline events and feed the model auditor. Must
     *              not change simulated timing either way.
     */
    UvmRuntime(const UvmConfig &config, EventQueue &events,
               GpuMemoryManager &manager, MemoryHierarchy &hierarchy,
               const SimHooks &hooks = {});

    /**
     * Reports a page fault on @p vpn detected at the current cycle;
     * @p waiter is invoked when the page becomes resident.
     *
     * Safe to call for a page that is already in flight (the waiter
     * simply joins that page's list) or already resident (the waiter is
     * woken immediately).
     */
    void onPageFault(PageNum vpn, WakeFn waiter);

    /**
     * Registers @p bytes at @p base as a valid UVM allocation
     * (prefetches never stray outside valid pages).
     */
    void registerAllocation(VAddr base, std::uint64_t bytes);

    /**
     * Registers the run's tenant directory (multi-tenant runs only):
     * faults are attributed to the owning tenant, frame reservations
     * are charged per tenant, and eviction victims follow the
     * directory's SharePolicy. nullptr keeps single-tenant behaviour.
     */
    void setTenantDirectory(const TenantDirectory *dir);

    /**
     * Registers each tenant's memory hierarchy so eviction shootdowns
     * invalidate the TLBs that could actually cache the page (tenant
     * VA slices are disjoint, so only the owner's hierarchy can).
     * Indexed by TenantId; unrouted pages fall back to the hierarchy
     * passed at construction. An empty list drops every route.
     */
    void setTenantHierarchies(std::vector<MemoryHierarchy *> hierarchies)
    {
        tenant_hierarchies_ = std::move(hierarchies);
    }

    /** Adds an advice sink for a TO controller. Multi-tenant runs
     *  register one sink per tenant GPU; each batch fans the advice
     *  out to all of them. */
    void setAdviceCallback(AdviceFn cb)
    {
        advice_cbs_.push_back(std::move(cb));
    }

    /** Drops every registered advice sink (multi-tenant runs clear the
     *  default GPU's sink before wiring the tenant GPUs). */
    void clearAdviceCallbacks() { advice_cbs_.clear(); }

    /** Demand-fault pages attributed to @p tenant. */
    std::uint64_t demandPagesOf(TenantId tenant) const
    {
        return demand_by_[tenant];
    }

    void setBatchEndCallback(BatchEndFn cb)
    {
        batch_end_cb_ = std::move(cb);
    }

    /**
     * Enables ETC-style proactive eviction: after each batch, pages are
     * evicted in the background until occupancy falls to @p target of
     * capacity.
     */
    void enableProactiveEviction(double target);

    const std::vector<BatchRecord> &batchRecords() const
    {
        return records_;
    }

    const FaultBuffer &faultBuffer() const { return fault_buffer_; }
    PcieLink &pcie() { return pcie_; }
    const PcieLink &pcie() const { return pcie_; }

    std::uint64_t batches() const { return records_.size(); }
    std::uint64_t demandFaultPages() const { return demand_pages_; }
    std::uint64_t prefetchedPages() const { return prefetched_pages_; }

    /** True when no batch is active and no faults are pending. */
    bool idle() const { return state_ == State::Idle; }

    /** Average number of demand pages per batch. */
    double averageBatchPages() const;
    /** Average batch processing time in cycles. */
    double averageProcessingTime() const;
    /** Average GPU-runtime fault handling time in cycles. */
    double averageHandlingTime() const;

  private:
    enum class State { Idle, InterruptPending, BatchActive };

    /** One pooled waiter callback, linked off PageMeta::waiter_head. */
    struct WaiterNode {
        WakeFn fn;
        std::uint32_t next = PageMeta::kNoIndex;
    };

    void batchBegin();
    void pumpMigrations();
    void scheduleMigration(PageNum vpn);
    /** Launches one eviction; @p earliest constrains the D2H start and
     *  @p cause attributes it (the tenant that needs the frame). */
    bool launchEviction(Cycle earliest, TenantId cause = kNoTenant);
    void onEvictionComplete(PageNum vpn);
    void onPageArrived(PageNum vpn);
    void batchEnd();
    void maybeProactiveEvict();

    /** Appends @p waiter to @p vpn's intrusive FIFO waiter list. */
    void appendWaiter(PageNum vpn, WakeFn waiter);
    /** Detaches @p vpn's waiter list and invokes it in FIFO order. */
    void wakeWaiters(PageNum vpn, Cycle now);

    /**
     * Sorts @p keys ascending with an LSD radix sort (8-bit digits,
     * pass count from the maximum key — VPNs are bounded by the
     * allocation footprint, so 3-4 passes cover real runs). Produces
     * exactly std::sort's order on the unique keys a drained batch
     * holds; the scratch double buffer persists across batches.
     */
    void radixSortAscending(std::vector<PageNum> &keys);

    /** Owning tenant of @p vpn (kNoTenant with no directory). */
    TenantId tenantFor(PageNum vpn) const
    {
        return dir_ ? dir_->tenantOf(vpn) : kNoTenant;
    }

    /** Hierarchy whose TLBs may cache @p vpn (see
     *  setTenantHierarchies). */
    MemoryHierarchy &hierarchyFor(PageNum vpn)
    {
        const TenantId owner = tenantFor(vpn);
        if (owner == kNoTenant ||
            owner >= tenant_hierarchies_.size() ||
            tenant_hierarchies_[owner] == nullptr)
            return hierarchy_;
        return *tenant_hierarchies_[owner];
    }

    SimHooks hooks_;
    UvmConfig config_;
    EventQueue &events_;
    GpuMemoryManager &manager_;
    MemoryHierarchy &hierarchy_;
    const TenantDirectory *dir_ = nullptr;
    std::vector<MemoryHierarchy *> tenant_hierarchies_;
    std::vector<std::uint64_t> demand_by_; //!< per-tenant demand pages
    PageMetaTable &meta_; //!< shared dense page metadata
    FaultBuffer fault_buffer_;
    PcieLink pcie_;
    CompressionModel pcie_compression_;
    TreePrefetcher prefetcher_;

    State state_ = State::Idle;
    Cycle handling_cycles_;
    Cycle interrupt_cycles_;

    /** Waiter slab: nodes are recycled through an intrusive free list. */
    std::vector<WaiterNode> waiter_slab_;
    std::uint32_t waiter_free_ = PageMeta::kNoIndex;

    // Current batch (scratch buffers persist across batches).
    FaultBatch drained_batch_;
    std::vector<PageNum> demand_;
    std::vector<PageNum> prefetch_;
    std::vector<PageNum> migration_queue_;
    std::vector<PageNum> radix_scratch_; //!< radix sort double buffer
    std::size_t mig_idx_ = 0;
    std::uint32_t arrivals_pending_ = 0;
    std::uint32_t evictions_in_flight_ = 0;
    bool first_transfer_seen_ = false;
    BatchRecord current_;

    std::vector<BatchRecord> records_;
    std::uint64_t demand_pages_ = 0;
    std::uint64_t prefetched_pages_ = 0;

    std::vector<AdviceFn> advice_cbs_;
    BatchEndFn batch_end_cb_;
    bool proactive_eviction_ = false;
    double proactive_target_ = 0.95;
};

} // namespace bauvm

#endif // BAUVM_UVM_UVM_RUNTIME_H_
