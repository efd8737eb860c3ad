/**
 * @file
 * The composed GPU memory system: per-SM L1 caches and L1 TLBs, a shared
 * L2 cache and L2 TLB, the shared page-table walker, and device memory.
 *
 * This is the single entry point the SMs use for every coalesced memory
 * transaction. It returns either a completion cycle or a page-fault
 * indication (the UVM runtime owns fault handling).
 *
 * Split along the hot/cold line for observer specialization (see
 * src/check/observer_mode.h): MemoryHierarchyBase owns all state plus
 * the cold entry points (shootdowns, queries); MemoryHierarchyT<M>
 * adds the hot access/translate pair with the observer branches
 * compiled for mode M. The un-suffixed MemoryHierarchy alias is the
 * Dynamic specialization, which behaves exactly like the historical
 * class.
 */

#ifndef BAUVM_MEM_MEMORY_HIERARCHY_H_
#define BAUVM_MEM_MEMORY_HIERARCHY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/check/model_auditor.h"
#include "src/check/observer_mode.h"
#include "src/check/sim_hooks.h"
#include "src/mem/cache.h"
#include "src/mem/completion_slots.h"
#include "src/mem/dram.h"
#include "src/mem/page_table.h"
#include "src/mem/page_table_walker.h"
#include "src/mem/tlb.h"
#include "src/sim/config.h"
#include "src/sim/types.h"

namespace bauvm
{

/** Outcome of one memory transaction. */
struct MemResult {
    bool fault = false; //!< page not resident; the access did not finish
    PageNum vpn = 0;    //!< faulting virtual page (valid when fault)
    Cycle done = 0;     //!< completion cycle when !fault; for a fault,
                        //!< the cycle at which the fault was detected
};

/**
 * State and cold paths of the GPU memory system (mode-independent).
 *
 * Consumers that never touch the hot path (the UVM runtime's eviction
 * shootdowns, the ETC framework, statistics readers) hold a reference
 * of this type so one compiled function serves every specialization.
 */
class MemoryHierarchyBase
{
  public:
    /**
     * @param config      memory-system parameters.
     * @param num_sms     number of SMs (determines private structures).
     * @param page_bytes  UVM page size, used to split addresses.
     * @param page_table  the GPU page table holding residency (owned by
     *                    the UVM memory manager; must outlive this).
     * @param hooks       observers: the auditor cross-checks every TLB
     *                    hit, TLB fill, shootdown and walk outcome
     *                    against its shadow residency.
     */
    MemoryHierarchyBase(const MemConfig &config, std::uint32_t num_sms,
                        std::uint64_t page_bytes,
                        const PageTable &page_table,
                        const SimHooks &hooks = {});

    /**
     * Invalidate all TLB entries for @p vpn (eviction shootdown).
     * Cache lines die lazily through the page-version tag bits.
     */
    void invalidatePage(PageNum vpn);

    /** Additional latency on every L2 access (ETC capacity compression). */
    void setExtraL2Latency(Cycle extra) { extra_l2_latency_ = extra; }

    /** L1 line size: the granule the SM coalesces lane addresses to. */
    std::uint32_t l1LineBytes() const { return config_.l1.line_bytes; }

    /** Extra latency the SM charges for atomic operations. */
    Cycle atomicLatency() const { return config_.atomic_latency; }

    const Tlb &l1Tlb(std::uint32_t sm) const { return *l1_tlbs_[sm]; }
    const Tlb &l2Tlb() const { return *l2_tlb_; }
    const Cache &l1Cache(std::uint32_t sm) const { return *l1_caches_[sm]; }
    const Cache &l2Cache() const { return *l2_cache_; }
    const PageTableWalker &walker() const { return walker_; }
    const Dram &dram() const { return dram_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t faults() const { return faults_; }

    /** Translations that missed both TLB levels and took a page walk. */
    std::uint64_t pageWalks() const { return walks_; }

    /** Fraction of translations served without a page walk. */
    double
    tlbHitRate() const
    {
        return accesses_ ? 1.0 - static_cast<double>(walks_) /
                                     static_cast<double>(accesses_)
                         : 0.0;
    }

    /** Cycles a transaction waited because the SM's MSHRs were full. */
    std::uint64_t mshrStallCycles() const { return mshr_stall_cycles_; }

  protected:
    // No virtuals: the hot path binds statically in MemoryHierarchyT<M>
    // and nothing deletes through the base.
    ~MemoryHierarchyBase() = default;

    /** Line key folding the page version in for lazy invalidation. */
    std::uint64_t
    lineKey(VAddr vaddr) const
    {
        const std::uint64_t line = line_pow2_
                                       ? vaddr >> line_shift_
                                       : vaddr / config_.l1.line_bytes;
        const PageNum vpn = pageOf(vaddr);
        const std::uint64_t version = page_table_.version(vpn);
        // Virtual addresses stay far below 2^40 (the device allocator
        // hands out low addresses), so versions fit above the line
        // index.
        return (version << 40) ^ line;
    }

    /** vaddr -> page number without the hot-path division. */
    PageNum
    pageOf(VAddr vaddr) const
    {
        return page_pow2_ ? vaddr >> page_shift_ : vaddr / page_bytes_;
    }

    SimHooks hooks_;
    MemConfig config_;
    std::uint64_t page_bytes_;
    // Shift twins of the pow2 divisors on the per-access path (page
    // size, L1 line size); the *_pow2_ flags keep odd test geometries
    // on the exact division.
    bool page_pow2_ = false;
    bool line_pow2_ = false;
    std::uint32_t page_shift_ = 0;
    std::uint32_t line_shift_ = 0;
    const PageTable &page_table_;
    std::vector<std::unique_ptr<Tlb>> l1_tlbs_;
    std::vector<std::unique_ptr<Cache>> l1_caches_;
    std::unique_ptr<Tlb> l2_tlb_;
    std::unique_ptr<Cache> l2_cache_;
    PageTableWalker walker_;
    Dram dram_;
    Cycle extra_l2_latency_ = 0;
    /** Per-SM outstanding-miss completion times (MSHR occupancy). */
    std::vector<CompletionSlots> mshrs_;
    std::uint64_t accesses_ = 0;
    std::uint64_t faults_ = 0;
    std::uint64_t walks_ = 0;
    std::uint64_t mshr_stall_cycles_ = 0;
};

/**
 * Timing and (presence-only) functional model of the GPU memory system,
 * with the hot path's observer branches compiled for mode @p M.
 */
template <ObserverMode M>
class MemoryHierarchyT final : public MemoryHierarchyBase
{
  public:
    using MemoryHierarchyBase::MemoryHierarchyBase;

    /**
     * Performs one line-granular transaction for SM @p sm.
     *
     * Translation walks L1 TLB -> L2 TLB -> page-table walker; if the
     * page is not resident the result is a fault stamped at walk
     * completion. Otherwise the data access proceeds L1 -> L2 -> DRAM.
     *
     * Defined in the header (with translate) so the SM's issue loop
     * inlines the whole per-access stack; the explicit instantiations
     * in memory_hierarchy.cc still provide out-of-line symbols.
     */
    MemResult access(std::uint32_t sm, VAddr vaddr, bool write,
                     Cycle start);

  private:
    /** Translates @p vpn. Returns {fault?, cycle translation resolved}. */
    std::pair<bool, Cycle> translate(std::uint32_t sm, PageNum vpn,
                                     Cycle start);
};

template <ObserverMode M>
inline std::pair<bool, Cycle>
MemoryHierarchyT<M>::translate(std::uint32_t sm, PageNum vpn, Cycle start)
{
    Tlb &l1 = *l1_tlbs_[sm];
    Cycle t = start + l1.hitLatency();
    if (l1.lookup(vpn)) {
        if constexpr (observesAudit(M)) {
            if (hooks_.audit)
                hooks_.audit->onTranslationHit(vpn);
        }
        return {false, t};
    }

    t += l2_tlb_->hitLatency();
    if (l2_tlb_->lookup(vpn)) {
        if constexpr (observesAudit(M)) {
            if (hooks_.audit) {
                hooks_.audit->onTranslationHit(vpn);
                hooks_.audit->onTranslationInsert(vpn);
            }
        }
        l1.fill(vpn);
        return {false, t};
    }

    ++walks_;
    const Cycle walk_done = walker_.walk(vpn, t);
    const bool fault = !page_table_.isResident(vpn);
    if constexpr (observesAudit(M)) {
        if (hooks_.audit)
            hooks_.audit->onWalkResolved(vpn, walk_done, fault);
    }
    if (fault)
        return {true, walk_done};
    if constexpr (observesAudit(M)) {
        if (hooks_.audit) {
            hooks_.audit->onTranslationInsert(vpn); // L2 TLB fill
            hooks_.audit->onTranslationInsert(vpn); // L1 TLB fill
        }
    }
    l2_tlb_->fill(vpn);
    l1.fill(vpn);
    return {false, walk_done};
}

template <ObserverMode M>
inline MemResult
MemoryHierarchyT<M>::access(std::uint32_t sm, VAddr vaddr, bool write,
                            Cycle start)
{
    if (sm >= l1_tlbs_.size())
        panic("MemoryHierarchy: SM index %u out of range", sm);
    ++accesses_;

    const PageNum vpn = pageOf(vaddr);
    auto [fault, t] = translate(sm, vpn, start);
    if (fault) {
        ++faults_;
        return MemResult{true, vpn, t};
    }

    const std::uint64_t key = lineKey(vaddr);
    Cache &l1 = *l1_caches_[sm];
    t += l1.hitLatency();
    if (l1.access(key, write))
        return MemResult{false, 0, t};

    // L1 miss: consume an MSHR for the duration of the fill.
    auto &mshr = mshrs_[sm];
    while (!mshr.empty() && mshr.top() <= t)
        mshr.pop();
    if (mshr.size() >= config_.mshrs_per_sm) {
        const Cycle avail = mshr.top();
        mshr.pop();
        mshr_stall_cycles_ += avail - t;
        t = avail;
    }

    t += l2_cache_->hitLatency() + extra_l2_latency_;
    if (!l2_cache_->access(key, write))
        t = dram_.access(config_.l2.line_bytes, t);

    mshr.push(t);
    return MemResult{false, 0, t};
}

extern template class MemoryHierarchyT<ObserverMode::Dynamic>;
extern template class MemoryHierarchyT<ObserverMode::None>;
extern template class MemoryHierarchyT<ObserverMode::Trace>;
extern template class MemoryHierarchyT<ObserverMode::Audit>;
extern template class MemoryHierarchyT<ObserverMode::Both>;

/** Historical name: the runtime-dispatched (Dynamic) specialization. */
using MemoryHierarchy = MemoryHierarchyT<ObserverMode::Dynamic>;

} // namespace bauvm

#endif // BAUVM_MEM_MEMORY_HIERARCHY_H_
