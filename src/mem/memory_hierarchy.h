/**
 * @file
 * The composed GPU memory system: per-SM L1 caches and L1 TLBs, a shared
 * L2 cache and L2 TLB, the shared page-table walker, and device memory.
 *
 * This is the single entry point the SMs use for every coalesced memory
 * transaction. It returns either a completion cycle or a page-fault
 * indication (the UVM runtime owns fault handling).
 *
 * The hot access/translate pair is defined in this header so the
 * per-access stack inlines into the SM's issue loop; its auditor sites
 * sit behind one null check each on the SimHooks copy.
 */

#ifndef BAUVM_MEM_MEMORY_HIERARCHY_H_
#define BAUVM_MEM_MEMORY_HIERARCHY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/check/model_auditor.h"
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

/** Timing and (presence-only) functional model of the GPU memory
 *  system. */
class MemoryHierarchy
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
    MemoryHierarchy(const MemConfig &config, std::uint32_t num_sms,
                    std::uint64_t page_bytes, const PageTable &page_table,
                    const SimHooks &hooks = {});

    /**
     * Performs one line-granular transaction for SM @p sm.
     *
     * Translation walks L1 TLB -> L2 TLB -> page-table walker; if the
     * page is not resident the result is a fault stamped at walk
     * completion. Otherwise the data access proceeds L1 -> L2 -> DRAM.
     */
    MemResult access(std::uint32_t sm, VAddr vaddr, bool write,
                     Cycle start);

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

  private:
    /** Translates @p vpn. Returns {fault?, cycle translation resolved}. */
    std::pair<bool, Cycle> translate(std::uint32_t sm, PageNum vpn,
                                     Cycle start);

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

// Forced inline: with its auditor calls compiled in, GCC's heuristics
// would otherwise call translate out of line from the SM's issue loop.
[[gnu::always_inline]] inline std::pair<bool, Cycle>
MemoryHierarchy::translate(std::uint32_t sm, PageNum vpn, Cycle start)
{
    Tlb &l1 = *l1_tlbs_[sm];
    Cycle t = start + l1.hitLatency();
    if (l1.lookup(vpn)) {
        if (hooks_.audit)
            hooks_.audit->onTranslationHit(vpn);
        return {false, t};
    }

    t += l2_tlb_->hitLatency();
    if (l2_tlb_->lookup(vpn)) {
        if (hooks_.audit) {
            hooks_.audit->onTranslationHit(vpn);
            hooks_.audit->onTranslationInsert(vpn);
        }
        l1.fill(vpn);
        return {false, t};
    }

    ++walks_;
    const Cycle walk_done = walker_.walk(vpn, t);
    const bool fault = !page_table_.isResident(vpn);
    if (hooks_.audit)
        hooks_.audit->onWalkResolved(vpn, walk_done, fault);
    if (fault)
        return {true, walk_done};
    if (hooks_.audit) {
        hooks_.audit->onTranslationInsert(vpn); // L2 TLB fill
        hooks_.audit->onTranslationInsert(vpn); // L1 TLB fill
    }
    l2_tlb_->fill(vpn);
    l1.fill(vpn);
    return {false, walk_done};
}

inline MemResult
MemoryHierarchy::access(std::uint32_t sm, VAddr vaddr, bool write,
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

/** The benchmark package (perfbench/) still names the pre-collapse
 *  base type. */
using MemoryHierarchyBase = MemoryHierarchy;

} // namespace bauvm

#endif // BAUVM_MEM_MEMORY_HIERARCHY_H_
