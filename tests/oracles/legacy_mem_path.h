/**
 * @file
 * Reference copies of the hash-map-based memory/UVM metadata layer that
 * the dense PageMetaTable data path replaced.
 *
 * These are the pre-change PageTable, GpuMemoryManager, FaultBuffer and
 * TreePrefetcher algorithms with observability hooks stripped: the same
 * unordered_map / std::list structures, the same panic conditions, the
 * same decision order. Like legacy_event_queue, they are test
 * oracles, compiled into the test binary only, never into libbauvm:
 * the differential tests replay randomized commit/evict sequences —
 * and a traced fig11 cell's recorded sequence — through both
 * implementations and assert identical eviction victims, premature
 * counts and prefetch sets.
 *
 * Do not use these in the simulator proper.
 */

#ifndef BAUVM_UVM_LEGACY_MEM_PATH_H_
#define BAUVM_UVM_LEGACY_MEM_PATH_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/types.h"
#include "src/uvm/fault_buffer.h" // FaultRecord

namespace bauvm
{

/** Pre-change page table: two hash maps (mapping, version). */
class LegacyPageTable
{
  public:
    void map(PageNum vpn, FrameNum frame);
    void unmap(PageNum vpn);
    bool isResident(PageNum vpn) const
    {
        return mappings_.find(vpn) != mappings_.end();
    }
    FrameNum frameOf(PageNum vpn) const;
    std::uint32_t version(PageNum vpn) const
    {
        auto it = versions_.find(vpn);
        return it == versions_.end() ? 0 : it->second;
    }
    std::size_t residentPages() const { return mappings_.size(); }

  private:
    std::unordered_map<PageNum, FrameNum> mappings_;
    std::unordered_map<PageNum, std::uint32_t> versions_;
};

/**
 * Pre-change memory manager: std::list chunk LRU + lru_pos_ map +
 * per-chunk page vectors + alloc-time and pending-refault maps.
 */
class LegacyGpuMemoryManager
{
  public:
    LegacyGpuMemoryManager(const UvmConfig &config,
                           std::uint64_t capacity_pages);

    LegacyPageTable &pageTable() { return page_table_; }
    bool unlimited() const { return capacity_pages_ == 0; }
    std::uint64_t committedFrames() const { return committed_; }
    bool hasFreeFrame() const
    {
        return unlimited() || committed_ < capacity_pages_;
    }

    void reserveFrame();
    void commitPage(PageNum vpn, Cycle now);
    bool beginEviction(PageNum *vpn, Cycle now);
    void completeEviction(PageNum vpn);
    bool isResident(PageNum vpn) const
    {
        return page_table_.isResident(vpn);
    }

    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t prematureEvictions() const { return premature_; }
    std::uint64_t migrations() const { return migrations_; }

  private:
    using LruList = std::list<std::uint64_t>;

    std::uint64_t chunkOf(PageNum vpn) const
    {
        return vpn / config_.root_chunk_pages;
    }

    UvmConfig config_;
    std::uint64_t capacity_pages_;
    std::uint64_t committed_ = 0;
    LegacyPageTable page_table_;

    LruList lru_;
    std::unordered_map<std::uint64_t, LruList::iterator> lru_pos_;
    std::unordered_map<std::uint64_t, std::vector<PageNum>> chunk_pages_;
    std::unordered_map<PageNum, Cycle> alloc_time_;
    std::unordered_map<PageNum, std::uint32_t> pending_refault_;

    std::uint64_t evictions_ = 0;
    std::uint64_t premature_ = 0;
    std::uint64_t migrations_ = 0;
};

/** Pre-change fault buffer: vpn -> index hash map + deque overflow. */
class LegacyFaultBuffer
{
  public:
    explicit LegacyFaultBuffer(std::uint32_t capacity);

    void insert(PageNum vpn, Cycle now);
    std::vector<FaultRecord> drain();

    std::size_t size() const { return order_.size(); }
    bool empty() const { return order_.empty() && overflow_.empty(); }
    std::uint64_t overflows() const { return overflows_; }
    std::uint64_t totalFaults() const { return total_faults_; }

  private:
    std::uint32_t capacity_;
    std::vector<FaultRecord> order_;
    std::unordered_map<PageNum, std::size_t> index_;
    std::deque<FaultRecord> overflow_;
    std::uint64_t overflows_ = 0;
    std::uint64_t total_faults_ = 0;
};

/** Pre-change prefetcher: per-batch unordered_map/set scratch. */
class LegacyTreePrefetcher
{
  public:
    using ResidencyFn = std::function<bool(PageNum)>;
    using ValidFn = std::function<bool(PageNum)>;

    LegacyTreePrefetcher(const UvmConfig &config, ResidencyFn resident,
                         ValidFn valid);

    std::vector<PageNum> computePrefetches(
        const std::vector<PageNum> &faulted) const;

  private:
    std::vector<PageNum> treePrefetches(
        const std::vector<PageNum> &faulted) const;
    std::vector<PageNum> sequentialPrefetches(
        const std::vector<PageNum> &faulted) const;

    UvmConfig config_;
    ResidencyFn resident_;
    ValidFn valid_;
    std::uint32_t pages_per_block_;
};

} // namespace bauvm

#endif // BAUVM_UVM_LEGACY_MEM_PATH_H_
