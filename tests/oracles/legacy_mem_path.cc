#include "tests/oracles/legacy_mem_path.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/sim/log.h"

namespace bauvm
{

// ---------------------------------------------------------------------
// LegacyPageTable
// ---------------------------------------------------------------------

void
LegacyPageTable::map(PageNum vpn, FrameNum frame)
{
    auto [it, inserted] = mappings_.emplace(vpn, frame);
    (void)it;
    if (!inserted)
        panic("LegacyPageTable: double map of vpn %llu",
              static_cast<unsigned long long>(vpn));
}

void
LegacyPageTable::unmap(PageNum vpn)
{
    auto it = mappings_.find(vpn);
    if (it == mappings_.end())
        panic("LegacyPageTable: unmap of non-resident vpn %llu",
              static_cast<unsigned long long>(vpn));
    mappings_.erase(it);
    ++versions_[vpn];
}

FrameNum
LegacyPageTable::frameOf(PageNum vpn) const
{
    auto it = mappings_.find(vpn);
    if (it == mappings_.end())
        panic("LegacyPageTable: frameOf non-resident vpn %llu",
              static_cast<unsigned long long>(vpn));
    return it->second;
}

// ---------------------------------------------------------------------
// LegacyGpuMemoryManager
// ---------------------------------------------------------------------

LegacyGpuMemoryManager::LegacyGpuMemoryManager(
    const UvmConfig &config, std::uint64_t capacity_pages)
    : config_(config), capacity_pages_(capacity_pages)
{
    if (config_.root_chunk_pages == 0)
        fatal("LegacyGpuMemoryManager: root_chunk_pages must be "
              "positive");
}

void
LegacyGpuMemoryManager::reserveFrame()
{
    if (!hasFreeFrame())
        panic("LegacyGpuMemoryManager: reserveFrame with no free frame");
    if (!unlimited())
        ++committed_;
}

void
LegacyGpuMemoryManager::commitPage(PageNum vpn, Cycle now)
{
    ++migrations_;
    page_table_.map(vpn, vpn);
    alloc_time_[vpn] = now;

    auto ref = pending_refault_.find(vpn);
    if (ref != pending_refault_.end()) {
        ++premature_;
        if (--ref->second == 0)
            pending_refault_.erase(ref);
    }

    const std::uint64_t chunk = chunkOf(vpn);
    chunk_pages_[chunk].push_back(vpn);
    auto pos = lru_pos_.find(chunk);
    if (pos != lru_pos_.end())
        lru_.erase(pos->second);
    lru_.push_back(chunk);
    lru_pos_[chunk] = std::prev(lru_.end());
}

bool
LegacyGpuMemoryManager::beginEviction(PageNum *vpn, Cycle now)
{
    if (lru_.empty())
        return false;
    const std::uint64_t chunk = lru_.front();
    auto &pages = chunk_pages_[chunk];
    if (pages.empty())
        panic("LegacyGpuMemoryManager: LRU chunk with no pages");

    const PageNum victim = pages.front();
    pages.erase(pages.begin());
    if (pages.empty()) {
        chunk_pages_.erase(chunk);
        lru_.pop_front();
        lru_pos_.erase(chunk);
    }

    page_table_.unmap(victim);
    ++evictions_;
    ++pending_refault_[victim];

    auto at = alloc_time_.find(victim);
    if (at == alloc_time_.end())
        panic("LegacyGpuMemoryManager: victim with no allocation time");
    (void)now;
    alloc_time_.erase(at);

    *vpn = victim;
    return true;
}

void
LegacyGpuMemoryManager::completeEviction(PageNum vpn)
{
    (void)vpn;
    if (!unlimited()) {
        if (committed_ == 0)
            panic("LegacyGpuMemoryManager: completeEviction underflow");
        --committed_;
    }
}

// ---------------------------------------------------------------------
// LegacyFaultBuffer
// ---------------------------------------------------------------------

LegacyFaultBuffer::LegacyFaultBuffer(std::uint32_t capacity)
    : capacity_(capacity)
{
    if (capacity == 0)
        fatal("LegacyFaultBuffer: capacity must be positive");
}

void
LegacyFaultBuffer::insert(PageNum vpn, Cycle now)
{
    ++total_faults_;
    auto it = index_.find(vpn);
    if (it != index_.end()) {
        ++order_[it->second].duplicates;
        return;
    }
    if (order_.size() >= capacity_) {
        ++overflows_;
        for (auto &rec : overflow_) {
            if (rec.vpn == vpn) {
                ++rec.duplicates;
                return;
            }
        }
        overflow_.push_back(FaultRecord{vpn, now, 1});
        return;
    }
    index_.emplace(vpn, order_.size());
    order_.push_back(FaultRecord{vpn, now, 1});
}

std::vector<FaultRecord>
LegacyFaultBuffer::drain()
{
    std::vector<FaultRecord> out = std::move(order_);
    order_.clear();
    index_.clear();
    while (!overflow_.empty() && order_.size() < capacity_) {
        index_.emplace(overflow_.front().vpn, order_.size());
        order_.push_back(overflow_.front());
        overflow_.pop_front();
    }
    return out;
}

// ---------------------------------------------------------------------
// LegacyTreePrefetcher
// ---------------------------------------------------------------------

LegacyTreePrefetcher::LegacyTreePrefetcher(const UvmConfig &config,
                                           ResidencyFn resident,
                                           ValidFn valid)
    : config_(config), resident_(std::move(resident)),
      valid_(std::move(valid))
{
    pages_per_block_ = static_cast<std::uint32_t>(
        config.va_block_bytes / config.page_bytes);
    if (pages_per_block_ == 0 ||
        (pages_per_block_ & (pages_per_block_ - 1)) != 0) {
        fatal("LegacyTreePrefetcher: pages per VA block (%u) must be a "
              "power of two", pages_per_block_);
    }
}

std::vector<PageNum>
LegacyTreePrefetcher::computePrefetches(
    const std::vector<PageNum> &faulted) const
{
    return config_.sequential_prefetch_pages > 0
               ? sequentialPrefetches(faulted)
               : treePrefetches(faulted);
}

std::vector<PageNum>
LegacyTreePrefetcher::sequentialPrefetches(
    const std::vector<PageNum> &faulted) const
{
    std::unordered_set<PageNum> faulted_set(faulted.begin(),
                                            faulted.end());
    std::unordered_set<PageNum> chosen;
    for (PageNum vpn : faulted) {
        for (std::uint32_t i = 1;
             i <= config_.sequential_prefetch_pages; ++i) {
            const PageNum next = vpn + i;
            if (!resident_(next) && !faulted_set.count(next) &&
                valid_(next)) {
                chosen.insert(next);
            }
        }
    }
    std::vector<PageNum> prefetches(chosen.begin(), chosen.end());
    std::sort(prefetches.begin(), prefetches.end());
    return prefetches;
}

std::vector<PageNum>
LegacyTreePrefetcher::treePrefetches(
    const std::vector<PageNum> &faulted) const
{
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> blocks;
    for (PageNum vpn : faulted)
        blocks[vpn / pages_per_block_].push_back(
            static_cast<std::uint32_t>(vpn % pages_per_block_));

    std::vector<PageNum> prefetches;
    std::unordered_set<PageNum> faulted_set(faulted.begin(),
                                            faulted.end());

    for (auto &[block, offsets] : blocks) {
        const PageNum base = block * pages_per_block_;
        std::vector<bool> occupied(pages_per_block_, false);
        for (std::uint32_t i = 0; i < pages_per_block_; ++i)
            occupied[i] = resident_(base + i);
        for (std::uint32_t off : offsets)
            occupied[off] = true;

        for (std::uint32_t span = 2; span <= pages_per_block_;
             span *= 2) {
            for (std::uint32_t lo = 0; lo < pages_per_block_;
                 lo += span) {
                std::uint32_t count = 0;
                for (std::uint32_t i = lo; i < lo + span; ++i)
                    count += occupied[i] ? 1 : 0;
                if (count == span || count == 0)
                    continue;
                if (static_cast<double>(count) >
                    config_.prefetch_density * span) {
                    for (std::uint32_t i = lo; i < lo + span; ++i)
                        occupied[i] = true;
                }
            }
        }

        for (std::uint32_t i = 0; i < pages_per_block_; ++i) {
            const PageNum vpn = base + i;
            if (occupied[i] && !resident_(vpn) &&
                !faulted_set.count(vpn) && valid_(vpn)) {
                prefetches.push_back(vpn);
            }
        }
    }
    std::sort(prefetches.begin(), prefetches.end());
    return prefetches;
}

} // namespace bauvm
