/**
 * @file
 * Generic set-associative array with true-LRU replacement.
 *
 * Shared by the caches, the TLBs, and the page-walk cache. Keys are
 * 64-bit tags supplied by the owner (which is responsible for folding in
 * any auxiliary bits such as page versions).
 *
 * Storage is structure-of-arrays: the way scan — the simulator's single
 * hottest loop, entered once per cache/TLB access — walks a dense key
 * array instead of striding over padded line structs, and set indexing
 * uses a mask instead of a modulo when the set count is a power of two
 * (it always is for the shipped geometries). An invalid line holds the
 * key kInvalidKey and last_use 0, so there is no separate valid array:
 * a narrow set's scan compares every way without an early exit (a
 * wide one stops at the match), and the victim is simply the
 * lowest-index minimum of last_use (valid lines hold distinct positive
 * ticks, so that is the first invalid way, else the least recently
 * used one).
 *
 * Wide arrays (the TLBs and the page-walk cache) also keep an exact
 * absent-key filter: a table of counters indexed by a hash of the key,
 * counting the valid lines whose key lands in each bucket. A zero
 * bucket proves the key absent without scanning its set, which makes
 * TLB misses and shootdowns of untranslated pages O(1). A non-zero
 * bucket falls through to the ordinary scan, so the filter never
 * changes an answer.
 */

#ifndef BAUVM_MEM_ASSOC_ARRAY_H_
#define BAUVM_MEM_ASSOC_ARRAY_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/log.h"

namespace bauvm
{

/**
 * Fixed-geometry set-associative lookup structure.
 *
 * An associativity of 0 requests a fully-associative organization
 * (a single set spanning every entry).
 */
class AssocArray
{
  public:
    /**
     * @param entries        total entry count (> 0).
     * @param associativity  ways per set; 0 = fully associative.
     */
    AssocArray(std::uint32_t entries, std::uint32_t associativity)
    {
        if (entries == 0)
            panic("AssocArray: zero entries");
        ways_ = associativity == 0 ? entries : associativity;
        if (entries % ways_ != 0)
            panic("AssocArray: entries %u not divisible by ways %u",
                  entries, ways_);
        sets_ = entries / ways_;
        sets_pow2_ = (sets_ & (sets_ - 1)) == 0;
        set_mask_ = sets_ - 1;
        keys_.assign(entries, kInvalidKey);
        last_use_.assign(entries, 0);
        // A bucket counts at most `entries` lines, so 16-bit counters
        // cannot overflow; >= 4 buckets per entry keeps the false
        // "maybe present" rate low.
        if (ways_ >= kFilterMinWays &&
            entries <= std::numeric_limits<std::uint16_t>::max()) {
            const std::uint32_t bits =
                std::bit_width(std::uint64_t{4} * entries - 1);
            filter_.assign(std::size_t{1} << bits, 0);
            filter_shift_ = 64 - bits;
        }
    }

    /** The key an invalid line holds; place() refuses to store it. */
    static constexpr std::uint64_t kInvalidKey = ~std::uint64_t{0};

    /**
     * Looks up @p key; on a hit refreshes its LRU position. A miss arms
     * fill(@p key).
     * @retval true the key is present.
     */
    bool
    lookup(std::uint64_t key)
    {
        // MRU memo: consecutive lookups overwhelmingly repeat the last
        // key (a warp's lines share one page), and for wide sets the
        // way scan is the hottest loop in the simulator. The re-check
        // makes staleness harmless — a slot holding key K can only be
        // K's home slot, so a hit here is exact; memo_key_ is never
        // kInvalidKey, so an invalid slot never matches.
        if (key == memo_key_ && keys_[memo_idx_] == key) {
            last_use_[memo_idx_] = ++tick_;
            return true;
        }
        const std::size_t i = find(key);
        if (i == kNone) {
            missed_key_ = key;
            missed_armed_ = true;
            return false;
        }
        memo_key_ = key;
        memo_idx_ = i;
        last_use_[i] = ++tick_;
        return true;
    }

    /** Looks up @p key without touching LRU state. */
    bool
    probe(std::uint64_t key) const
    {
        return find(key) != kNone;
    }

    /**
     * Inserts @p key, evicting the set's LRU entry when needed.
     *
     * @param[out] evicted_key  set to the displaced key when an eviction
     *                          occurred (may be nullptr).
     * @retval true an existing valid entry was displaced.
     */
    bool
    insert(std::uint64_t key, std::uint64_t *evicted_key = nullptr)
    {
        const std::size_t hit = find(key);
        if (hit != kNone) {
            last_use_[hit] = ++tick_;
            return false;
        }
        return place(key, evicted_key);
    }

    /**
     * insert() for a key the last lookup() just missed: skips the
     * repeat presence scan. Panics unless the most recent lookup()
     * missed on @p key and nothing was placed since, which is exactly
     * when @p key is known to be absent.
     */
    bool
    fill(std::uint64_t key, std::uint64_t *evicted_key = nullptr)
    {
        if (!missed_armed_ || missed_key_ != key)
            panic("AssocArray::fill: key %#llx did not just miss",
                  static_cast<unsigned long long>(key));
        return place(key, evicted_key);
    }

    /** Removes @p key if present. @retval true it was present. */
    bool
    invalidate(std::uint64_t key)
    {
        const std::size_t i = find(key);
        if (i == kNone)
            return false;
        clearLine(i);
        return true;
    }

    /** Invalidates every entry. */
    void
    flush()
    {
        for (std::size_t i = 0; i < keys_.size(); ++i)
            clearLine(i);
    }

    /** Removes all entries for which @p pred(key) holds. @return count. */
    template <typename Pred>
    std::size_t
    invalidateIf(Pred pred)
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kInvalidKey && pred(keys_[i])) {
                clearLine(i);
                ++n;
            }
        }
        return n;
    }

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }

    /** Whether this geometry keeps the absent-key filter. */
    bool hasFilter() const { return !filter_.empty(); }

    /** Debug/test view of one line's raw state. */
    struct LineView {
        bool valid = false;
        std::uint64_t key = 0;
        std::uint64_t last_use = 0;
    };

    /** Raw state of way @p way of set @p set (tests only). */
    LineView
    lineAt(std::size_t set, std::size_t way) const
    {
        const std::size_t i = set * ways_ + way;
        const bool valid = keys_[i] != kInvalidKey;
        return LineView{valid, valid ? keys_[i] : 0, last_use_[i]};
    }

    /** Number of currently valid entries. */
    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const std::uint64_t k : keys_)
            n += k != kInvalidKey ? 1 : 0;
        return n;
    }

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    /**
     * Sets at least this wide are wide: they get the absent-key filter
     * and their scan stops at the match. Narrower sets scan faster
     * than the filter's extra cache line costs, and compare every way
     * without an early exit. Each scan loop measured faster than the
     * other on its own side of this cutoff (see DESIGN.md).
     */
    static constexpr std::uint32_t kFilterMinWays = 32;

    std::size_t
    setOf(std::uint64_t key) const
    {
        return sets_pow2_ ? key & set_mask_ : key % sets_;
    }

    /** Filter bucket of @p key (multiplicative hash, top bits). */
    std::size_t
    bucketOf(std::uint64_t key) const
    {
        return (key * 0x9E3779B97F4A7C15ull) >> filter_shift_;
    }

    /**
     * Puts absent @p key into its set's victim way: the lowest-index
     * minimum of last_use, which is the first invalid way (last_use
     * 0), else the least recently used one (valid lines hold distinct
     * positive ticks).
     */
    bool
    place(std::uint64_t key, std::uint64_t *evicted_key)
    {
        if (key == kInvalidKey)
            panic("AssocArray: key %#llx marks invalid lines",
                  static_cast<unsigned long long>(key));
        const std::size_t base = setOf(key) * ways_;
        std::size_t victim = base;
        std::uint64_t oldest = last_use_[base];
        for (std::size_t i = base + 1; i < base + ways_; ++i) {
            const bool older = last_use_[i] < oldest;
            victim = older ? i : victim;
            oldest = older ? last_use_[i] : oldest;
        }
        const bool displaced = keys_[victim] != kInvalidKey;
        if (displaced) {
            if (evicted_key)
                *evicted_key = keys_[victim];
            if (!filter_.empty())
                --filter_[bucketOf(keys_[victim])];
        }
        if (!filter_.empty())
            ++filter_[bucketOf(key)];
        keys_[victim] = key;
        last_use_[victim] = ++tick_;
        memo_key_ = key;
        memo_idx_ = victim;
        missed_armed_ = false;
        return displaced;
    }

    /**
     * Invalidates a line: its key becomes kInvalidKey, so no lookup
     * matches it, and its last_use 0, so it is the next victim of its
     * set rather than an LRU loser with a stale timestamp.
     */
    void
    clearLine(std::size_t i)
    {
        if (keys_[i] != kInvalidKey && !filter_.empty())
            --filter_[bucketOf(keys_[i])];
        keys_[i] = kInvalidKey;
        last_use_[i] = 0;
    }

    /** Index of @p key's line, or kNone. */
    std::size_t
    find(std::uint64_t key) const
    {
        if (key == kInvalidKey ||
            (!filter_.empty() && filter_[bucketOf(key)] == 0))
            return kNone;
        const std::size_t base = setOf(key) * ways_;
        if (ways_ < kFilterMinWays) {
            // Keys are unique within a set, so at most one way matches.
            std::size_t hit = kNone;
            for (std::size_t i = base; i < base + ways_; ++i)
                hit = keys_[i] == key ? i : hit;
            return hit;
        }
        for (std::size_t i = base; i < base + ways_; ++i)
            if (keys_[i] == key)
                return i;
        return kNone;
    }

    std::uint32_t sets_ = 0;
    std::uint32_t ways_ = 0;
    bool sets_pow2_ = false;
    std::uint64_t set_mask_ = 0;
    std::uint64_t tick_ = 0;
    // Last-hit memo (see lookup); never trusted without a re-check.
    // It starts on key 0 at slot 0, which holds kInvalidKey, so the
    // first lookup of 0 falls through to the scan.
    std::uint64_t memo_key_ = 0;
    std::size_t memo_idx_ = 0;
    // fill() precondition: the last lookup missed on missed_key_ and
    // nothing has been placed since.
    std::uint64_t missed_key_ = 0;
    bool missed_armed_ = false;
    // Structure-of-arrays line state, indexed set * ways_ + way; an
    // invalid line holds kInvalidKey and last_use 0.
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> last_use_;
    // Absent-key filter (wide arrays only; empty otherwise): valid-line
    // count per hash bucket.
    std::vector<std::uint16_t> filter_;
    std::uint32_t filter_shift_ = 0;
};

} // namespace bauvm

#endif // BAUVM_MEM_ASSOC_ARRAY_H_
