/**
 * @file
 * Unit tests for the set-associative array underlying caches and TLBs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/mem/assoc_array.h"
#include "src/sim/log.h"
#include "src/sim/rng.h"

namespace bauvm
{
namespace
{

TEST(AssocArray, MissOnEmpty)
{
    AssocArray a(8, 2);
    EXPECT_FALSE(a.lookup(5));
    EXPECT_FALSE(a.probe(5));
}

TEST(AssocArray, HitAfterInsert)
{
    AssocArray a(8, 2);
    a.insert(5);
    EXPECT_TRUE(a.lookup(5));
    EXPECT_TRUE(a.probe(5));
    EXPECT_EQ(a.validCount(), 1u);
}

TEST(AssocArray, LruEvictsOldestInSet)
{
    AssocArray a(4, 2); // 2 sets x 2 ways; keys 0,2,4 share set 0
    a.insert(0);
    a.insert(2);
    a.lookup(0); // refresh 0; 2 becomes LRU
    std::uint64_t evicted = 0;
    EXPECT_TRUE(a.insert(4, &evicted));
    EXPECT_EQ(evicted, 2u);
    EXPECT_TRUE(a.probe(0));
    EXPECT_FALSE(a.probe(2));
    EXPECT_TRUE(a.probe(4));
}

TEST(AssocArray, InsertExistingRefreshesWithoutEviction)
{
    AssocArray a(4, 2);
    a.insert(0);
    a.insert(2);
    EXPECT_FALSE(a.insert(0)); // no displacement
    std::uint64_t evicted = 0;
    a.insert(4, &evicted);
    EXPECT_EQ(evicted, 2u); // 0 was refreshed by the re-insert
}

TEST(AssocArray, SetsIsolateKeys)
{
    AssocArray a(4, 2); // keys 1,3 go to set 1
    a.insert(0);
    a.insert(2);
    a.insert(1); // different set: no eviction in set 0
    EXPECT_TRUE(a.probe(0));
    EXPECT_TRUE(a.probe(2));
}

TEST(AssocArray, FullyAssociativeUsesAllEntries)
{
    AssocArray a(4, 0);
    for (std::uint64_t k = 0; k < 4; ++k)
        a.insert(k * 17);
    EXPECT_EQ(a.validCount(), 4u);
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_TRUE(a.probe(k * 17));
    a.insert(999);
    EXPECT_EQ(a.validCount(), 4u); // one got displaced
}

TEST(AssocArray, InvalidateRemovesKey)
{
    AssocArray a(8, 2);
    a.insert(7);
    EXPECT_TRUE(a.invalidate(7));
    EXPECT_FALSE(a.invalidate(7));
    EXPECT_FALSE(a.probe(7));
}

TEST(AssocArray, FlushClearsEverything)
{
    AssocArray a(8, 0);
    for (std::uint64_t k = 0; k < 8; ++k)
        a.insert(k);
    a.flush();
    EXPECT_EQ(a.validCount(), 0u);
}

TEST(AssocArray, InvalidateIfPredicate)
{
    AssocArray a(8, 0);
    for (std::uint64_t k = 0; k < 8; ++k)
        a.insert(k);
    const std::size_t n =
        a.invalidateIf([](std::uint64_t k) { return k % 2 == 0; });
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(a.validCount(), 4u);
    EXPECT_FALSE(a.probe(0));
    EXPECT_TRUE(a.probe(1));
}

TEST(AssocArray, InvalidateFullyClearsLineState)
{
    AssocArray a(4, 2);
    a.insert(0);
    a.insert(2);
    a.lookup(2); // give both lines nonzero last_use
    ASSERT_TRUE(a.invalidate(2));

    // The dead line must be wiped completely: a stale key could match
    // in a loop that forgets the valid check, and a stale last_use
    // would bias LRU victim choice.
    bool found_cleared = false;
    for (std::size_t s = 0; s < a.numSets(); ++s) {
        for (std::size_t w = 0; w < a.numWays(); ++w) {
            const auto l = a.lineAt(s, w);
            if (l.valid)
                continue;
            EXPECT_EQ(l.key, 0u);
            EXPECT_EQ(l.last_use, 0u);
            found_cleared = true;
        }
    }
    EXPECT_TRUE(found_cleared);

    // And a cleared line is treated as empty, not as the LRU loser:
    // the next insert into that set reuses it without displacing 0.
    std::uint64_t evicted = 0;
    EXPECT_FALSE(a.insert(4, &evicted));
    EXPECT_TRUE(a.probe(0));
}

TEST(AssocArray, FlushClearsLineStateEverywhere)
{
    AssocArray a(8, 0);
    for (std::uint64_t k = 0; k < 8; ++k)
        a.insert(k);
    a.flush();
    for (std::size_t w = 0; w < a.numWays(); ++w) {
        const auto l = a.lineAt(0, w);
        EXPECT_FALSE(l.valid);
        EXPECT_EQ(l.key, 0u);
        EXPECT_EQ(l.last_use, 0u);
    }
}

TEST(AssocArray, ProbeDoesNotDisturbLru)
{
    AssocArray a(4, 2);
    a.insert(0);
    a.insert(2);
    a.probe(0); // must NOT refresh
    std::uint64_t evicted = 0;
    a.insert(4, &evicted);
    EXPECT_EQ(evicted, 0u); // 0 still LRU
}

TEST(AssocArray, FilterOnlyOnWideSets)
{
    EXPECT_FALSE(AssocArray(128, 4).hasFilter());    // L1 cache
    EXPECT_FALSE(AssocArray(16384, 16).hasFilter()); // L2 cache
    EXPECT_TRUE(AssocArray(1024, 32).hasFilter());   // L2 TLB
    EXPECT_TRUE(AssocArray(64, 0).hasFilter());      // L1 TLB, PWC
}

TEST(AssocArray, FilteredArrayNeverMissesAPresentKey)
{
    // Keys that collide in the filter (same bucket) must still hit
    // after their neighbours come and go.
    AssocArray a(64, 0);
    for (std::uint64_t k = 0; k < 64; ++k)
        a.insert(k << 20);
    for (std::uint64_t k = 0; k < 64; k += 2)
        EXPECT_TRUE(a.invalidate(k << 20));
    for (std::uint64_t k = 0; k < 64; ++k) {
        EXPECT_EQ(a.probe(k << 20), k % 2 == 1);
        EXPECT_EQ(a.invalidate(k << 20), k % 2 == 1);
    }
    EXPECT_EQ(a.validCount(), 0u);
}

TEST(AssocArray, FillReplacesInsertAfterAMiss)
{
    AssocArray a(4, 2);
    a.insert(0);
    a.insert(2);
    a.lookup(0);
    EXPECT_FALSE(a.lookup(4));
    std::uint64_t evicted = 0;
    EXPECT_TRUE(a.fill(4, &evicted));
    EXPECT_EQ(evicted, 2u);
    EXPECT_TRUE(a.probe(4));
}

TEST(AssocArray, FillPanicsWithoutAFreshMiss)
{
    ScopedAbortCapture capture;
    AssocArray a(64, 0);
    // No lookup at all.
    EXPECT_THROW(a.fill(7), SimAbort);
    // The last miss was on another key.
    EXPECT_FALSE(a.lookup(8));
    EXPECT_THROW(a.fill(7), SimAbort);
    // The missed key was placed since (by insert), so it is present.
    EXPECT_FALSE(a.lookup(7));
    a.insert(7);
    EXPECT_THROW(a.fill(7), SimAbort);
    // One miss arms exactly one fill.
    EXPECT_FALSE(a.lookup(9));
    a.fill(9);
    EXPECT_THROW(a.fill(9), SimAbort);
    EXPECT_EQ(a.validCount(), 2u);
}

/**
 * Reference model: the array as it was before the absent-key filter
 * and fill() — a plain way scan for every find, insert re-finding the
 * key, first-invalid-else-LRU victim choice, one tick per touch.
 */
class NaiveAssocArray
{
  public:
    NaiveAssocArray(std::uint32_t entries, std::uint32_t associativity)
        : ways_(associativity == 0 ? entries : associativity),
          sets_(entries / ways_), valid_(entries, 0), keys_(entries, 0),
          last_use_(entries, 0)
    {
    }

    bool
    lookup(std::uint64_t key)
    {
        const std::size_t i = find(key);
        if (i == kNone)
            return false;
        last_use_[i] = ++tick_;
        return true;
    }

    bool probe(std::uint64_t key) const { return find(key) != kNone; }

    bool
    insert(std::uint64_t key, std::uint64_t *evicted_key)
    {
        const std::size_t hit = find(key);
        if (hit != kNone) {
            last_use_[hit] = ++tick_;
            return false;
        }
        const std::size_t base = (key % sets_) * ways_;
        std::size_t victim = kNone;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (!valid_[i]) {
                victim = i;
                break;
            }
            if (victim == kNone || last_use_[i] < last_use_[victim])
                victim = i;
        }
        const bool displaced = valid_[victim] != 0;
        if (displaced)
            *evicted_key = keys_[victim];
        valid_[victim] = 1;
        keys_[victim] = key;
        last_use_[victim] = ++tick_;
        return displaced;
    }

    bool
    invalidate(std::uint64_t key)
    {
        const std::size_t i = find(key);
        if (i == kNone)
            return false;
        clear(i);
        return true;
    }

    template <typename Pred>
    std::size_t
    invalidateIf(Pred pred)
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (valid_[i] && pred(keys_[i])) {
                clear(i);
                ++n;
            }
        }
        return n;
    }

    void
    flush()
    {
        for (std::size_t i = 0; i < keys_.size(); ++i)
            clear(i);
    }

    AssocArray::LineView
    lineAt(std::size_t set, std::size_t way) const
    {
        const std::size_t i = set * ways_ + way;
        return AssocArray::LineView{valid_[i] != 0, keys_[i], last_use_[i]};
    }

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    std::size_t
    find(std::uint64_t key) const
    {
        const std::size_t base = (key % sets_) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i)
            if (valid_[i] && keys_[i] == key)
                return i;
        return kNone;
    }

    void
    clear(std::size_t i)
    {
        valid_[i] = 0;
        keys_[i] = 0;
        last_use_[i] = 0;
    }

    std::size_t ways_;
    std::size_t sets_;
    std::uint64_t tick_ = 0;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> last_use_;
};

struct Geometry {
    std::uint32_t entries;
    std::uint32_t associativity;
    std::size_t ops;
};

class AssocArrayDifferential : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(AssocArrayDifferential, MatchesNaiveModelOpByOp)
{
    const Geometry g = GetParam();
    AssocArray dut(g.entries, g.associativity);
    NaiveAssocArray ref(g.entries, g.associativity);
    const std::uint32_t sets = dut.numSets();
    const std::uint32_t ways = dut.numWays();

    Rng rng(0x5eed0000u + g.entries * 131u + g.associativity);
    // Keys crowd a few sets (so they fill and evict) and carry random
    // high bits (so filter buckets collide in arbitrary ways).
    const std::uint64_t sets_used = sets < 6 ? sets : 6;
    std::vector<std::uint64_t> tags(3 * ways);
    for (auto &t : tags)
        t = rng.nextBelow(std::uint64_t{1} << 40);
    auto randomKey = [&] {
        return rng.nextBelow(sets_used) +
               sets * tags[rng.nextBelow(tags.size())];
    };

    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    for (std::size_t op = 0; op < g.ops; ++op) {
        const std::uint64_t key = randomKey();
        const std::uint64_t roll = rng.nextBelow(1000);
        if (roll < 500) {
            const bool hit = dut.lookup(key);
            ASSERT_EQ(hit, ref.lookup(key)) << "op " << op;
            hits += hit ? 1 : 0;
            if (!hit && rng.nextBool(0.7)) {
                std::uint64_t dut_evicted = ~0ull;
                std::uint64_t ref_evicted = ~0ull;
                const bool displaced = dut.fill(key, &dut_evicted);
                ASSERT_EQ(displaced, ref.insert(key, &ref_evicted))
                    << "op " << op;
                ASSERT_EQ(dut_evicted, ref_evicted) << "op " << op;
                evictions += displaced ? 1 : 0;
            }
        } else if (roll < 750) {
            std::uint64_t dut_evicted = ~0ull;
            std::uint64_t ref_evicted = ~0ull;
            const bool displaced = dut.insert(key, &dut_evicted);
            ASSERT_EQ(displaced, ref.insert(key, &ref_evicted))
                << "op " << op;
            ASSERT_EQ(dut_evicted, ref_evicted) << "op " << op;
        } else if (roll < 900) {
            ASSERT_EQ(dut.invalidate(key), ref.invalidate(key))
                << "op " << op;
        } else if (roll < 905) {
            const std::uint64_t m = 2 + rng.nextBelow(5);
            const std::uint64_t r = rng.nextBelow(m);
            auto pred = [m, r](std::uint64_t k) { return k % m == r; };
            ASSERT_EQ(dut.invalidateIf(pred), ref.invalidateIf(pred))
                << "op " << op;
        } else if (roll < 999) {
            ASSERT_EQ(dut.probe(key), ref.probe(key)) << "op " << op;
        } else {
            dut.flush();
            ref.flush();
        }
        for (std::size_t s = 0; s < sets; ++s) {
            for (std::size_t w = 0; w < ways; ++w) {
                const auto d = dut.lineAt(s, w);
                const auto r = ref.lineAt(s, w);
                ASSERT_EQ(d.valid, r.valid) << "op " << op;
                ASSERT_EQ(d.key, r.key) << "op " << op;
                ASSERT_EQ(d.last_use, r.last_use) << "op " << op;
            }
        }
    }
    // The mix must have exercised both outcomes of a lookup and real
    // displacements through fill().
    EXPECT_GT(hits, 0u);
    EXPECT_GT(evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AssocArrayDifferential,
    ::testing::Values(Geometry{128, 4, 20000},    // L1 cache
                      Geometry{16384, 16, 1500},  // L2 cache
                      Geometry{1024, 32, 8000},   // L2 TLB
                      Geometry{64, 0, 20000},     // L1 TLB, walk cache
                      Geometry{96, 32, 20000},    // 3 sets, filtered
                      Geometry{24, 4, 20000}),    // 6 sets, unfiltered
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "e" + std::to_string(info.param.entries) + "w" +
               std::to_string(info.param.associativity);
    });

TEST(AssocArray, InvalidLineKeyIsNeverStored)
{
    ScopedAbortCapture capture;
    constexpr std::uint64_t kInvalid = AssocArray::kInvalidKey;
    for (const std::uint32_t ways : {4u, 16u, 0u}) {
        AssocArray a(64, ways);
        // Every line is invalid and holds the key, yet none matches.
        EXPECT_FALSE(a.lookup(kInvalid));
        EXPECT_FALSE(a.probe(kInvalid));
        EXPECT_FALSE(a.invalidate(kInvalid));
        EXPECT_THROW(a.fill(kInvalid), SimAbort);
        EXPECT_THROW(a.insert(kInvalid), SimAbort);
        EXPECT_EQ(a.validCount(), 0u);
        EXPECT_FALSE(a.lineAt(0, 0).valid);
        EXPECT_EQ(a.lineAt(0, 0).key, 0u);
        // Key 0, the memo's starting key, is an ordinary key.
        EXPECT_FALSE(a.lookup(0));
        EXPECT_FALSE(a.fill(0));
        EXPECT_TRUE(a.lookup(0));
    }
}

/**
 * A second reference model, with no timestamps at all: each set keeps
 * its keys in a list, most recently used first, each with the way it
 * occupies, plus the set's free ways. A touch moves a key to the
 * front; a new key takes the lowest free way, else the way of the key
 * at the back of the list.
 */
class ListLruModel
{
  public:
    ListLruModel(std::uint32_t entries, std::uint32_t associativity)
        : ways_(associativity == 0 ? entries : associativity),
          sets_(entries / ways_), lru_(sets_), free_(sets_)
    {
        flush();
    }

    bool
    lookup(std::uint64_t key)
    {
        Set &set = lru_[key % sets_];
        const auto it = locate(set, key);
        if (it == set.end())
            return false;
        set.splice(set.begin(), set, it);
        return true;
    }

    bool
    probe(std::uint64_t key) const
    {
        const Set &set = lru_[key % sets_];
        return std::any_of(set.begin(), set.end(),
                           [key](const Line &l) { return l.key == key; });
    }

    bool
    insert(std::uint64_t key, std::uint64_t *evicted_key)
    {
        if (lookup(key))
            return false;
        Set &set = lru_[key % sets_];
        std::set<std::size_t> &free = free_[key % sets_];
        if (!free.empty()) {
            set.push_front({key, *free.begin()});
            free.erase(free.begin());
            return false;
        }
        *evicted_key = set.back().key;
        const std::size_t way = set.back().way;
        set.pop_back();
        set.push_front({key, way});
        return true;
    }

    bool
    invalidate(std::uint64_t key)
    {
        Set &set = lru_[key % sets_];
        const auto it = locate(set, key);
        if (it == set.end())
            return false;
        free_[key % sets_].insert(it->way);
        set.erase(it);
        return true;
    }

    template <typename Pred>
    std::size_t
    invalidateIf(Pred pred)
    {
        std::size_t n = 0;
        for (std::size_t s = 0; s < sets_; ++s) {
            for (auto it = lru_[s].begin(); it != lru_[s].end();) {
                if (!pred(it->key)) {
                    ++it;
                    continue;
                }
                free_[s].insert(it->way);
                it = lru_[s].erase(it);
                ++n;
            }
        }
        return n;
    }

    void
    flush()
    {
        for (std::size_t s = 0; s < sets_; ++s) {
            lru_[s].clear();
            free_[s].clear();
            for (std::size_t w = 0; w < ways_; ++w)
                free_[s].insert(w);
        }
    }

    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const Set &set : lru_)
            n += set.size();
        return n;
    }

    /** Whether way @p way of set @p set holds a key, and which. */
    std::pair<bool, std::uint64_t>
    lineAt(std::size_t set, std::size_t way) const
    {
        for (const Line &l : lru_[set])
            if (l.way == way)
                return {true, l.key};
        return {false, 0};
    }

  private:
    struct Line {
        std::uint64_t key;
        std::size_t way;
    };
    using Set = std::list<Line>;

    static Set::iterator
    locate(Set &set, std::uint64_t key)
    {
        return std::find_if(set.begin(), set.end(), [key](const Line &l) {
            return l.key == key;
        });
    }

    std::size_t ways_;
    std::size_t sets_;
    std::vector<Set> lru_;                   //!< MRU first
    std::vector<std::set<std::size_t>> free_; //!< invalid ways
};

class AssocArrayListLru : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(AssocArrayListLru, MatchesListModelOpByOp)
{
    const Geometry g = GetParam();
    AssocArray dut(g.entries, g.associativity);
    ListLruModel ref(g.entries, g.associativity);
    const std::uint32_t sets = dut.numSets();
    const std::uint32_t ways = dut.numWays();

    Rng rng(0x11570000u + g.entries * 7u + g.associativity);
    // A pool of 2x the ways per set over a few sets, so sets fill,
    // evict and refill; high tag bits vary the filter buckets.
    const std::uint64_t sets_used = sets < 5 ? sets : 5;
    std::vector<std::uint64_t> tags(2 * ways);
    for (auto &t : tags)
        t = 1 + rng.nextBelow(std::uint64_t{1} << 44);
    auto randomKey = [&] {
        return rng.nextBelow(sets_used) +
               sets * tags[rng.nextBelow(tags.size())];
    };
    auto compareSet = [&](std::size_t s, std::size_t op) {
        for (std::size_t w = 0; w < ways; ++w) {
            const AssocArray::LineView d = dut.lineAt(s, w);
            const auto [valid, key] = ref.lineAt(s, w);
            ASSERT_EQ(d.valid, valid) << "op " << op << " set " << s;
            ASSERT_EQ(d.key, key) << "op " << op << " set " << s;
        }
    };

    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    for (std::size_t op = 0; op < g.ops; ++op) {
        const std::uint64_t key = randomKey();
        const std::uint64_t roll = rng.nextBelow(1000);
        bool whole_array = op % 64 == 63;
        if (roll < 450) {
            const bool hit = dut.lookup(key);
            ASSERT_EQ(hit, ref.lookup(key)) << "op " << op;
            hits += hit ? 1 : 0;
            // A second lookup of a missed key must miss again.
            if (!hit && rng.nextBool(0.2)) {
                ASSERT_FALSE(dut.lookup(key)) << "op " << op;
            }
            if (!hit && rng.nextBool(0.8)) {
                std::uint64_t dut_evicted = 0;
                std::uint64_t ref_evicted = 0;
                const bool displaced = dut.fill(key, &dut_evicted);
                ASSERT_EQ(displaced, ref.insert(key, &ref_evicted))
                    << "op " << op;
                if (displaced) {
                    ASSERT_EQ(dut_evicted, ref_evicted) << "op " << op;
                }
                evictions += displaced ? 1 : 0;
            }
        } else if (roll < 700) {
            std::uint64_t dut_evicted = 0;
            std::uint64_t ref_evicted = 0;
            const bool displaced = dut.insert(key, &dut_evicted);
            ASSERT_EQ(displaced, ref.insert(key, &ref_evicted))
                << "op " << op;
            if (displaced) {
                ASSERT_EQ(dut_evicted, ref_evicted) << "op " << op;
            }
        } else if (roll < 880) {
            ASSERT_EQ(dut.invalidate(key), ref.invalidate(key))
                << "op " << op;
        } else if (roll < 888) {
            const std::uint64_t m = 2 + rng.nextBelow(5);
            const std::uint64_t r = rng.nextBelow(m);
            auto pred = [m, r](std::uint64_t k) { return k / 3 % m == r; };
            ASSERT_EQ(dut.invalidateIf(pred), ref.invalidateIf(pred))
                << "op " << op;
            whole_array = true;
        } else if (roll < 999) {
            ASSERT_EQ(dut.probe(key), ref.probe(key)) << "op " << op;
        } else {
            dut.flush();
            ref.flush();
            whole_array = true;
        }
        ASSERT_EQ(dut.validCount(), ref.validCount()) << "op " << op;
        if (whole_array) {
            for (std::size_t s = 0; s < sets; ++s)
                compareSet(s, op);
        } else {
            compareSet(key % sets, op);
        }
    }
    EXPECT_GT(hits, 0u);
    EXPECT_GT(evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AssocArrayListLru,
    ::testing::Values(Geometry{128, 4, 20000},  // 4-way x 32 sets
                      Geometry{256, 16, 20000}, // 16-way x 16 sets
                      Geometry{64, 0, 20000},   // fully assoc., filtered
                      Geometry{1024, 32, 8000}, // 32 sets, filtered
                      Geometry{40, 4, 20000},   // 10 sets
                      Geometry{160, 32, 20000}), // 5 sets, filtered
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "e" + std::to_string(info.param.entries) + "w" +
               std::to_string(info.param.associativity);
    });

} // namespace
} // namespace bauvm
