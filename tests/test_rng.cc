/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/sim/rng.h"

namespace bauvm
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusiveBounds)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.nextRange(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all four values hit
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02); // roughly uniform
}

TEST(Rng, NextBoolMatchesProbability)
{
    Rng r(7);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += r.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Rng, ValuesSpreadAcrossRange)
{
    Rng r(7);
    std::set<std::uint64_t> buckets;
    for (int i = 0; i < 1000; ++i)
        buckets.insert(r.next() >> 60); // top 4 bits
    EXPECT_EQ(buckets.size(), 16u);
}

// ---- jump-ahead -----------------------------------------------------

TEST(RngJump, MatchesRepeatedNext)
{
    for (const std::uint64_t k :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{255},
          std::uint64_t{256}, std::uint64_t{257},
          (std::uint64_t{1} << 16) * 18}) {
        Rng jumped(42), stepped(42);
        jumped.jump(k);
        for (std::uint64_t i = 0; i < k; ++i)
            stepped.next();
        EXPECT_EQ(jumped.state(), stepped.state()) << "k = " << k;
    }
}

/** The xoshiro256 step map as a 256 x 256 matrix over GF(2), one
 *  column per state bit: column j is the state one step after the
 *  state with only bit j set. */
using StepMatrix = std::vector<Rng::State>;

Rng::State
applyMatrix(const StepMatrix &m, const Rng::State &s)
{
    Rng::State out = {};
    for (int j = 0; j < 256; ++j) {
        if (((s[j / 64] >> (j % 64)) & 1) == 0)
            continue;
        for (int w = 0; w < 4; ++w)
            out[w] ^= m[j][w];
    }
    return out;
}

TEST(RngJump, MatchesTheStepMatrixPowerForRandom48BitK)
{
    // k calls to next() apply the step map k times; for a 48-bit k
    // the oracle is the k-th power of the step matrix, by repeated
    // squaring. It shares nothing with jump()'s polynomial.
    StepMatrix power(256); // the step map ^ (2^i), starting at i = 0
    for (int j = 0; j < 256; ++j) {
        Rng::State unit = {};
        unit[j / 64] = std::uint64_t{1} << (j % 64);
        Rng r(unit);
        r.next();
        power[j] = r.state();
    }
    std::vector<StepMatrix> powers = {power};
    for (int i = 1; i < 48; ++i) {
        const StepMatrix &prev = powers.back();
        StepMatrix squared(256);
        for (int j = 0; j < 256; ++j)
            squared[j] = applyMatrix(prev, prev[j]);
        powers.push_back(std::move(squared));
    }

    Rng pick(2024);
    for (int trial = 0; trial < 4; ++trial) {
        const std::uint64_t k = pick.next() >> 16;
        Rng jumped(trial);
        Rng::State want = jumped.state();
        jumped.jump(k);
        for (int i = 0; i < 48; ++i)
            if ((k >> i) & 1)
                want = applyMatrix(powers[i], want);
        EXPECT_EQ(jumped.state(), want) << "k = " << k;
    }
}

TEST(RngJump, CharacteristicPolynomialMatchesBerlekampMassey)
{
    // Any state bit's sequence satisfies the step map's characteristic
    // recurrence; the polynomial is primitive (xoshiro256 has full
    // period), so Berlekamp-Massey over 2 * 256 bits finds exactly it.
    constexpr int kBits = 1024;
    Rng r(99);
    std::vector<int> seq(kBits);
    for (int i = 0; i < kBits; ++i) {
        seq[i] = static_cast<int>((r.state()[2] >> 7) & 1);
        r.next();
    }
    std::vector<int> conn(kBits + 1, 0), prev(kBits + 1, 0);
    conn[0] = prev[0] = 1;
    int len = 0, gap = 1;
    for (int n = 0; n < kBits; ++n) {
        int d = seq[n];
        for (int i = 1; i <= len; ++i)
            d ^= conn[i] & seq[n - i];
        if (d == 0) {
            ++gap;
            continue;
        }
        const std::vector<int> saved = conn;
        for (int i = 0; i + gap <= kBits; ++i)
            conn[i + gap] ^= prev[i];
        if (2 * len <= n) {
            len = n + 1 - len;
            prev = saved;
            gap = 1;
        } else {
            ++gap;
        }
    }
    ASSERT_EQ(len, 256);
    // The connection polynomial is P's reciprocal: c_i is the
    // coefficient of x^(256 - i).
    Rng::State derived = {};
    for (int i = 1; i <= len; ++i)
        if (conn[i])
            derived[(len - i) / 64] |= std::uint64_t{1} << ((len - i) % 64);
    EXPECT_EQ(derived, Rng::kCharPoly);
}

} // namespace
} // namespace bauvm
