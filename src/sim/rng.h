/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (graph generation, workload
 * shuffles) flows through Rng so a fixed seed reproduces an identical
 * simulation, which the test suite relies on.
 */

#ifndef BAUVM_SIM_RNG_H_
#define BAUVM_SIM_RNG_H_

#include <array>
#include <cstdint>

#include "src/sim/log.h"

namespace bauvm
{

/**
 * A small, fast, seedable generator (xoshiro256**).
 *
 * Not cryptographic; chosen for speed and reproducibility across
 * platforms (unlike std::mt19937 distributions, all derived values here
 * are computed with explicit integer arithmetic).
 */
class Rng
{
  public:
    /** The four state words of xoshiro256. */
    using State = std::array<std::uint64_t, 4>;

    /** Constructs a generator from a 64-bit seed via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Adopts a raw state. @pre not all four words are zero. */
    explicit Rng(const State &state) : s_(state) {}

    const State &state() const { return s_; }

    /**
     * Advances the state by @p k steps, exactly as k calls to next()
     * would, in O(log k) polynomial work plus 256 steps. The state
     * update is linear over GF(2), so k steps are x^k evaluated at the
     * step map; x^k is first reduced modulo the map's degree-256
     * characteristic polynomial (see rng.cc).
     */
    void jump(std::uint64_t k);

    /**
     * The step map's characteristic polynomial P(x) = x^256 + ..., the
     * x^256 term left implicit: bit i of word i / 64 is the
     * coefficient of x^i. Berlekamp-Massey on any state bit's sequence
     * yields it (test_rng.cc re-derives it that way).
     */
    static constexpr State kCharPoly = {
        0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
        0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

    // The draw methods are defined here so the workloads' per-edge
    // inner loops inline them; the state update is a handful of xors.

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        if (bound == 0)
            panic("Rng::nextBelow: bound must be positive");
        // Debiased modulo is unnecessary for simulation purposes; 2^64
        // is so much larger than any bound we use that the bias is
        // negligible.
        return next() % bound;
    }

    /** Uniform integer in [lo, hi]. @pre lo <= hi. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        if (lo > hi)
            panic("Rng::nextRange: lo > hi");
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool nextBool(double p) { return nextDouble() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    State s_;
};

} // namespace bauvm

#endif // BAUVM_SIM_RNG_H_
