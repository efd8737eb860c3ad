#include "src/sim/rng.h"

#include <bit>

namespace bauvm
{

namespace
{
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** A polynomial over GF(2) of degree < 256, laid out like
 *  Rng::kCharPoly. P below is x^256 + Rng::kCharPoly. */
using Poly = Rng::State;

/** Spreads the 32 bits of @p x to the even bit positions: squaring
 *  over GF(2), where every cross term cancels. */
std::uint64_t
spreadBits(std::uint64_t x)
{
    x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
    x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
    x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
    x = (x | (x << 2)) & 0x3333333333333333ULL;
    x = (x | (x << 1)) & 0x5555555555555555ULL;
    return x;
}

/** r^2 mod P. */
Poly
squareMod(const Poly &r)
{
    std::uint64_t w[8];
    for (int i = 0; i < 4; ++i) {
        w[2 * i] = spreadBits(r[i] & 0xffffffffULL);
        w[2 * i + 1] = spreadBits(r[i] >> 32);
    }
    // Clear the degree 511..256 terms from the top down with
    // x^i = x^(i - 256) * Rng::kCharPoly (mod P); each fold only
    // touches lower degrees.
    for (int i = 511; i >= 256; --i) {
        if (((w[i / 64] >> (i % 64)) & 1) == 0)
            continue;
        w[i / 64] ^= std::uint64_t{1} << (i % 64);
        const int word = (i - 256) / 64, bit = (i - 256) % 64;
        for (int j = 0; j < 4; ++j) {
            w[word + j] ^= Rng::kCharPoly[j] << bit;
            if (bit != 0)
                w[word + j + 1] ^= Rng::kCharPoly[j] >> (64 - bit);
        }
    }
    return {w[0], w[1], w[2], w[3]};
}

/** r * x mod P. */
Poly
timesXMod(const Poly &r)
{
    const bool carry = (r[3] >> 63) != 0;
    Poly out = {r[0] << 1, (r[1] << 1) | (r[0] >> 63),
                (r[2] << 1) | (r[1] >> 63), (r[3] << 1) | (r[2] >> 63)};
    if (carry)
        for (int j = 0; j < 4; ++j)
            out[j] ^= Rng::kCharPoly[j];
    return out;
}
} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

void
Rng::jump(std::uint64_t k)
{
    // P evaluated at the step map is zero (Cayley-Hamilton), so
    // x^k mod P evaluated at the step map is the k-step map. First
    // x^k mod P, by square-and-multiply from the top bit of k.
    Poly r = {1, 0, 0, 0};
    for (int bit = std::bit_width(k) - 1; bit >= 0; --bit) {
        r = squareMod(r);
        if ((k >> bit) & 1)
            r = timesXMod(r);
    }
    // Evaluate at the step map: the sum of r_i * (i steps of s).
    State acc = {};
    for (int i = 0; i < 256; ++i) {
        if ((r[i / 64] >> (i % 64)) & 1)
            for (int j = 0; j < 4; ++j)
                acc[j] ^= s_[j];
        next();
    }
    s_ = acc;
}

} // namespace bauvm
