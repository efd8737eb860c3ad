#include "src/runner/job.h"

namespace bauvm
{

namespace
{

/** splitmix64 finalizer: diffuses a 64-bit state into a seed. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a over a string, folded into an existing hash state. */
std::uint64_t
mixString(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    // Separator so ("ab","c") and ("a","bc") mix differently.
    h ^= 0xff;
    h *= 0x100000001b3ULL;
    return h;
}

} // namespace

std::string
cellName(const std::string &workload, Policy policy,
         const std::string &variant)
{
    return workload + "/" + policyName(policy) +
           (variant.empty() ? "" : " " + variant);
}

std::uint64_t
deriveWorkloadSeed(std::uint64_t base_seed, const std::string &workload)
{
    std::uint64_t h = 0xcbf29ce484222325ULL ^ base_seed;
    h = mixString(h, workload);
    std::uint64_t seed = splitmix64(h);
    // seed==0 is a legal but degenerate xoshiro state; avoid it.
    return seed ? seed : 1;
}

std::uint64_t
deriveJobSeed(std::uint64_t base_seed, const std::string &workload,
              Policy policy, const std::string &variant)
{
    std::uint64_t h = 0xcbf29ce484222325ULL ^ base_seed;
    h = mixString(h, workload);
    h = mixString(h, policyName(policy));
    h = mixString(h, variant);
    std::uint64_t seed = splitmix64(h);
    return seed ? seed : 1;
}

} // namespace bauvm
