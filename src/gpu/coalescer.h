/**
 * @file
 * Memory-access coalescer: merges the per-lane addresses of one warp
 * memory instruction into the minimal set of line-granular transactions,
 * as the hardware coalescing unit does before the L1.
 */

#ifndef BAUVM_GPU_COALESCER_H_
#define BAUVM_GPU_COALESCER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/gpu/lane_vec.h"
#include "src/sim/types.h"

namespace bauvm
{

/** Stateless coalescing helper with aggregate statistics. */
class Coalescer
{
  public:
    explicit Coalescer(std::uint32_t line_bytes);

    /**
     * Coalesces @p lane_addrs into unique line base addresses
     * (ascending). Also updates the divergence statistics.
     */
    std::vector<VAddr> coalesce(const std::vector<VAddr> &lane_addrs);

    /**
     * coalesce() into a caller-owned buffer (@p out is clear()ed
     * first): reusing one scratch vector across instructions keeps the
     * SM's issue loop allocation-free.
     */
    void coalesceInto(const VAddr *lane_addrs, std::size_t n,
                      std::vector<VAddr> *out);

    void
    coalesceInto(const LaneVec &lane_addrs, std::vector<VAddr> *out)
    {
        coalesceInto(lane_addrs.data(), lane_addrs.size(), out);
    }

    void
    coalesceInto(const std::vector<VAddr> &lane_addrs,
                 std::vector<VAddr> *out)
    {
        coalesceInto(lane_addrs.data(), lane_addrs.size(), out);
    }

    std::uint64_t memoryInstructions() const { return instructions_; }
    std::uint64_t transactions() const { return transactions_; }

    /** Average transactions per memory instruction (divergence proxy). */
    double
    transactionsPerInstruction() const
    {
        return instructions_
                   ? static_cast<double>(transactions_) / instructions_
                   : 0.0;
    }

    /**
     * Largest line span, in 64-line bitmap words, that the clustered
     * gather path dedups on the stack; wider ops sort.
     */
    static constexpr std::size_t kBitmapWords = 64;

    /**
     * True when an out-of-order op of @p lanes lanes spanning @p words
     * bitmap words dedups faster through the bitmap than through a
     * sort. The sort's cost grows as n log n with a mispredict per
     * compare, the bitmap's as n plus a pass over its words; measured
     * on random gathers the crossover sits near n words at 8-16 lanes
     * and past 8n words at 32-64 lanes, which n*n/8 tracks.
     */
    static constexpr bool
    bitmapWins(std::size_t words, std::size_t lanes)
    {
        return words <= kBitmapWords && 8 * words <= lanes * lanes;
    }

  private:
    /**
     * Out-of-order tail of coalesceInto(): @p lines holds the
     * ascending unique lines of lanes [0, @p i); rebuilds it over all
     * @p n lanes.
     */
    void dedupUnordered(const VAddr *lane_addrs, std::size_t n,
                        std::size_t i, std::vector<VAddr> &lines) const;

    std::uint32_t line_bytes_;
    bool line_pow2_ = false;  //!< mask instead of modulo when pow2
    unsigned line_shift_ = 0; //!< log2(line_bytes_) when pow2
    VAddr line_mask_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t transactions_ = 0;
};

} // namespace bauvm

#endif // BAUVM_GPU_COALESCER_H_
