/**
 * @file
 * Statistics primitives used across the simulator.
 *
 * Components keep their own stat structs; RunningStat gives them
 * aggregation without retaining every sample.
 */

#ifndef BAUVM_SIM_STATS_H_
#define BAUVM_SIM_STATS_H_

#include <cmath>
#include <cstdint>
#include <limits>

namespace bauvm
{

/**
 * Streaming min/max/mean/sum aggregate over a sequence of samples.
 *
 * NaN-safety contract: the empty aggregate reports plain zeros for
 * mean/min/max/sum, and non-finite samples (NaN/inf — e.g. a rate
 * computed from a failed cell) are counted separately instead of being
 * folded in, so one bad sample can never poison a whole report row.
 */
class RunningStat
{
  public:
    /** Adds one sample; non-finite values are tallied, not folded in. */
    void
    add(double v)
    {
        if (!std::isfinite(v)) {
            ++nonfinite_;
            return;
        }
        ++count_;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    /** Merges another aggregate into this one. */
    void
    merge(const RunningStat &o)
    {
        count_ += o.count_;
        nonfinite_ += o.nonfinite_;
        sum_ += o.sum_;
        if (o.min_ < min_)
            min_ = o.min_;
        if (o.max_ > max_)
            max_ = o.max_;
    }

    /** Resets to the empty state. */
    void
    reset()
    {
        *this = RunningStat{};
    }

    std::uint64_t count() const { return count_; }
    /** Samples rejected by add() for being NaN or infinite. */
    std::uint64_t nonfiniteCount() const { return nonfinite_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t nonfinite_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace bauvm

#endif // BAUVM_SIM_STATS_H_
