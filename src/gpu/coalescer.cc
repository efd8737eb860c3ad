#include "src/gpu/coalescer.h"

#include <bit>

#include "src/sim/log.h"

namespace bauvm
{

Coalescer::Coalescer(std::uint32_t line_bytes) : line_bytes_(line_bytes)
{
    if (line_bytes == 0)
        fatal("Coalescer: zero line size");
    line_pow2_ = (line_bytes & (line_bytes - 1)) == 0;
    line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
    line_mask_ = ~static_cast<VAddr>(line_bytes - 1);
}

std::vector<VAddr>
Coalescer::coalesce(const std::vector<VAddr> &lane_addrs)
{
    std::vector<VAddr> lines;
    coalesceInto(lane_addrs, &lines);
    return lines;
}

void
Coalescer::coalesceInto(const VAddr *lane_addrs, std::size_t n,
                        std::vector<VAddr> *out)
{
    ++instructions_;
    std::vector<VAddr> &lines = *out;
    lines.clear();
    lines.reserve(n);
    // Optimistic single pass: lane addresses are usually already
    // line-ascending (unit-stride and most gather patterns), so the
    // masked lines dedup against the running tail with no sort and no
    // second scan. The first out-of-order line falls back to
    // dedupUnordered(), which produces the same ascending unique set.
    std::size_t i = 0;
    for (; i < n; ++i) {
        const VAddr a = lane_addrs[i];
        const VAddr base =
            line_pow2_ ? a & line_mask_ : a - a % line_bytes_;
        if (lines.empty() || base > lines.back())
            lines.push_back(base);
        else if (base != lines.back())
            break;
    }
    if (i < n)
        dedupUnordered(lane_addrs, n, i, lines);
    transactions_ += lines.size();
}

void
Coalescer::dedupUnordered(const VAddr *lane_addrs, std::size_t n,
                          std::size_t i, std::vector<VAddr> &lines) const
{
    if (line_pow2_) {
        // Clustered gathers (x[v], row[v], row[v+1] streams, a stray
        // lane) span few lines: set one bit per line over the span and
        // read the lines back ascending.
        VAddr lo = lines.front() >> line_shift_;
        VAddr hi = lines.back() >> line_shift_;
        for (std::size_t j = i; j < n; ++j) {
            const VAddr line = lane_addrs[j] >> line_shift_;
            lo = std::min(lo, line);
            hi = std::max(hi, line);
        }
        const VAddr words = ((hi - lo) >> 6) + 1;
        if (bitmapWins(words, n)) {
            std::uint64_t bits[kBitmapWords];
            std::fill_n(bits, words, 0);
            auto set = [&](VAddr line) {
                const VAddr off = line - lo;
                bits[off >> 6] |= std::uint64_t{1} << (off & 63);
            };
            for (const VAddr base : lines)
                set(base >> line_shift_);
            for (std::size_t j = i; j < n; ++j)
                set(lane_addrs[j] >> line_shift_);
            lines.clear();
            for (VAddr w = 0; w < words; ++w) {
                for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
                    const VAddr line =
                        lo + w * 64 +
                        static_cast<VAddr>(std::countr_zero(b));
                    lines.push_back(line << line_shift_);
                }
            }
            return;
        }
    }
    for (; i < n; ++i) {
        const VAddr a = lane_addrs[i];
        lines.push_back(line_pow2_ ? a & line_mask_
                                   : a - a % line_bytes_);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

} // namespace bauvm
