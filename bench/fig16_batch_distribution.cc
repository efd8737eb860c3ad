/**
 * @file
 * Figure 16: distribution of batch sizes (baseline vs thread
 * oversubscription) overlaid with the efficiency curve (reciprocal of
 * the average per-page handling time per size bucket). Bigger batches
 * appear under TO, and efficiency rises with batch size because the
 * GPU-runtime fault handling time is amortized.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/runner/sweep_runner.h"
#include "src/workloads/workload_registry.h"

namespace
{

using namespace bauvm;

constexpr std::size_t kBuckets = 13;
constexpr std::uint32_t kBucketPages = 8; // 0.5 MB per bucket

struct Dist {
    std::vector<std::uint64_t> counts;
    std::vector<double> per_page_sum;
    std::uint64_t total = 0;
};

/** Adds up @p policy's batches over @p workloads, in their order (the
 *  per-page sums are floating point). */
Dist
distribution(const SweepResult &sweep,
             const std::vector<std::string> &workloads, Policy policy)
{
    Dist d;
    d.counts.assign(kBuckets, 0);
    d.per_page_sum.assign(kBuckets, 0.0);
    for (const auto &w : workloads) {
        for (const auto &b : sweep.require(w, policy).batch_records) {
            if (b.totalPages() == 0)
                continue;
            const std::size_t idx =
                std::min<std::size_t>(b.totalPages() / kBucketPages,
                                      kBuckets - 1);
            ++d.counts[idx];
            d.per_page_sum[idx] +=
                static_cast<double>(b.processingTime()) /
                static_cast<double>(b.totalPages());
            ++d.total;
        }
    }
    return d;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bauvm;
    const BenchOptions opt = parseBenchArgs(argc, argv);

    SweepSpec spec;
    spec.bench = "fig16_batch_distribution";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular));
    spec.policies = {Policy::Baseline, Policy::To};
    spec.opt = opt;
    const SweepResult sweep = runBenchSweep(spec);

    const Dist base =
        distribution(sweep, spec.workloads, Policy::Baseline);
    const Dist to = distribution(sweep, spec.workloads, Policy::To);

    printBanner("Figure 16: batch size distribution and efficiency");
    Table t({"batch size (MB)", "BASELINE", "TO", "efficiency"});

    // Efficiency = 1 / avg per-page time, normalized so the largest
    // bucket with data is 100%.
    std::vector<double> eff(kBuckets, 0.0);
    double eff_max = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        const auto n = base.counts[i] + to.counts[i];
        if (n == 0)
            continue;
        const double per_page =
            (base.per_page_sum[i] + to.per_page_sum[i]) /
            static_cast<double>(n);
        eff[i] = 1.0 / per_page;
        eff_max = std::max(eff_max, eff[i]);
    }

    for (std::size_t i = 0; i < kBuckets; ++i) {
        const double mb = (i + 1) * kBucketPages * 64.0 / 1024.0;
        const double fb =
            base.total ? 100.0 * base.counts[i] / base.total : 0.0;
        const double ft =
            to.total ? 100.0 * to.counts[i] / to.total : 0.0;
        const double fe = eff_max > 0.0 ? 100.0 * eff[i] / eff_max : 0.0;
        t.addRow({Table::num(mb, 1), Table::num(fb, 1) + "%",
                  Table::num(ft, 1) + "%", Table::num(fe, 1) + "%"});
    }
    t.emit(opt.csv);
    return 0;
}
