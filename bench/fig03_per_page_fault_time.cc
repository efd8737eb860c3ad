/**
 * @file
 * Figure 3: per-page fault handling time (us) vs batch size, for BFS.
 *
 * The paper measured this on a Titan Xp with the Visual Profiler; here
 * the same two quantities come from the simulator's batch records:
 * per-page time = batch processing time / pages in the batch. The
 * reproduction target is the shape — amortization makes per-page cost
 * fall steeply as batches grow.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/runner/sweep_runner.h"

int
main(int argc, char **argv)
{
    using namespace bauvm;
    const BenchOptions opt = parseBenchArgs(argc, argv);

    SweepSpec spec;
    spec.bench = "fig03_per_page_fault_time";
    spec.workloads = {"BFS-TTC"};
    spec.policies = {Policy::Baseline};
    spec.opt = opt;
    const SweepResult sweep = runBenchSweep(spec);
    const RunResult &r = sweep.require("BFS-TTC", Policy::Baseline);

    printBanner("Figure 3: per-page fault handling time vs batch size "
                "(BFS)");

    // Bucket batches by size (pages) and average the per-page time.
    std::map<std::uint32_t, std::pair<double, std::uint32_t>> buckets;
    for (const auto &b : r.batch_records) {
        if (b.totalPages() == 0)
            continue;
        const double per_page_us =
            static_cast<double>(b.processingTime()) /
            static_cast<double>(b.totalPages()) /
            static_cast<double>(kCyclesPerUs);
        // Bucket width: 8 pages (0.5 MB at 64 KB pages).
        const std::uint32_t bucket = b.totalPages() / 8 * 8;
        buckets[bucket].first += per_page_us;
        buckets[bucket].second += 1;
    }

    Table t({"batch size (pages)", "batch size (MB)",
             "per-page fault handling time (us)", "batches"});
    for (const auto &[bucket, acc] : buckets) {
        t.addRow({std::to_string(bucket),
                  Table::num(bucket * 64.0 / 1024.0, 2),
                  Table::num(acc.first / acc.second, 2),
                  std::to_string(acc.second)});
    }
    t.emit(opt.csv);

    std::printf("\ntotal batches: %llu, avg faults/batch: %.1f\n",
                static_cast<unsigned long long>(r.batches),
                r.avg_batch_pages);
    return 0;
}
