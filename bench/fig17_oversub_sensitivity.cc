/**
 * @file
 * Figure 17: sensitivity to the memory oversubscription ratio
 * (0.1 ... 1.0): relative execution time of the baseline (normalized
 * to ratio 1.0) and the speedup of unobtrusive eviction at each ratio.
 * Paper: UE is ineffective when everything fits (1.0) and reaches
 * 1.63x at ratio 0.1.
 *
 * The footprint axis is derived from each run's *actual* resident
 * bytes (RunResult::footprint_bytes, the exact CSR + scratch size the
 * allocator handed out — streamed Huge builds report the same exact
 * number) and the device capacity the manager really enforced
 * (capacity_pages), not from an in-core allocation estimate. The
 * "eff ratio" column is capacity / resident bytes after page
 * rounding — the honest oversubscription the cells experienced, which
 * is what keeps Huge-scale ratios meaningful.
 *
 * The (ratio x workload x policy) sweep runs as one SweepRunner matrix
 * with the ratio as a config variant, so all cells parallelize across
 * --jobs workers; pass --json PATH for the structured export and
 * --workloads A,B,C (e.g. the @frontier family) to change the suite.
 * Exits 2 when a cell failed.
 */

#include <cstdio>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/runner/sweep_runner.h"

int
main(int argc, char **argv)
{
    using namespace bauvm;
    const BenchOptions opt = parseBenchArgs(argc, argv);

    // A representative subset keeps the sweep tractable (10 ratios x 2
    // policies x workloads); --workloads overrides it.
    SweepSpec spec;
    spec.bench = "fig17_oversub_sensitivity";
    spec.workloads = opt.workloadsOr({
        "BFS-TTC", "BFS-TWC", "PR", "SSSP-TWC", "GC-DTC",
    });
    spec.policies = {Policy::Baseline, Policy::Ue};
    std::vector<double> ratios;
    for (int step = 10; step >= 1; --step) {
        const double ratio = step / 10.0;
        ratios.push_back(ratio);
        spec.variants.push_back(
            {Table::num(ratio, 1),
             [ratio](SimConfig &c) { c.memory_ratio = ratio; }});
    }
    spec.opt = opt;

    const std::uint64_t page_bytes =
        paperConfig(opt.ratio, opt.seed).uvm.page_bytes;

    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Figure 17: sensitivity to oversubscription ratio");
    Table t({"ratio", "resident MB", "eff ratio",
             "relative exec time (baseline)", "speedup of UE"});

    std::vector<double> base_at_1(spec.workloads.size(), 0.0);
    for (std::size_t r = 0; r < ratios.size(); ++r) {
        const std::string &variant = spec.variants[r].label;
        std::vector<double> rel, spd, resident_mb, eff_ratio;
        for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
            const auto &w = spec.workloads[i];
            const CellOutcome *rb =
                sweep.find(w, Policy::Baseline, variant);
            const CellOutcome *ru = sweep.find(w, Policy::Ue, variant);
            if (!rb || !rb->ok || !ru || !ru->ok) {
                warn("fig17: skipping %s at ratio %s (cell failed)",
                     w.c_str(), variant.c_str());
                continue;
            }
            if (r == 0)
                base_at_1[i] = static_cast<double>(rb->result.cycles);
            rel.push_back(static_cast<double>(rb->result.cycles) /
                          base_at_1[i]);
            spd.push_back(static_cast<double>(rb->result.cycles) /
                          static_cast<double>(ru->result.cycles));
            const double resident =
                static_cast<double>(rb->result.footprint_bytes);
            resident_mb.push_back(resident / (1024.0 * 1024.0));
            if (rb->result.capacity_pages > 0 && resident > 0.0) {
                eff_ratio.push_back(
                    static_cast<double>(rb->result.capacity_pages *
                                        page_bytes) /
                    resident);
            }
        }
        t.addRow({variant, Table::num(amean(resident_mb), 1),
                  eff_ratio.empty() ? "unlim"
                                    : Table::num(amean(eff_ratio), 2),
                  Table::num(amean(rel), 2), Table::num(amean(spd), 2)});
    }
    t.emit(opt.csv);

    std::printf("\npaper: UE speedup 1.0 at ratio 1.0, growing to "
                "1.63x at ratio 0.1\n");
    return sweep.failedCells() == 0 ? 0 : 2;
}
