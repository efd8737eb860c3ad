/**
 * @file
 * Figure 18: sensitivity of the TO+UE speedup to the GPU-runtime fault
 * handling time (20-50 us). Paper: the speedup grows with the handling
 * time, since larger batches amortize a bigger fixed cost.
 *
 * One SweepRunner sweep: the handling time is a config variant,
 * BASELINE and TO+UE the policies.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/runner/sweep_runner.h"

int
main(int argc, char **argv)
{
    using namespace bauvm;
    const BenchOptions opt = parseBenchArgs(argc, argv);

    // One config variant per fault handling time.
    const std::vector<double> handling_us = {20.0, 30.0, 40.0, 50.0};
    const auto label = [](double us) { return Table::num(us, 0) + "us"; };
    SweepSpec spec;
    spec.bench = "fig18_fault_time_sensitivity";
    spec.workloads = opt.workloadsOr({
        "BFS-TTC", "BFS-TWC", "PR", "SSSP-TWC", "GC-DTC",
    });
    spec.policies = {Policy::Baseline, Policy::ToUe};
    for (double us : handling_us) {
        spec.variants.push_back(
            {label(us),
             [us](SimConfig &c) { c.uvm.fault_handling_us = us; }});
    }
    spec.opt = opt;
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Figure 18: TO+UE speedup vs GPU runtime fault "
                "handling time");
    Table t({"fault handling time (us)", "speedup of TO+UE"});

    for (double us : handling_us) {
        std::vector<double> spd;
        for (const auto &w : spec.workloads) {
            const RunResult &rb =
                sweep.require(w, Policy::Baseline, label(us));
            const RunResult &rt = sweep.require(w, Policy::ToUe, label(us));
            spd.push_back(static_cast<double>(rb.cycles) /
                          static_cast<double>(rt.cycles));
        }
        t.addRow({Table::num(us, 0), Table::num(amean(spd), 2)});
    }
    t.emit(opt.csv);

    std::printf("\npaper: speedup grows from 2.0x at 20us toward ~2.5x "
                "at 50us\n");
    return 0;
}
