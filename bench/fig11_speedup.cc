/**
 * @file
 * Figure 11 (the headline result): speedup over the state-of-the-art
 * prefetching baseline for BASELINE with PCIe compression, TO, UE,
 * TO+UE and ETC, per workload and on average, at 50% memory
 * oversubscription.
 *
 * Paper: TO+UE averages 2x over BASELINE, 1.81x over BASELINE with
 * PCIe compression, and 1.79x over ETC; TO alone contributes 22%, UE
 * adds another 61%; BFS-DWC gains 4.13x from UE.
 *
 * The (workload x policy) matrix runs on the parallel SweepRunner
 * (--jobs N); pass --json PATH for the structured export. Under
 * --tenants the policies a tenant mix cannot run (ETC) are dropped up
 * front, with one stderr line, and the TO+UE vs ETC summary line
 * reads n/a. Exits 2 when a cell failed.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/runner/sweep_runner.h"
#include "src/workloads/workload_registry.h"

int
main(int argc, char **argv)
{
    using namespace bauvm;
    const BenchOptions opt = parseBenchArgs(argc, argv);

    SweepSpec spec;
    spec.bench = "fig11_speedup";
    spec.workloads = opt.workloadsOr( // --workloads: e.g. frontier
        WorkloadRegistry::instance().enumerate(
            WorkloadKind::Irregular));
    spec.policies = allPolicies();
    spec.opt = opt;
    dropRefusedTenantPolicies(&spec); // --tenants: no ETC column
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Figure 11: speedup over BASELINE "
                "(50% memory oversubscription)");
    std::map<Policy, std::vector<double>> speedups;
    Table t = speedupTable(sweep, spec.workloads, spec.policies,
                           &speedups);
    // The paper reports arithmetic-average speedups (the BFS-DWC
    // outlier pulls its 2x headline up); print both means.
    std::vector<std::string> avg = {"AVERAGE"};
    for (Policy p : spec.policies)
        avg.push_back(Table::num(amean(speedups[p]), 2));
    t.addRow(avg);
    std::vector<std::string> gmean = {"GEOMEAN"};
    for (Policy p : spec.policies)
        gmean.push_back(Table::num(geomean(speedups[p]), 2));
    t.addRow(gmean);
    t.emit(opt.csv);

    // Section 5.2 headline derivations.
    const double toue = amean(speedups[Policy::ToUe]);
    const double pciec = amean(speedups[Policy::BaselinePcieComp]);
    const double etc = amean(speedups[Policy::Etc]);
    std::printf("\nsection 5.2 summary (paper in parentheses):\n");
    std::printf("  TO+UE vs BASELINE:            %.2fx (2.00x)\n",
                toue);
    std::printf("  TO+UE vs BASELINE+PCIeC:      %.2fx (1.81x)\n",
                pciec > 0.0 ? toue / pciec : 0.0);
    std::printf("  TO+UE vs ETC:                 ");
    if (std::find(spec.policies.begin(), spec.policies.end(),
                  Policy::Etc) == spec.policies.end())
        std::printf("n/a (ETC not run)\n"); // --tenants dropped it
    else
        std::printf("%.2fx (1.79x)\n", etc > 0.0 ? toue / etc : 0.0);
    std::printf("  TO alone:                     %.2fx (1.22x)\n",
                amean(speedups[Policy::To]));
    std::printf("  UE alone:                     %.2fx\n",
                amean(speedups[Policy::Ue]));
    return sweep.failedCells() == 0 ? 0 : 2;
}
