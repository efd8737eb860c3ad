/**
 * @file
 * Frontier-suite evaluation matrix: the fig11-style speedup table over
 * the frontier-phase workload family (direction-optimizing BFS, label
 * propagation CC, triangle counting, k-truss) whose per-kernel access
 * patterns shift with the frontier instead of repeating a fixed
 * iteration shape — the regime batch-aware migration is built for.
 *
 * Defaults to every registered frontier workload; --workloads A,B,C
 * restricts the suite (CI smoke runs BFS-HYB,CC). The (workload x
 * policy) matrix runs on the parallel SweepRunner, so stdout is
 * byte-identical for any --jobs value; pass --json PATH for the
 * structured export and --audit for per-cell reference validation.
 * Under --tenants the policies a tenant mix cannot run (ETC) are
 * dropped up front, with one stderr line. Exits 2 when a cell failed.
 */

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
    spec.bench = "frontier_suite";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(
            WorkloadKind::Frontier));
    spec.policies = allPolicies();
    spec.opt = opt;
    dropRefusedTenantPolicies(&spec); // --tenants: no ETC column
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Frontier suite: speedup over BASELINE");
    std::map<Policy, std::vector<double>> speedups;
    Table t = speedupTable(sweep, spec.workloads, spec.policies,
                           &speedups);
    std::vector<std::string> gmean = {"GEOMEAN"};
    for (Policy p : spec.policies)
        gmean.push_back(Table::num(geomean(speedups[p]), 2));
    t.addRow(gmean);
    t.emit(opt.csv);
    return sweep.failedCells() == 0 ? 0 : 2;
}
