/**
 * @file
 * Figure 15: premature-eviction rate (evictions whose page is faulted
 * back in), baseline vs thread oversubscription. Paper: TO *decreases*
 * premature evictions for most workloads (better page utilization),
 * with BFS-TWC as the exception, kept in check by the dynamic
 * oversubscription control.
 */

#include <cstdio>

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
    spec.bench = "fig15_premature_eviction";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular));
    spec.policies = {Policy::Baseline, Policy::To};
    spec.opt = opt;
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Figure 15: premature eviction rate (BASELINE vs TO)");
    Table t({"workload", "BASELINE", "TO", "TO evictions",
             "TO ctx switches"});

    for (const auto &name : spec.workloads) {
        const RunResult &rb = sweep.require(name, Policy::Baseline);
        const RunResult &rt = sweep.require(name, Policy::To);
        t.addRow({name, Table::num(100.0 * rb.premature_rate, 1) + "%",
                  Table::num(100.0 * rt.premature_rate, 1) + "%",
                  std::to_string(rt.evictions),
                  std::to_string(rt.context_switches)});
    }
    t.emit(opt.csv);
    return 0;
}
