/**
 * @file
 * Figure 12: total number of fault batches, thread oversubscription
 * relative to baseline. Paper: TO cuts the batch count by 51% on
 * average.
 */

#include <cstdio>
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
    spec.bench = "fig12_batch_count";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular));
    spec.policies = {Policy::Baseline, Policy::To};
    spec.opt = opt;
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Figure 12: relative number of batches (TO vs "
                "BASELINE)");
    Table t({"workload", "BASELINE batches", "TO batches", "relative"});

    std::vector<double> rel;
    for (const auto &name : spec.workloads) {
        const RunResult &rb = sweep.require(name, Policy::Baseline);
        const RunResult &rt = sweep.require(name, Policy::To);
        const double r = rb.batches
                             ? static_cast<double>(rt.batches) /
                                   static_cast<double>(rb.batches)
                             : 1.0;
        rel.push_back(r);
        t.addRow({name, std::to_string(rb.batches),
                  std::to_string(rt.batches), Table::num(r, 3)});
    }
    t.addRow({"AVERAGE", "", "", Table::num(amean(rel), 3)});
    t.emit(opt.csv);

    std::printf("\npaper: TO reduces the number of batches by 51%% on "
                "average (relative 0.49)\n");
    return 0;
}
