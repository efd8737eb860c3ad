/**
 * @file
 * Figure 13: average batch size, thread oversubscription relative to
 * baseline. Paper: TO processes 2.27x more page faults per batch.
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
    spec.bench = "fig13_batch_size";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular));
    spec.policies = {Policy::Baseline, Policy::To};
    spec.opt = opt;
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Figure 13: relative average batch size (TO vs "
                "BASELINE)");
    Table t({"workload", "BASELINE faults/batch", "TO faults/batch",
             "relative"});

    std::vector<double> rel;
    for (const auto &name : spec.workloads) {
        const RunResult &rb = sweep.require(name, Policy::Baseline);
        const RunResult &rt = sweep.require(name, Policy::To);
        const double r = rb.avg_batch_pages > 0.0
                             ? rt.avg_batch_pages / rb.avg_batch_pages
                             : 1.0;
        rel.push_back(r);
        t.addRow({name, Table::num(rb.avg_batch_pages, 1),
                  Table::num(rt.avg_batch_pages, 1), Table::num(r, 2)});
    }
    t.addRow({"AVERAGE", "", "", Table::num(amean(rel), 2)});
    t.emit(opt.csv);

    std::printf("\npaper: TO grows the average batch size 2.27x\n");
    return 0;
}
