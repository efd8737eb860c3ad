/**
 * @file
 * Figure 14: average batch processing time for BASELINE, TO and TO+UE,
 * normalized to baseline. Paper: TO grows batch processing time (the
 * batches are bigger), UE pulls it back 27% below the baseline on
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
    spec.bench = "fig14_batch_time";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular));
    spec.policies = {Policy::Baseline, Policy::To, Policy::ToUe};
    spec.opt = opt;
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Figure 14: average batch processing time, normalized "
                "to BASELINE");
    Table t({"workload", "BASELINE", "TO", "TO+UE"});

    std::vector<double> to_rel, toue_rel;
    for (const auto &name : spec.workloads) {
        const RunResult &rb = sweep.require(name, Policy::Baseline);
        const RunResult &rt = sweep.require(name, Policy::To);
        const RunResult &ru = sweep.require(name, Policy::ToUe);
        const double b = rb.avg_batch_time;
        const double to = b > 0.0 ? rt.avg_batch_time / b : 1.0;
        const double toue = b > 0.0 ? ru.avg_batch_time / b : 1.0;
        to_rel.push_back(to);
        toue_rel.push_back(toue);
        t.addRow({name, "1.00", Table::num(to, 2),
                  Table::num(toue, 2)});
    }
    t.addRow({"AVERAGE", "1.00", Table::num(amean(to_rel), 2),
              Table::num(amean(toue_rel), 2)});
    t.emit(opt.csv);

    std::printf("\npaper: TO+UE cuts average batch processing time by "
                "27%% vs BASELINE (0.73) while handling more faults "
                "per batch; UE cuts it 60%% vs TO alone\n");
    return 0;
}
