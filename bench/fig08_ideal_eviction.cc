/**
 * @file
 * Figure 8: performance of a GPU with 50% memory oversubscription
 * normalized to unlimited memory, and the effect of ideal
 * (zero-latency) eviction.
 *
 * Paper: baseline loses 46% on average vs unlimited; ideal eviction
 * recovers 16%.
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
    spec.bench = "fig08_ideal_eviction";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular));
    spec.policies = {Policy::Unlimited, Policy::Baseline,
                     Policy::IdealEviction};
    spec.opt = opt;
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Figure 8: performance normalized to unlimited memory "
                "(50% oversubscription)");
    Table t({"workload", "BASELINE", "IDEAL EVICTION"});

    std::vector<double> base_rel, ideal_rel;
    for (const auto &name : spec.workloads) {
        const RunResult &unlimited =
            sweep.require(name, Policy::Unlimited);
        const RunResult &baseline = sweep.require(name, Policy::Baseline);
        const RunResult &ideal =
            sweep.require(name, Policy::IdealEviction);

        const double b = static_cast<double>(unlimited.cycles) /
                         static_cast<double>(baseline.cycles);
        const double i = static_cast<double>(unlimited.cycles) /
                         static_cast<double>(ideal.cycles);
        base_rel.push_back(b);
        ideal_rel.push_back(i);
        t.addRow({name, Table::num(b, 3), Table::num(i, 3)});
    }
    t.addRow({"AVERAGE", Table::num(amean(base_rel), 3),
              Table::num(amean(ideal_rel), 3)});
    t.emit(opt.csv);

    std::printf("\npaper: BASELINE 0.54 avg, IDEAL EVICTION +16%% over "
                "baseline\n");
    return 0;
}
