/**
 * @file
 * Section 6.5 ablation: sensitivity of TO+UE to the context-switch
 * cost — global-memory save/restore (our default) vs the close-to-
 * ideal infinite-shared-memory cost (zero in our model, <1 us in the
 * paper's Eq.). Paper: overall execution time is insensitive, because
 * the switch cost is dwarfed by batch processing times.
 *
 * One SweepRunner sweep: the two switch costs are config variants of
 * TO+UE.
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
    spec.bench = "ablation_ctx_switch_cost";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular));
    spec.policies = {Policy::ToUe};
    spec.variants = {
        {"global-switch", nullptr},
        {"ideal-switch",
         [](SimConfig &c) { c.to.ideal_ctx_switch = true; }},
    };
    spec.opt = opt;
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Section 6.5: context switch cost sensitivity (TO+UE)");
    Table t({"workload", "global-memory switch", "ideal switch",
             "ideal/global", "switches"});

    std::vector<double> rel;
    for (const auto &name : spec.workloads) {
        const RunResult &rg =
            sweep.require(name, Policy::ToUe, "global-switch");
        const RunResult &ri =
            sweep.require(name, Policy::ToUe, "ideal-switch");
        const double r = static_cast<double>(rg.cycles) /
                         static_cast<double>(ri.cycles);
        rel.push_back(r);
        t.addRow({name, std::to_string(rg.cycles),
                  std::to_string(ri.cycles), Table::num(r, 3),
                  std::to_string(rg.context_switches)});
    }
    t.addRow({"AVERAGE", "", "", Table::num(amean(rel), 3), ""});
    t.emit(opt.csv);

    std::printf("\npaper: execution time is insensitive to the switch "
                "cost (ratio ~1.0)\n");
    return 0;
}
