/**
 * @file
 * Figure 5: performance degradation when provisioning one additional
 * thread block per SM *requires context switching* on a traditional
 * GPU (no demand paging: everything preloaded).
 *
 * Baseline: preloaded memory, no extra blocks. Variant: one extra block
 * per SM with full context save/restore through global memory,
 * switching whenever all warps of an active block stall on memory. The
 * paper reports an average 49% slowdown — the point being that TO's
 * switching cost only pays off once page migrations dominate.
 *
 * One SweepRunner sweep at ratio 0 (unlimited memory; --ratio does not
 * apply): the two configurations are config variants of BASELINE.
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
    spec.bench = "fig05_context_switch_overhead";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular));
    spec.policies = {Policy::Baseline};
    spec.variants = {
        {"preloaded", [](SimConfig &c) { c.uvm.preload = true; }},
        {"preloaded+1-block",
         [](SimConfig &c) {
             c.uvm.preload = true;
             c.to.enabled = true;
             c.to.initial_extra_blocks = 1;
             c.to.max_extra_blocks = 1;
             c.to.switch_on_memory_stall = true;
         }},
    };
    spec.opt = opt;
    spec.opt.ratio = 0.0; // no demand paging: unlimited device memory
    const SweepResult sweep = runBenchSweep(spec);

    printBanner("Figure 5: relative performance with +1 context-"
                "switched block per SM (traditional GPU)");
    Table t({"workload", "baseline cycles", "with ctx-switched block",
             "relative perf", "switches"});

    std::vector<double> rels;
    for (const auto &name : spec.workloads) {
        const RunResult &rb =
            sweep.require(name, Policy::Baseline, "preloaded");
        const RunResult &ro =
            sweep.require(name, Policy::Baseline, "preloaded+1-block");
        const double rel = static_cast<double>(rb.cycles) /
                           static_cast<double>(ro.cycles);
        rels.push_back(rel);
        t.addRow({name, std::to_string(rb.cycles),
                  std::to_string(ro.cycles), Table::num(rel, 3),
                  std::to_string(ro.context_switches)});
    }
    t.addRow({"AVERAGE", "", "", Table::num(amean(rels), 3), ""});
    t.emit(opt.csv);

    std::printf("\npaper: average relative performance 0.51 "
                "(49%% degradation)\n");
    return 0;
}
