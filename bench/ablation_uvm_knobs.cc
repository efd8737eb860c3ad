/**
 * @file
 * Ablation of UVM runtime knobs on BFS-TTC and PR: tree prefetcher
 * on/off, fault-buffer capacity, interrupt dispatch latency, and
 * eviction granularity (64 KB pages vs 2 MB root chunks).
 *
 * All four knob groups run as one SweepRunner matrix (the knob setting
 * is a config variant labelled "group/setting"), so every cell
 * parallelizes across --jobs workers and a single --json PATH export
 * carries the whole ablation. Exits 2 when a cell failed.
 */

#include <cstdio>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/runner/sweep_runner.h"

namespace
{

using namespace bauvm;

struct KnobGroup {
    std::string title;
    std::vector<ConfigVariant> variants; //!< labels without prefix
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace bauvm;
    const BenchOptions opt = parseBenchArgs(argc, argv);

    const std::vector<KnobGroup> groups = {
        {"Ablation: prefetch policy",
         {{"tree prefetcher (baseline)", nullptr},
          {"sequential next-4",
           [](SimConfig &c) { c.uvm.sequential_prefetch_pages = 4; }},
          {"prefetch off",
           [](SimConfig &c) { c.uvm.prefetch_enabled = false; }}}},
        {"Ablation: fault buffer capacity",
         {{"1024 entries (Table 1)", nullptr},
          {"256 entries",
           [](SimConfig &c) { c.uvm.fault_buffer_entries = 256; }},
          {"64 entries",
           [](SimConfig &c) { c.uvm.fault_buffer_entries = 64; }}}},
        {"Ablation: interrupt dispatch latency",
         {{"2us (default)", nullptr},
          {"0us",
           [](SimConfig &c) { c.uvm.interrupt_latency_us = 0.0; }},
          {"10us",
           [](SimConfig &c) { c.uvm.interrupt_latency_us = 10.0; }}}},
        {"Ablation: eviction granularity",
         {{"64KB pages (default)", nullptr},
          {"2MB root chunks",
           [](SimConfig &c) { c.uvm.root_chunk_pages = 32; }}}},
    };

    SweepSpec spec;
    spec.bench = "ablation_uvm_knobs";
    spec.workloads = {"BFS-TTC", "PR"};
    // The knobs ablate the BASELINE configuration (applyPolicy is a
    // no-op for it); the variant carries the knob mutation.
    spec.policies = {Policy::Baseline};
    for (const auto &group : groups) {
        for (const auto &v : group.variants)
            spec.variants.push_back(
                {group.title + "/" + v.label, v.mutate});
    }
    spec.opt = opt;

    const SweepResult sweep = runBenchSweep(spec);

    for (const auto &group : groups) {
        printBanner(group.title);
        Table t({"variant", "BFS-TTC cycles", "PR cycles",
                 "BFS-TTC batches", "PR batches"});
        for (const auto &v : group.variants) {
            const std::string label = group.title + "/" + v.label;
            const CellOutcome *bfs =
                sweep.find("BFS-TTC", Policy::Baseline, label);
            const CellOutcome *pr =
                sweep.find("PR", Policy::Baseline, label);
            if (!bfs || !bfs->ok || !pr || !pr->ok) {
                warn("ablation: skipping '%s' (cell failed)",
                     label.c_str());
                continue;
            }
            t.addRow({v.label, std::to_string(bfs->result.cycles),
                      std::to_string(pr->result.cycles),
                      std::to_string(bfs->result.batches),
                      std::to_string(pr->result.batches)});
        }
        t.emit(opt.csv);
    }
    return sweep.failedCells() == 0 ? 0 : 2;
}
