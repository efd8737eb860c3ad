/**
 * @file
 * Multi-tenant fairness: concurrent workloads contending for device
 * memory under the three share policies (free-for-all, strict quota,
 * proportional), against each tenant's solo run on the whole GPU.
 *
 * Two tables:
 *  - per-tenant slowdown (mix cycles / solo cycles) per policy, plus
 *    the evictions each tenant caused and suffered — who pays for
 *    whose faults;
 *  - fairness vs throughput per policy: makespan, aggregate
 *    instructions/kcycle, and Jain's fairness index over the
 *    tenants' normalized progress (1/slowdown) — 1.0 means every
 *    tenant slowed down equally, 1/n means one tenant starved.
 *
 * Default mix: BFS-HYB and PR at equal (50/50) quotas; override with
 * --tenants A:Q,B:Q and --ratio. Each share policy runs as a
 * one-cell SweepRunner sweep (the policy set in its options, the cell
 * labelled by a config variant), so --jobs, --cell-threads, --resume
 * and --trace apply; --json concatenates the three cells into one
 * bauvm.sweep/1.4 document, bit-identical to a sweep request
 * (bauvm_submit) running the same mix.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/tenant.h"
#include "src/graph/graph_cache.h"
#include "src/runner/sweep_runner.h"

int
main(int argc, char **argv)
{
    using namespace bauvm;
    BenchOptions opt = parseBenchArgs(argc, argv);
    if (opt.tenants.empty()) {
        opt.tenants = {{"BFS-HYB", 0.5, opt.scale},
                       {"PR", 0.5, opt.scale}};
    }
    for (TenantSpec &t : opt.tenants)
        t.scale = opt.scale;
    const std::string mix = tenantMixLabel(opt.tenants);

    const std::vector<SharePolicy> policies = {
        SharePolicy::FreeForAll,
        SharePolicy::StrictQuota,
        SharePolicy::Proportional,
    };

    // Share graph builds across the three sweeps.
    GraphBuildCache::Scope graph_scope;

    SweepResult sweep;
    sweep.bench = "fig_mt_fairness";
    sweep.base_seed = opt.seed;
    sweep.scale = opt.scale;
    sweep.ratio = opt.ratio;
    for (SharePolicy policy : policies) {
        SweepSpec spec;
        spec.bench = sweep.bench;
        spec.workloads = {mix};
        spec.policies = {Policy::Baseline};
        spec.variants = {{sharePolicyName(policy), nullptr}};
        spec.opt = opt;
        spec.opt.share_policy = policy;
        const SweepResult one = SweepRunner(spec).run();
        one.require(mix, Policy::Baseline, sharePolicyName(policy));
        sweep.cells.push_back(one.cells.front());
        sweep.elapsed_s += one.elapsed_s;
    }
    if (!opt.json_path.empty())
        sweep.writeJson(opt.json_path);

    printBanner("Multi-tenant fairness: " + mix + " (ratio " +
                Table::num(opt.ratio, 2) + ")");

    Table per_tenant({"policy", "tenant", "quota_pages", "slowdown",
                      "evict_caused", "evict_suffered",
                      "peak_resident"});
    for (const CellOutcome &cell : sweep.cells) {
        for (const TenantResult &t : cell.result.tenants) {
            per_tenant.addRow(
                {cell.variant, t.workload,
                 std::to_string(t.quota_pages),
                 Table::num(t.slowdown),
                 std::to_string(t.evictions_caused),
                 std::to_string(t.evictions_suffered),
                 std::to_string(t.peak_resident_pages)});
        }
    }
    per_tenant.emit(opt.csv);

    std::printf("\n");
    Table fairness({"policy", "makespan_cycles", "insn_per_kcycle",
                    "jain_index", "worst_slowdown"});
    for (const CellOutcome &cell : sweep.cells) {
        const RunResult &r = cell.result;
        double sum = 0.0, sum_sq = 0.0, worst = 0.0;
        for (const TenantResult &t : r.tenants) {
            const double progress =
                t.slowdown > 0.0 ? 1.0 / t.slowdown : 0.0;
            sum += progress;
            sum_sq += progress * progress;
            if (t.slowdown > worst)
                worst = t.slowdown;
        }
        const double n = static_cast<double>(r.tenants.size());
        const double jain =
            sum_sq > 0.0 ? (sum * sum) / (n * sum_sq) : 0.0;
        const double ipk =
            r.cycles ? 1000.0 * static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles)
                     : 0.0;
        fairness.addRow({cell.variant,
                         std::to_string(
                             static_cast<std::uint64_t>(r.cycles)),
                         Table::num(ipk), Table::num(jain),
                         Table::num(worst)});
    }
    fairness.emit(opt.csv);
    return 0;
}
