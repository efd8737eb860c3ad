#include "perfbench/cpp/cell_set.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <set>
#include <utility>

#include "src/core/experiment.h"
#include "src/graph/generator.h"
#include "src/graph/graph_cache.h"
#include "src/graph/stream/csr_stream_builder.h"
#include "src/runner/job.h"
#include "src/runner/parallel_units.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_registry.h"

namespace perfbench
{

using namespace bauvm;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<CellSet>
makeCellSets()
{
    // Why each workload is in the benchmark, and which layers it
    // stresses, is recorded in BENCHMARK.json and README.md.
    CellSet fig11;
    fig11.name = "fig11";
    fig11.workloads =
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular);
    fig11.policies = allPolicies();
    fig11.scale = WorkloadScale::Tiny;
    fig11.replay_workload = "PR";

    // The huge tier's shape (one big BFS-HYB graph, two policies) at
    // the Large graph size, so that several set-ups and sweeps fit in
    // one run. Large builds in core: the streamed CSR build spills to
    // the system temp directory, outside the benchmark's checkout.
    CellSet huge;
    huge.name = "bfs-hyb-huge";
    huge.workloads = {"BFS-HYB"};
    huge.policies = {Policy::Baseline, Policy::ToUe};
    huge.scale = WorkloadScale::Large;
    huge.replay_workload = "BFS-HYB";

    // ETC does not run multi-tenant, so the mix takes the other five.
    CellSet mix;
    mix.name = "mix2";
    mix.tenants = {TenantSpec{"BFS-HYB", 0.5, WorkloadScale::Small},
                   TenantSpec{"PR", 0.5, WorkloadScale::Small}};
    for (Policy p : allPolicies())
        if (p != Policy::Etc)
            mix.policies.push_back(p);
    mix.scale = WorkloadScale::Small;
    mix.cell_threads = 3;
    mix.replay_workload = "BFS-HYB";

    return {fig11, huge, mix};
}

BenchOptions
benchOptions(const CellSet &set, std::uint64_t seed)
{
    BenchOptions opt;
    opt.scale = set.scale;
    opt.ratio = set.ratio;
    opt.seed = seed;
    opt.jobs = 1;
    opt.cell_threads = set.cell_threads;
    opt.tenants = set.tenants;
    opt.share_policy = SharePolicy::FreeForAll;
    return opt;
}

/** The cell's final config, derived as SweepRunner derives it. */
SimConfig
cellConfig(const CellSet &set, const std::string &label, Policy policy,
           std::uint64_t seed)
{
    SimConfig config =
        paperConfig(set.ratio, deriveWorkloadSeed(seed, label));
    config = applyPolicy(config, policy);
    benchOptions(set, seed).applyTo(config);
    return config;
}

/** A tenant's solo anchor config, derived as executeCell derives it. */
SimConfig
soloConfig(const SimConfig &mix, std::size_t tenant)
{
    SimConfig solo = mix;
    solo.seed =
        deriveTenantSeed(mix.seed, static_cast<std::uint32_t>(tenant));
    solo.mt = MtConfig{};
    solo.trace.enabled = false;
    return solo;
}

std::vector<TenantSpec>
scaledTenants(const CellSet &set)
{
    std::vector<TenantSpec> specs = set.tenants;
    for (TenantSpec &t : specs)
        t.scale = set.scale;
    return specs;
}

/** The (workload, seed) pairs whose graphs one cell builds. */
std::vector<std::pair<std::string, std::uint64_t>>
cellGraphs(const CellSet &set, const std::string &label,
           const SimConfig &config)
{
    if (set.tenants.empty())
        return {{label, config.seed}};
    std::vector<std::pair<std::string, std::uint64_t>> graphs;
    for (std::size_t i = 0; i < set.tenants.size(); ++i)
        graphs.emplace_back(set.tenants[i].workload,
                            soloConfig(config, i).seed);
    return graphs;
}

/**
 * Builds @p workload's input graph into the graph cache through the
 * graph layer's public build functions, under the key
 * GraphWorkloadBase::buildGraph() asks for, so the workload's own
 * build is a cache hit. Only SSSP (weighted) and the coloring
 * variants (half the edges) ask for a non-default graph. A mismatch
 * only costs time: the workload then builds its graph itself, which
 * the traced pass counts in graph_builds_in_cells.
 */
void
buildGraph(const std::string &workload, WorkloadScale scale,
           std::uint64_t seed)
{
    const bool weighted = workload.rfind("SSSP", 0) == 0;
    const double edge_factor = workload.rfind("GC-", 0) == 0 ? 0.5 : 1.0;
    const GraphScale gs = graphScale(scale);
    RmatParams params;
    params.num_vertices = gs.vertices;
    params.num_edges = static_cast<std::uint64_t>(
        static_cast<double>(gs.edges) * edge_factor);
    params.undirected = true;
    params.weighted = weighted;
    params.seed = seed;

    const GraphStreamConfig &cfg = graphStreamConfig();
    const bool streamed = params.num_edges >= cfg.stream_threshold_edges;
    const GraphBuildCache::Key key{params.num_vertices,
                                   params.num_edges,
                                   seed,
                                   weighted,
                                   streamed,
                                   streamed ? cfg.edges_per_block : 0};
    GraphBuildCache::instance().getOrBuild(key, [&] {
        if (!streamed)
            return relabelByDegree(generateRmat(params));
        StreamCsrOptions opt;
        opt.edges_per_block = cfg.edges_per_block;
        opt.scratch_bytes = cfg.scratch_bytes;
        opt.relabel_by_degree = true;
        return buildCsrStreamed(params, opt);
    });
}

/**
 * Forwards every call to a registry workload and records its build()
 * as a span, so the build GpuUvmSystem::run() makes shows up as a
 * child of the run span.
 */
class SpannedWorkload final : public Workload
{
  public:
    SpannedWorkload(Workload &inner, SpanLog &log, std::uint64_t cell)
        : inner_(inner), log_(log), cell_(cell)
    {
    }

    void setParent(std::size_t parent) { parent_ = parent; }

    std::string name() const override { return inner_.name(); }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        {
            SpanScope span(log_, "workloads.build", cell_, parent_);
            inner_.build(scale, seed);
        }
        // The system sizes device memory and registers ranges from
        // the allocator it is handed, so mirror the inner one.
        alloc_ = inner_.allocator();
    }

    bool nextKernel(KernelInfo *out) override
    {
        return inner_.nextKernel(out);
    }

    void validate() const override { inner_.validate(); }

  private:
    Workload &inner_;
    SpanLog &log_;
    std::uint64_t cell_;
    std::size_t parent_ = kNoParent;
};

void
addResultCounts(const RunResult &r, LayerCounts &c)
{
    c.events += r.sim_events;
    c.cycles += r.cycles;
    c.warp_insts += r.instructions;
    c.ctx_switches += r.context_switches;
    c.ctx_switch_cycles += r.context_switch_cycles;
    c.translations += r.translations;
    c.page_walks +=
        static_cast<double>(r.translations) * (1.0 - r.tlb_hit_rate);
    c.batches += r.batches;
    c.batch_pages += static_cast<double>(r.batches) * r.avg_batch_pages;
    c.demand_pages += r.demand_pages;
    c.prefetched_pages += r.prefetched_pages;
    c.evictions += r.evictions;
    c.premature_evictions += r.premature_evictions;
    c.pcie_h2d_bytes += r.pcie_h2d_bytes;
    c.pcie_d2h_bytes += r.pcie_d2h_bytes;
    if (r.tenants.empty())
        return;
    // Jain's index over the tenants' progress (1/slowdown), as
    // bench/fig_mt_fairness reports it.
    double sum = 0.0, sum_sq = 0.0;
    for (const TenantResult &t : r.tenants) {
        const double progress = t.slowdown > 0.0 ? 1.0 / t.slowdown : 0.0;
        sum += progress;
        sum_sq += progress * progress;
        c.max_slowdown = std::max(c.max_slowdown, t.slowdown);
    }
    const double n = static_cast<double>(r.tenants.size());
    c.jain_sum += sum_sq > 0.0 ? (sum * sum) / (n * sum_sq) : 0.0;
    ++c.mt_cells;
}

void
addHierarchyCounts(GpuUvmSystem &system, LayerCounts &c)
{
    MemoryHierarchyBase &h = system.hierarchy();
    for (std::uint32_t sm = 0; sm < system.config().gpu.num_sms; ++sm) {
        c.l1_hits += h.l1Cache(sm).hits();
        c.l1_misses += h.l1Cache(sm).misses();
    }
    c.l2_hits += h.l2Cache().hits();
    c.l2_misses += h.l2Cache().misses();
    c.mshr_stall_cycles += h.mshrStallCycles();
}

void
mergeHierarchyCounts(const LayerCounts &from, LayerCounts &into)
{
    into.l1_hits += from.l1_hits;
    into.l1_misses += from.l1_misses;
    into.l2_hits += from.l2_hits;
    into.l2_misses += from.l2_misses;
    into.mshr_stall_cycles += from.mshr_stall_cycles;
}

/** One single-tenant simulation, call by call: create, construct,
 *  run (whose build is a child span), then tear down. */
RunResult
tracedSimulation(SpanLog &log, std::uint64_t cell, std::size_t parent,
                 const std::string &name, const SimConfig &config,
                 WorkloadScale scale, bool validate, LayerCounts &counts)
{
    std::unique_ptr<Workload> workload;
    {
        SpanScope span(log, "workloads.create", cell, parent);
        workload = WorkloadRegistry::instance().create(name);
    }
    SpannedWorkload spanned(*workload, log, cell);
    std::unique_ptr<GpuUvmSystem> system;
    {
        SpanScope span(log, "core.construct", cell, parent);
        system = std::make_unique<GpuUvmSystem>(config);
    }
    RunResult result;
    {
        SpanScope span(log, "core.run", cell, parent);
        spanned.setParent(span.index());
        result = system->run(spanned, scale);
    }
    if (validate) {
        SpanScope span(log, "workloads.validate", cell, parent);
        workload->validate();
    }
    addHierarchyCounts(*system, counts);
    counts.all_events += result.sim_events;
    {
        SpanScope span(log, "core.destroy", cell, parent);
        system.reset();
        workload.reset();
    }
    return result;
}

/** A multi-tenant cell as executeCell runs it: one solo anchor per
 *  tenant plus the mix, as units on set.cell_threads threads, then
 *  the per-tenant slowdowns against the anchors. */
RunResult
tracedMixCell(SpanLog &log, std::uint64_t cell, std::size_t parent,
              const CellSet &set, const SimConfig &config,
              LayerCounts &counts)
{
    const std::vector<TenantSpec> specs = scaledTenants(set);
    const std::size_t n = specs.size();
    std::vector<Cycle> solo(n, 0);
    std::vector<LayerCounts> unit_counts(n);
    std::unique_ptr<GpuUvmSystem> mix_system;
    RunResult mix;
    {
        SpanScope units(log, "runner.units", cell, parent);
        runUnits(n + 1, set.cell_threads, [&](std::size_t u) {
            ScopedAbortCapture capture; // per thread, see parallel_units.h
            SpanScope unit(log, "runner.unit", cell, units.index());
            if (u < n) {
                solo[u] = tracedSimulation(log, cell, unit.index(),
                                           specs[u].workload,
                                           soloConfig(config, u),
                                           specs[u].scale, false,
                                           unit_counts[u])
                              .cycles;
                return;
            }
            {
                SpanScope span(log, "core.construct", cell,
                               unit.index());
                mix_system = std::make_unique<GpuUvmSystem>(config);
            }
            SpanScope span(log, "core.run", cell, unit.index());
            mix = mix_system->run(specs);
        });
    }
    for (std::size_t i = 0; i < mix.tenants.size(); ++i) {
        TenantResult &t = mix.tenants[i];
        t.slowdown = solo[i] ? static_cast<double>(t.cycles) /
                                   static_cast<double>(solo[i])
                             : 0.0;
    }
    {
        SpanScope span(log, "workloads.validate", cell, parent);
        for (const auto &workload : mix_system->tenantWorkloads())
            workload->validate();
    }
    for (const LayerCounts &u : unit_counts) {
        mergeHierarchyCounts(u, counts);
        counts.all_events += u.all_events;
    }
    counts.all_events += mix.sim_events;
    {
        SpanScope span(log, "core.destroy", cell, parent);
        mix_system.reset();
    }
    return mix;
}

/** @p r without its per-batch records: the fingerprint already folds
 *  them, and keeping a copy would add perfbench's own memory to
 *  peak_rss_mb. */
RunResult
withoutBatchRecords(const RunResult &r)
{
    RunResult copy = r;
    copy.batch_records = {};
    return copy;
}

std::string
cellName(const std::string &label, Policy policy)
{
    return label + "/" + policyName(policy);
}

} // namespace

const std::vector<CellSet> &
cellSets()
{
    static const std::vector<CellSet> sets = makeCellSets();
    return sets;
}

const CellSet *
findCellSet(const std::string &name)
{
    for (const CellSet &set : cellSets())
        if (set.name == name)
            return &set;
    return nullptr;
}

std::vector<std::string>
cellLabels(const CellSet &set)
{
    if (set.tenants.empty())
        return set.workloads;
    return {tenantMixLabel(set.tenants)};
}

std::size_t
cellCount(const CellSet &set)
{
    return cellLabels(set).size() * set.policies.size();
}

std::string
fingerprint(const RunResult &r)
{
    std::string out;
    char buf[96];
    auto count = [&](const char *key, std::uint64_t v) {
        std::snprintf(buf, sizeof buf, "%s=%" PRIu64 ";", key, v);
        out += buf;
    };
    auto real = [&](const char *key, double v) {
        std::snprintf(buf, sizeof buf, "%s=%.17g;", key, v);
        out += buf;
    };
    count("cycles", r.cycles);
    count("order_digest", r.event_order_digest);
    count("events", r.sim_events);
    count("kernels", r.kernels);
    count("instructions", r.instructions);
    count("footprint_bytes", r.footprint_bytes);
    count("capacity_pages", r.capacity_pages);
    count("batches", r.batches);
    real("avg_batch_pages", r.avg_batch_pages);
    real("avg_batch_time", r.avg_batch_time);
    real("avg_handling_time", r.avg_handling_time);
    count("demand_pages", r.demand_pages);
    count("prefetched_pages", r.prefetched_pages);
    // Per-batch records fold into one FNV-1a value.
    std::uint64_t batches = 0xcbf29ce484222325ULL;
    auto fold = [&](std::uint64_t v) {
        batches = (batches ^ v) * 0x100000001b3ULL;
    };
    for (const BatchRecord &b : r.batch_records) {
        fold(b.begin);
        fold(b.first_transfer);
        fold(b.end);
        fold(b.fault_pages);
        fold(b.prefetch_pages);
        fold(b.duplicate_faults);
        fold(b.migrated_bytes);
    }
    count("batch_records", r.batch_records.size());
    count("batch_records_fnv", batches);
    count("migrations", r.migrations);
    count("evictions", r.evictions);
    count("premature_evictions", r.premature_evictions);
    real("premature_rate", r.premature_rate);
    count("context_switches", r.context_switches);
    count("context_switch_cycles", r.context_switch_cycles);
    count("pcie_h2d_bytes", r.pcie_h2d_bytes);
    count("pcie_d2h_bytes", r.pcie_d2h_bytes);
    count("translations", r.translations);
    real("tlb_hit_rate", r.tlb_hit_rate);
    real("faults_per_kcycle", r.faults_per_kcycle);
    for (const TenantResult &t : r.tenants) {
        out += "tenant:" + t.workload + ";";
        count("id", t.id);
        count("seed", t.seed);
        count("cycles", t.cycles);
        count("kernels", t.kernels);
        count("instructions", t.instructions);
        count("footprint_bytes", t.footprint_bytes);
        count("quota_pages", t.quota_pages);
        count("demand_pages", t.demand_pages);
        count("evictions_caused", t.evictions_caused);
        count("evictions_suffered", t.evictions_suffered);
        count("peak_resident_pages", t.peak_resident_pages);
        real("avg_lifetime_cycles", t.avg_lifetime_cycles);
        real("slowdown", t.slowdown);
    }
    return out;
}

double
runSetUp(const CellSet &set, std::uint64_t seed)
{
    ScopedAbortCapture capture;
    const auto t0 = Clock::now();
    // One graph cache scope for the whole set, as a sweep holds one.
    GraphBuildCache::Scope graph_scope;
    for (const std::string &label : cellLabels(set)) {
        for (Policy policy : set.policies) {
            const SimConfig config = cellConfig(set, label, policy, seed);
            if (set.tenants.empty()) {
                auto workload = WorkloadRegistry::instance().create(label);
                workload->build(set.scale, config.seed);
                GpuUvmSystem system(config);
                continue;
            }
            // A mix cell builds each tenant twice (its solo anchor and
            // its slice of the mix) and constructs n + 1 systems.
            for (std::size_t i = 0; i < set.tenants.size(); ++i) {
                const SimConfig solo = soloConfig(config, i);
                for (int copy = 0; copy < 2; ++copy) {
                    auto workload = WorkloadRegistry::instance().create(
                        set.tenants[i].workload);
                    workload->build(set.scale, solo.seed);
                }
                GpuUvmSystem system(solo);
            }
            GpuUvmSystem mix_system(config);
        }
    }
    return secondsSince(t0);
}

SweepPass
runSweep(const CellSet &set, std::uint64_t seed,
         const std::string &json_path)
{
    SweepSpec spec;
    spec.bench = "perfbench-" + set.name;
    spec.workloads = cellLabels(set);
    spec.policies = set.policies;
    spec.opt = benchOptions(set, seed);
    spec.verbose = false;

    SweepPass pass;
    const auto t0 = Clock::now();
    SweepRunner runner(std::move(spec));
    runner.setProgress(nullptr);
    const SweepResult result = runner.run();
    pass.run_s = secondsSince(t0);
    pass.exported = result.writeJson(json_path);
    pass.wall_s = secondsSince(t0);

    for (const CellOutcome &cell : result.cells) {
        CellRecord rec;
        rec.label = cellName(cell.workload, cell.policy);
        rec.ok = cell.ok;
        rec.error = cell.error;
        if (cell.ok) {
            rec.fingerprint = fingerprint(cell.result);
            rec.result = withoutBatchRecords(cell.result);
        }
        pass.cells_s += cell.wall_s;
        pass.cells.push_back(std::move(rec));
    }
    return pass;
}

TracedPass
runTraced(const CellSet &set, std::uint64_t seed,
          const std::string &json_path)
{
    TracedPass pass;
    pass.spans = std::make_unique<SpanLog>();
    SpanLog &log = *pass.spans;
    GraphBuildCache &graph_cache = GraphBuildCache::instance();
    const std::uint64_t builds_before = graph_cache.builds();
    const std::uint64_t hits_before = graph_cache.hits();
    const auto t0 = Clock::now();

    SweepResult exported;
    exported.bench = "perfbench-" + set.name;
    exported.base_seed = seed;
    exported.scale = set.scale;
    exported.ratio = set.ratio;
    exported.jobs = 1;

    std::uint64_t cell = 0;
    {
        GraphBuildCache::Scope graph_scope;
        std::set<std::pair<std::string, std::uint64_t>> built;
        for (const std::string &label : cellLabels(set)) {
            for (Policy policy : set.policies) {
                const SimConfig config =
                    cellConfig(set, label, policy, seed);
                CellRecord rec;
                rec.label = cellName(label, policy);
                CellOutcome out;
                out.workload = label;
                out.policy = policy;
                out.seed = config.seed;
                out.job_seed = deriveJobSeed(seed, label, policy, "");
                const auto cell_t0 = Clock::now();
                {
                    SpanScope root(log, "cell", cell);
                    pass.cell_spans.push_back(root.index());
                    try {
                        ScopedAbortCapture capture;
                        for (const auto &[workload, graph_seed] :
                             cellGraphs(set, label, config)) {
                            if (!built.insert({workload, graph_seed})
                                     .second)
                                continue;
                            SpanScope span(log, "graph.build", cell,
                                           root.index());
                            buildGraph(workload, set.scale, graph_seed);
                        }
                        const std::uint64_t in_cell_before =
                            graph_cache.builds();
                        rec.result =
                            set.tenants.empty()
                                ? tracedSimulation(log, cell,
                                                   root.index(), label,
                                                   config, set.scale,
                                                   true, pass.counts)
                                : tracedMixCell(log, cell, root.index(),
                                                set, config,
                                                pass.counts);
                        pass.graph_builds_in_cells +=
                            graph_cache.builds() - in_cell_before;
                        rec.ok = true;
                        rec.fingerprint = fingerprint(rec.result);
                        addResultCounts(rec.result, pass.counts);
                        rec.result = withoutBatchRecords(rec.result);
                    } catch (const std::exception &e) {
                        rec.error = e.what();
                    }
                }
                out.ok = rec.ok;
                out.error = rec.error;
                out.wall_s = secondsSince(cell_t0);
                if (rec.ok)
                    out.result = rec.result;
                exported.cells.push_back(std::move(out));
                pass.cells.push_back(std::move(rec));
                ++cell;
            }
        }
    }
    pass.graph_builds = graph_cache.builds() - builds_before;
    pass.graph_cache_hits = graph_cache.hits() - hits_before;

    {
        // Sweep-level span: the cell id after the last cell.
        SpanScope span(log, "runner.export", cell);
        exported.elapsed_s = secondsSince(t0);
        pass.exported = exported.writeJson(json_path);
    }
    pass.wall_s = secondsSince(t0);
    return pass;
}

} // namespace perfbench
