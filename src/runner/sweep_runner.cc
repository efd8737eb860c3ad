#include "src/runner/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>

#include "src/core/system.h"
#include "src/graph/graph_cache.h"
#include "src/runner/cell_spec.h"
#include "src/serve/result_cache.h"
#include "src/sim/log.h"
#include "src/sim/parallel_units.h"
#include "src/trace/trace_export.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Builds "<bench>__<workload>__<policy>[__<variant>]" with
 *  filesystem-hostile characters replaced by '-'. */
std::string
cellFileStem(const SweepSpec &spec, const SweepJob &job)
{
    std::string stem = spec.bench + "__" + job.workload + "__" +
                       policyName(job.policy);
    if (!job.variant.empty())
        stem += "__" + job.variant;
    for (char &c : stem) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' ||
                        c == '_' || c == '.';
        if (!ok)
            c = '-';
    }
    return stem;
}

/** multiTenantRefusal() of @p job's config; "" for a single-tenant
 *  sweep. */
std::string
jobRefusal(const SweepSpec &spec, const SweepJob &job)
{
    return spec.opt.tenants.empty()
               ? ""
               : multiTenantRefusal(cellConfig(spec, job),
                                    spec.opt.tenants.size());
}

/**
 * Runs one cell on its cellConfig() with abort capture; never throws.
 * Stamps provenance: digest (a pure function of the config) and the
 * soft-timeout verdict. With a resume cache, finished ok cells load by
 * content address instead of recomputing, and fresh ok results are
 * stored for the next run.
 */
CellOutcome
executeJob(const SweepJob &job, const SweepSpec &spec,
           ResultCache *cache)
{
    const BenchOptions &opt = spec.opt;
    SimConfig config = cellConfig(spec, job);
    std::vector<TenantSpec> tenants = opt.tenants;
    for (TenantSpec &t : tenants)
        t.scale = opt.scale;
    const std::string key =
        cellKey(job.workload, opt.scale, config, gitRev(), tenants);
    const std::string digest = digestHex(key);

    CellOutcome cached;
    if (cache && cache->lookup(digest, key, &cached)) {
        // The stored outcome may carry a different producer
        // coordinate that digests identically; re-label it as
        // this cell. The simulated payload is digest-covered.
        cached.workload = job.workload;
        cached.policy = job.policy;
        cached.variant = job.variant;
        cached.seed = job.seed;
        cached.job_seed = job.job_seed;
        cached.digest = digest;
        cached.result.workload = job.workload;
        cached.result.seed = job.seed;
        return cached;
    }

    CellOutcome out;
    out.workload = job.workload;
    out.policy = job.policy;
    out.variant = job.variant;
    out.seed = config.seed;
    out.job_seed = job.job_seed;
    out.digest = digest;

    const bool tracing = !opt.trace_dir.empty();
    config.trace.enabled = tracing;
    // The system outlives the try block so an aborted cell's partial
    // trace buffer can still be flushed to disk below.
    std::unique_ptr<GpuUvmSystem> system;
    bool aborted = false;

    const auto t0 = Clock::now();
    try {
        ScopedAbortCapture capture;
        if (!tenants.empty()) {
            // A multi-tenant cell is several independent simulations:
            // one solo anchor per tenant (each tenant alone on the
            // whole GPU, same ratio/policy/scale and the seed its mix
            // build will use, so the builds share the graph cache)
            // plus the mix itself. They are units on the intra-cell
            // pool: opt.cell_threads > 1 overlaps them, and the
            // fixed-order merge below keeps any thread count
            // bit-identical to the serial run. Each unit installs its
            // own abort capture — the depth is thread-local.
            const std::size_t n = tenants.size();
            std::vector<Cycle> solo(n, 0);
            RunResult mix_result;
            std::unique_ptr<GpuUvmSystem> mix_system;
            runUnits(n + 1, opt.cell_threads, [&](std::size_t u) {
                ScopedAbortCapture unit_capture;
                if (u == n) {
                    mix_system =
                        std::make_unique<GpuUvmSystem>(config);
                    mix_result = mix_system->run(tenants);
                    return;
                }
                SimConfig solo_config = config;
                solo_config.seed =
                    deriveTenantSeed(config.seed,
                                     static_cast<std::uint32_t>(u));
                solo_config.mt = MtConfig{};
                solo_config.trace.enabled = false;
                auto workload = WorkloadRegistry::instance().create(
                    tenants[u].workload);
                GpuUvmSystem solo_system(solo_config);
                solo[u] =
                    solo_system.run(*workload, tenants[u].scale)
                        .cycles;
            });
            system = std::move(mix_system);
            out.result = std::move(mix_result);
            for (std::size_t i = 0; i < out.result.tenants.size();
                 ++i) {
                TenantResult &t = out.result.tenants[i];
                t.slowdown = solo[i]
                                 ? static_cast<double>(t.cycles) /
                                       static_cast<double>(solo[i])
                                 : 0.0;
            }
            if (config.check.enabled) {
                for (const auto &workload : system->tenantWorkloads())
                    workload->validate();
            }
        } else {
            auto workload =
                WorkloadRegistry::instance().create(job.workload);
            system = std::make_unique<GpuUvmSystem>(config);
            out.result = system->run(*workload, opt.scale);
            // --audit cells also check the functional result against
            // the workload's host-side reference implementation; a
            // mismatch panics and fails the cell like any
            // model-invariant breach.
            if (config.check.enabled)
                workload->validate();
        }
        out.ok = true;
    } catch (const SimAbort &e) {
        aborted = true;
        out.error = e.what();
    } catch (const std::exception &e) {
        aborted = true;
        out.error = e.what();
    } catch (...) {
        aborted = true;
        out.error = "unknown exception";
    }
    out.wall_s = secondsSince(t0);

    if (tracing && system && system->trace()) {
        TraceMeta meta;
        meta.bench = spec.bench;
        meta.workload = job.workload;
        meta.policy = policyName(job.policy);
        meta.variant = job.variant;
        meta.scale = scaleName(opt.scale);
        meta.seed = config.seed;
        meta.ratio = opt.ratio;
        meta.partial = aborted;
        // A cell that died mid-run still flushes whatever the ring
        // holds; the .partial suffix keeps it out of tooling that
        // expects complete timelines.
        const std::string suffix = aborted ? ".partial" : "";
        const std::string base =
            opt.trace_dir + "/" + cellFileStem(spec, job);
        writeChromeTrace(*system->trace(), meta,
                         base + ".trace.json" + suffix);
        writeCounterCsv(*system->trace(),
                        base + ".counters.csv" + suffix);
    }

    if (out.ok && opt.timeout_s > 0.0 &&
        out.wall_s > opt.timeout_s) {
        out.ok = false;
        out.timed_out = true;
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "soft timeout: cell took %.2fs (budget %.2fs), "
                      "result discarded",
                      out.wall_s, opt.timeout_s);
        out.error = buf;
    }
    if (cache && out.ok)
        cache->store(digest, key, out);
    return out;
}

} // namespace

std::vector<SweepJob>
expandSweep(const SweepSpec &spec)
{
    const std::size_t variants =
        spec.variants.empty() ? 1 : spec.variants.size();
    std::vector<SweepJob> jobs;
    jobs.reserve(variants * spec.workloads.size() *
                 spec.policies.size());
    for (std::size_t v = 0; v < variants; ++v) {
        const std::string label =
            spec.variants.empty() ? "" : spec.variants[v].label;
        for (const auto &w : spec.workloads) {
            for (Policy p : spec.policies) {
                SweepJob job;
                job.index = jobs.size();
                job.workload = w;
                job.policy = p;
                job.variant = label;
                job.variant_index = v;
                job.seed = deriveWorkloadSeed(spec.opt.seed, w);
                job.job_seed =
                    deriveJobSeed(spec.opt.seed, w, p, label);
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

SimConfig
cellConfig(const SweepSpec &spec, const SweepJob &job)
{
    SimConfig config = paperConfig(spec.opt.ratio, job.seed);
    config = applyPolicy(config, job.policy);
    if (job.variant_index < spec.variants.size() &&
        spec.variants[job.variant_index].mutate)
        spec.variants[job.variant_index].mutate(config);
    spec.opt.applyTo(config);
    return config;
}

void
dropRefusedTenantPolicies(SweepSpec *spec)
{
    std::string dropped;
    for (const SweepJob &job : expandSweep(*spec)) {
        const std::string why = jobRefusal(*spec, job);
        if (why.empty() || std::erase(spec->policies, job.policy) == 0)
            continue;
        dropped += (dropped.empty() ? "" : "; ") +
                   policyName(job.policy) + " (" + why + ")";
    }
    if (!dropped.empty())
        std::fprintf(stderr, "%s: a tenant mix cannot run %s\n",
                     spec->bench.c_str(), dropped.c_str());
}

std::string
tenantRefusal(const SweepSpec &spec)
{
    for (const SweepJob &job : expandSweep(spec)) {
        const std::string why = jobRefusal(spec, job);
        if (!why.empty())
            return "cell " +
                   cellName(job.workload, job.policy, job.variant) +
                   ": " + why;
    }
    return "";
}

SweepRunner::SweepRunner(SweepSpec spec)
    : spec_(std::move(spec))
{
    if (spec_.workloads.empty())
        fatal("SweepRunner: no workloads");
    if (spec_.policies.empty())
        fatal("SweepRunner: no policies");
}

void
SweepRunner::setProgress(ProgressFn fn)
{
    progress_ = std::move(fn);
    progress_overridden_ = true;
}

SweepResult
SweepRunner::run()
{
    const std::string refusal = tenantRefusal(spec_);
    if (!refusal.empty())
        fatal("SweepRunner: %s", refusal.c_str());
    // Result slots are preallocated so each cell writes its own slot
    // and completion order never matters.
    const std::vector<SweepJob> jobs = expandSweep(spec_);

    if (!spec_.opt.trace_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(spec_.opt.trace_dir, ec);
        if (ec) {
            fatal("SweepRunner: cannot create trace dir '%s': %s",
                  spec_.opt.trace_dir.c_str(),
                  ec.message().c_str());
        }
    }

    SweepResult result;
    result.bench = spec_.bench;
    result.base_seed = spec_.opt.seed;
    result.scale = spec_.opt.scale;
    result.ratio = spec_.opt.ratio;
    result.cells.resize(jobs.size());

    std::size_t workers =
        spec_.opt.jobs == 0 ? hardwareThreads() : spec_.opt.jobs;
    workers = std::max<std::size_t>(
        1, std::min(workers, jobs.size()));
    result.jobs = workers;

    const auto t0 = Clock::now();

    ProgressFn progress = progress_;
    if (!progress_overridden_ && spec_.verbose) {
        const std::size_t total = jobs.size();
        progress = [total, t0](const CellOutcome &cell,
                               std::size_t done, std::size_t) {
            const double elapsed = secondsSince(t0);
            const double eta =
                done == 0 ? 0.0
                          : elapsed / static_cast<double>(done) *
                                static_cast<double>(total - done);
            std::fprintf(
                stderr, "  [%zu/%zu] %s %s%s %.2fs | ETA %.0fs\n", done,
                total,
                cellName(cell.workload, cell.policy, cell.variant)
                    .c_str(),
                cell.ok ? "ok" : "FAILED",
                cell.from_cache ? " (cached)" : "", cell.wall_s, eta);
        };
    }

    std::mutex progress_mutex;
    std::size_t done = 0;

    // --resume: finished ok cells load from the content-addressed
    // cache by (config digest, git rev) instead of recomputing.
    std::unique_ptr<ResultCache> cache;
    if (!spec_.opt.resume_dir.empty())
        cache = std::make_unique<ResultCache>(spec_.opt.resume_dir);

    // Share one immutable graph build per (workload, seed) across all
    // policy/variant cells for the duration of this sweep.
    GraphBuildCache &graph_cache = GraphBuildCache::instance();
    const std::uint64_t builds_before = graph_cache.builds();
    const std::uint64_t hits_before = graph_cache.hits();
    GraphBuildCache::Scope graph_scope;

    runUnits(jobs.size(), workers, [&](std::size_t i) {
        CellOutcome &cell = result.cells[i];
        cell = executeJob(jobs[i], spec_, cache.get());
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++done;
        if (progress)
            progress(cell, done, jobs.size());
    });

    result.elapsed_s = secondsSince(t0);

    if (spec_.verbose) {
        std::fprintf(stderr,
                     "  sweep: %zu cells on %zu worker(s) in %.2fs "
                     "(%zu failed)\n",
                     result.cells.size(), workers, result.elapsed_s,
                     result.failedCells());
        std::fprintf(
            stderr, "  graph cache: %llu build(s), %llu reuse(s)\n",
            static_cast<unsigned long long>(graph_cache.builds() -
                                            builds_before),
            static_cast<unsigned long long>(graph_cache.hits() -
                                            hits_before));
        if (cache) {
            std::fprintf(
                stderr,
                "  resume cache: %llu hit(s), %llu computed, %llu "
                "stored (%s)\n",
                static_cast<unsigned long long>(cache->hits()),
                static_cast<unsigned long long>(cache->misses()),
                static_cast<unsigned long long>(cache->stores()),
                cache->dir().c_str());
        }
    }
    return result;
}

SweepResult
runBenchSweep(const SweepSpec &spec)
{
    const SweepResult sweep = SweepRunner(spec).run();
    if (!spec.opt.json_path.empty())
        sweep.writeJson(spec.opt.json_path);
    return sweep;
}

} // namespace bauvm
