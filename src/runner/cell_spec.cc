#include "src/runner/cell_spec.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>

#include "src/core/experiment.h"
#include "src/core/system.h"
#include "src/graph/stream/csr_stream_builder.h"
#include "src/sim/parallel_units.h"
#include "src/sim/log.h"
#include "src/trace/trace_export.h"
#include "src/workloads/workload_registry.h"

#ifndef BAUVM_GIT_REV
#define BAUVM_GIT_REV "unknown"
#endif

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

/**
 * Stores @p value in the knob @p field if its type can hold it:
 * integers integral in [0, max], bools 0 or 1, doubles finite and
 * >= 0 (no double knob has a meaning below zero). A new scoped-enum
 * knob fails to compile here until it gets its max.
 * @return "" on success, else why not.
 */
template <class T>
std::string
setKnob(T &field, double value)
{
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value) || value < 0.0)
            return "must be a finite number >= 0";
        field = value;
        return "";
    } else {
        std::uint64_t max;
        if constexpr (std::is_same_v<T, SharePolicy>)
            max = static_cast<std::uint64_t>(SharePolicy::Proportional);
        else
            max = std::numeric_limits<T>::max();
        // max + 1 rounds to 2^64 for 64-bit fields: still an exact
        // exclusive bound, so the cast below stays defined.
        if (!(value >= 0.0 && value < static_cast<double>(max) + 1.0 &&
              value == std::floor(value)))
            return "must be an integer in [0, " + std::to_string(max) +
                   "]";
        field = static_cast<T>(static_cast<std::uint64_t>(value));
        return "";
    }
}

/** splitmix64 finalizer (same constants as job.cc). */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

template <class T>
void
appendKv(std::string &out, const std::string &key, const T &v)
{
    out += key;
    out += '=';
    out += fieldText(v);
    out += ';';
}

} // namespace

bool
applyConfigOverride(SimConfig &config, const std::string &key,
                    double value, std::string *error)
{
    std::string why = "unknown override key";
    forEachLeaf(config, [&](const std::string &name, auto &field,
                            unsigned flags) {
        if ((flags & kKnob) && name == key)
            why = setKnob(field, value);
    });
    if (!why.empty() && error)
        *error = "override '" + key + "' = " + fieldText(value) + ": " +
                 why;
    return why.empty();
}

std::vector<std::string>
knownOverrideKeys()
{
    std::vector<std::string> keys;
    const SimConfig defaults;
    forEachLeaf(defaults, [&](const std::string &name, const auto &,
                              unsigned flags) {
        if (flags & kKnob)
            keys.push_back(name);
    });
    std::sort(keys.begin(), keys.end());
    return keys;
}

SimConfig
cellConfig(const CellSpec &spec)
{
    SimConfig config = paperConfig(
        spec.ratio, deriveWorkloadSeed(spec.base_seed, spec.workload));
    config = applyPolicy(config, spec.policy);
    for (const ConfigOverride &o : spec.overrides) {
        std::string error;
        if (!applyConfigOverride(config, o.key, o.value, &error))
            fatal("cellConfig: %s", error.c_str());
    }
    config.check.enabled = spec.audit;
    return config;
}

std::string
canonicalConfigString(const SimConfig &c)
{
    std::string out;
    out.reserve(1400);
    forEachLeaf(c, [&](const std::string &name, const auto &field,
                       unsigned flags) {
        if (flags & kKeyed)
            appendKv(out, name, field);
    });
    return out;
}

std::string
cellKey(const std::string &workload, WorkloadScale scale,
        const SimConfig &config, const std::string &git_rev,
        const std::vector<TenantSpec> &tenants)
{
    // /2: the graph-stream parameters joined the key. Streamed and
    // in-core builds are differential-tested bit-identical, but the
    // stream config is still build provenance — folding it keeps the
    // result cache honest if that guarantee ever regresses, at the
    // cost of re-keying every cell when the config changes.
    // /3: the tenant mix joined the key (and mt.policy joined the
    // canonical config) — a multi-tenant cell can never alias the
    // single-tenant cell that shares its label.
    const GraphStreamConfig &gs = graphStreamConfig();
    std::string key = "bauvm.cell/3|";
    key += git_rev;
    key += '|';
    key += workload;
    key += '|';
    key += scaleName(scale);
    key += '|';
    appendKv(key, "stream.threshold_edges", gs.stream_threshold_edges);
    appendKv(key, "stream.edges_per_block", gs.edges_per_block);
    appendKv(key, "stream.scratch_bytes", gs.scratch_bytes);
    key += '|';
    for (const TenantSpec &t : tenants) {
        key += t.workload;
        key += ':';
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", t.quota);
        key += buf;
        key += ':';
        key += scaleName(t.scale);
        key += ';';
    }
    key += '|';
    key += canonicalConfigString(config);
    return key;
}

std::string
digestHex(const std::string &key)
{
    // Two independent FNV-1a lanes (different offset bases), each
    // diffused through splitmix64 — 128 bits total, plenty for a cache
    // that holds at most millions of cells.
    std::uint64_t a = 0xcbf29ce484222325ULL;
    std::uint64_t b = 0x84222325cbf29ce4ULL;
    for (unsigned char ch : key) {
        a = (a ^ ch) * 0x100000001b3ULL;
        b = (b ^ ch) * 0x100000001b3ULL;
        b += a; // couple the lanes so they never collapse to one
    }
    a = splitmix64(a);
    b = splitmix64(b);
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    return buf;
}

std::string
gitRev()
{
    if (const char *env = std::getenv("BAUVM_GIT_REV"))
        if (*env)
            return env;
    return BAUVM_GIT_REV;
}

std::string
hostName()
{
    static const std::string cached = [] {
        char buf[256] = {0};
        if (gethostname(buf, sizeof buf - 1) != 0)
            return std::string("unknown");
        return std::string(buf);
    }();
    return cached;
}

CellOutcome
executeCell(const CellExecArgs &args)
{
    CellOutcome out;
    out.workload = args.workload;
    out.policy = args.policy;
    out.variant = args.variant;
    out.seed = args.config.seed;
    out.job_seed = args.job_seed;
    out.digest = digestHex(
        cellKey(args.workload, args.scale, args.config,
                args.git_rev.empty() ? gitRev() : args.git_rev,
                args.tenants));
    out.worker_pid = static_cast<std::uint64_t>(getpid());
    out.hostname = hostName();

    const bool tracing = !args.trace_dir.empty();
    // The system outlives the try block so an aborted cell's partial
    // trace buffer can still be flushed to disk below.
    std::unique_ptr<GpuUvmSystem> system;
    bool aborted = false;

    const auto t0 = Clock::now();
    try {
        ScopedAbortCapture capture;
        SimConfig config = args.config;
        config.trace.enabled = tracing;
        if (!args.tenants.empty()) {
            // A multi-tenant cell is several independent simulations:
            // one solo anchor per tenant (each tenant alone on the
            // whole GPU, same ratio/policy/scale and the seed its mix
            // build will use, so the builds share the graph cache)
            // plus the mix itself. They are units on the intra-cell
            // pool: args.cell_threads > 1 overlaps them, and the
            // fixed-order merge below keeps any thread count
            // bit-identical to the serial run. Each unit installs its
            // own abort capture — the depth is thread-local.
            const std::size_t n = args.tenants.size();
            std::vector<Cycle> solo(n, 0);
            RunResult mix_result;
            std::unique_ptr<GpuUvmSystem> mix_system;
            runUnits(n + 1, args.cell_threads, [&](std::size_t u) {
                ScopedAbortCapture unit_capture;
                if (u == n) {
                    mix_system =
                        std::make_unique<GpuUvmSystem>(config);
                    mix_result = mix_system->run(args.tenants);
                    return;
                }
                SimConfig solo_config = config;
                solo_config.seed =
                    deriveTenantSeed(config.seed,
                                     static_cast<std::uint32_t>(u));
                solo_config.mt = MtConfig{};
                solo_config.trace.enabled = false;
                auto workload = WorkloadRegistry::instance().create(
                    args.tenants[u].workload);
                GpuUvmSystem solo_system(solo_config);
                solo[u] =
                    solo_system.run(*workload, args.tenants[u].scale)
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
                WorkloadRegistry::instance().create(args.workload);
            system = std::make_unique<GpuUvmSystem>(config);
            out.result = system->run(*workload, args.scale);
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
        meta.bench = args.trace_bench;
        meta.workload = args.workload;
        meta.policy = policyName(args.policy);
        meta.variant = args.variant;
        meta.scale = scaleName(args.scale);
        meta.seed = args.config.seed;
        meta.ratio = args.trace_ratio;
        meta.partial = aborted;
        // A cell that died mid-run still flushes whatever the ring
        // holds; the .partial suffix keeps it out of tooling that
        // expects complete timelines.
        const std::string suffix = aborted ? ".partial" : "";
        const std::string base =
            args.trace_dir + "/" + args.trace_stem;
        writeChromeTrace(*system->trace(), meta,
                         base + ".trace.json" + suffix);
        writeCounterCsv(*system->trace(),
                        base + ".counters.csv" + suffix);
    }

    if (out.ok && args.soft_timeout_s > 0.0 &&
        out.wall_s > args.soft_timeout_s) {
        out.ok = false;
        out.timed_out = true;
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "soft timeout: cell took %.2fs (budget %.2fs), "
                      "result discarded",
                      out.wall_s, args.soft_timeout_s);
        out.error = buf;
    }
    return out;
}

} // namespace bauvm
