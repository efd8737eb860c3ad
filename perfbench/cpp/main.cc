/**
 * @file
 * perfbench: one benchmark run of one workload.
 *
 *   perfbench --workload fig11|bfs-hyb-huge|mix2 [--seed N]
 *                    [--seconds S] [--trace 0|1] [--scale NAME]
 *                    [--out-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with no spans recorded:
 * one sweep through SweepRunner (peak_rss_mb is read after it),
 * several set-ups of the whole cell set, then more sweeps until
 * --seconds have passed (at least three of each). setup_s is the
 * median set-up; wall_s and warp_insts_per_s are the best pass.
 * --trace 1 replays one workload's warp-op stream,
 * then alternates an untraced sweep with a traced pass until
 * --seconds have passed, and reports the per-layer metrics. Either
 * way every cell's simulated fingerprint must repeat
 * across passes (and match between traced and untraced passes);
 * every mismatch or failed cell counts as failed.
 *
 * stdout: a readable report, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}. The full record
 * (host context, samples, fingerprints) and the spans go to --out-dir.
 * --scale overrides the workload's scale (the self-test runs tiny).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/cpp/cell_set.h"
#include "perfbench/cpp/host_context.h"
#include "perfbench/cpp/replay.h"
#include "perfbench/cpp/spans.h"
#include "src/core/experiment.h"
#include "src/runner/job.h"
#include "src/runner/json_writer.h"

namespace perfbench
{
namespace
{

using namespace bauvm;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinSetUps = 3;
constexpr std::size_t kMaxSetUps = 9;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 200;
constexpr double kMinCoverage = 0.95;
constexpr double kMb = 1024.0 * 1024.0;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::optional<WorkloadScale> scale;
    std::string out_dir = ".";
};

const char *const kUsage =
    "usage: perfbench --workload NAME [--seed N] [--seconds S]\n"
    "                        [--trace 0|1] [--scale NAME] "
    "[--out-dir DIR]\n";

std::optional<WorkloadScale>
parseScale(const std::string &name)
{
    for (WorkloadScale s :
         {WorkloadScale::Tiny, WorkloadScale::Small, WorkloadScale::Medium,
          WorkloadScale::Large, WorkloadScale::Huge})
        if (scaleName(s) == name)
            return s;
    return std::nullopt;
}

/** @return an error message, empty on success. */
std::string
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return "missing value for " + flag;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a->workload = v;
        } else if (flag == "--seed") {
            a->seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                return "bad --seed '" + v + "'";
        } else if (flag == "--seconds") {
            a->seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a->seconds > 0.0) ||
                a->seconds > 3600.0)
                return "bad --seconds '" + v + "'";
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                return "bad --trace '" + v + "' (0 or 1)";
            a->trace = v == "1";
        } else if (flag == "--scale") {
            a->scale = parseScale(v);
            if (!a->scale)
                return "bad --scale '" + v + "'";
        } else if (flag == "--out-dir") {
            a->out_dir = v;
        } else {
            return "unknown argument " + flag;
        }
    }
    if (a->workload.empty())
        return "--workload is required";
    return "";
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** One reported metric and the statistic it reports. */
struct Metric {
    enum class Stat { Median, Lowest, Highest };

    std::string name;
    std::string unit;
    std::vector<double> samples;
    Stat stat = Stat::Median;

    double
    value() const
    {
        if (samples.empty() || stat == Stat::Median)
            return median(samples);
        return stat == Stat::Lowest
                   ? *std::min_element(samples.begin(), samples.end())
                   : *std::max_element(samples.begin(), samples.end());
    }
};

/** Failed cells, fingerprint mismatches and other broken outputs. */
struct Verdict {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    fail(std::string what)
    {
        ++failed;
        problems.push_back(std::move(what));
    }

    /**
     * Counts every cell of @p cells as attempted; fails it when it did
     * not finish or when its fingerprint differs from the same cell
     * of @p reference (the pass named @p against).
     */
    void
    check(const std::vector<CellRecord> &cells,
          const std::vector<CellRecord> *reference, const char *against)
    {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++attempted;
            const CellRecord &c = cells[i];
            if (!c.ok) {
                fail(c.label + " failed: " + c.error);
                continue;
            }
            if (!reference)
                continue;
            const CellRecord *ref =
                i < reference->size() ? &(*reference)[i] : nullptr;
            if (!ref || ref->label != c.label)
                fail(c.label + ": no matching cell in " + against);
            else if (ref->ok && ref->fingerprint != c.fingerprint)
                fail(c.label + ": fingerprint differs from " + against);
        }
    }
};

struct Report {
    std::deque<Metric> metrics;              //!< stable references
    Verdict verdict;
    std::vector<std::string> notes;          //!< printed, not failures
    std::vector<CellRecord> cells;           //!< first pass, for the record
};

Metric &
metric(Report &r, const std::string &name, const std::string &unit)
{
    for (Metric &m : r.metrics)
        if (m.name == name)
            return m;
    r.metrics.push_back(Metric{name, unit, {}});
    return r.metrics.back();
}

/** Simulated warp instructions per host second of simulation, as the
 *  sweep reports both (RunResult::instructions, host_wall_s). */
double
warpInstsPerSecond(const SweepPass &pass)
{
    double insts = 0.0, seconds = 0.0;
    for (const CellRecord &c : pass.cells) {
        if (!c.ok)
            continue;
        insts += static_cast<double>(c.result.instructions);
        seconds += c.result.host_wall_s;
    }
    return ratio(insts, seconds);
}

Report
untracedRun(const CellSet &set, const Args &a, const std::string &stem)
{
    Report r;
    const auto t0 = Clock::now();
    // Other tenants of a shared host only ever add time, so the best
    // pass is the steadiest estimate of the code's own speed; the
    // report and the record keep the median and every sample.
    Metric &wall = metric(r, "wall_s", "s");
    wall.stat = Metric::Stat::Lowest;
    Metric &rate = metric(r, "warp_insts_per_s", "1/s");
    rate.stat = Metric::Stat::Highest;
    Metric &setup = metric(r, "setup_s", "s");
    Metric &rss = metric(r, "peak_rss_mb", "MB");

    std::size_t passes = 0;
    while ((passes < kMinPasses || secondsSince(t0) < a.seconds) &&
           passes < kMaxPasses) {
        SweepPass pass = runSweep(set, a.seed, stem + ".sweep.json");
        r.verdict.check(pass.cells, passes ? &r.cells : nullptr,
                        "the first pass");
        if (!pass.exported)
            r.verdict.fail("SweepResult::writeJson failed");
        wall.samples.push_back(pass.wall_s);
        rate.samples.push_back(warpInstsPerSecond(pass));
        if (passes++ != 0)
            continue;
        r.cells = std::move(pass.cells);
        // What a process that runs one sweep peaks at; later passes
        // and set-ups would only add allocator history.
        rss.samples.push_back(peakRssMb());
        while (setup.samples.size() < kMinSetUps ||
               (setup.samples.size() < kMaxSetUps &&
                secondsSince(t0) < a.seconds / 3.0))
            setup.samples.push_back(runSetUp(set, a.seed));
    }
    return r;
}

/** Unit seconds over cell seconds: a multi-tenant cell's units are
 *  its runner.unit spans, a single-tenant cell's one unit is its
 *  construct + run. */
double
unitParallelism(const TracedPass &pass)
{
    const std::vector<Span> &spans = pass.spans->spans();
    double units = 0.0, cells = 0.0;
    for (std::size_t root : pass.cell_spans) {
        cells += spans[root].seconds();
        for (const Span &s : spans) {
            if (s.cell != spans[root].cell)
                continue;
            const bool top = s.parent == root;
            if (s.name == "runner.unit" ||
                (top && (s.name == "core.construct" ||
                         s.name == "core.run")))
                units += s.seconds();
        }
    }
    return ratio(units, cells);
}

double
minCoverage(const TracedPass &pass)
{
    double lowest = 1.0;
    for (std::size_t root : pass.cell_spans)
        lowest = std::min(lowest, pass.spans->childCoverage(root));
    return lowest;
}

void
addCounts(Report &r, const TracedPass &pass)
{
    const LayerCounts &c = pass.counts;
    auto put = [&](const char *name, const char *unit, double v) {
        metric(r, name, unit).samples = {v};
    };
    put("graph.builds", "count", static_cast<double>(pass.graph_builds));
    put("graph.cache_hits", "count",
        static_cast<double>(pass.graph_cache_hits));
    put("sim.events", "count", static_cast<double>(c.events));
    put("sim.cycles", "cycles", static_cast<double>(c.cycles));
    put("gpu.warp_insts", "count", static_cast<double>(c.warp_insts));
    put("gpu.ctx_switches", "count", static_cast<double>(c.ctx_switches));
    put("gpu.ctx_switch_cycles", "cycles",
        static_cast<double>(c.ctx_switch_cycles));
    put("mem.translations", "count", static_cast<double>(c.translations));
    put("mem.tlb_hit_rate", "ratio",
        1.0 - ratio(c.page_walks, static_cast<double>(c.translations)));
    put("mem.page_walks", "count", std::round(c.page_walks));
    put("mem.l1_hit_rate", "ratio",
        ratio(static_cast<double>(c.l1_hits),
              static_cast<double>(c.l1_hits + c.l1_misses)));
    put("mem.l2_hit_rate", "ratio",
        ratio(static_cast<double>(c.l2_hits),
              static_cast<double>(c.l2_hits + c.l2_misses)));
    put("mem.mshr_stall_cycles", "cycles",
        static_cast<double>(c.mshr_stall_cycles));
    put("uvm.batches", "count", static_cast<double>(c.batches));
    put("uvm.avg_batch_pages", "pages",
        ratio(c.batch_pages, static_cast<double>(c.batches)));
    put("uvm.demand_pages", "pages", static_cast<double>(c.demand_pages));
    put("uvm.prefetched_pages", "pages",
        static_cast<double>(c.prefetched_pages));
    put("uvm.evictions", "count", static_cast<double>(c.evictions));
    put("uvm.premature_rate", "ratio",
        ratio(static_cast<double>(c.premature_evictions),
              static_cast<double>(c.evictions)));
    put("uvm.pcie_h2d_mb", "MB", static_cast<double>(c.pcie_h2d_bytes) / kMb);
    put("uvm.pcie_d2h_mb", "MB", static_cast<double>(c.pcie_d2h_bytes) / kMb);
    // With one tenant there is no contention: slowdown and Jain's
    // index are 1 by definition.
    put("mt.max_slowdown", "ratio", c.mt_cells ? c.max_slowdown : 1.0);
    put("mt.jain", "ratio",
        c.mt_cells ? c.jain_sum / static_cast<double>(c.mt_cells) : 1.0);
}

Report
tracedRun(const CellSet &set, const Args &a, const std::string &stem)
{
    Report r;
    const auto t0 = Clock::now();

    // Replay first: a fixed amount of work outside the timed pairs.
    SpanLog replay_log;
    const std::string &replay_name = set.replay_workload;
    const std::uint64_t replay_seed = deriveWorkloadSeed(a.seed, replay_name);
    const ReplayStats replay = runReplay(
        replay_name, set.scale, replay_seed,
        paperConfig(set.ratio, replay_seed), replay_log, cellCount(set) + 1);
    if (replay.faults != 0)
        r.verdict.fail("replay: " + std::to_string(replay.faults) +
                       " accesses faulted on resident pages");
    r.notes.push_back(
        "replay: " + replay_name + ", " + std::to_string(replay.ops) +
        " warp memory ops (1 in " + std::to_string(replay.stride) +
        "), " + std::to_string(replay.transactions) + " transactions, " +
        std::to_string(replay.passes) + " passes");
    metric(r, "workloads.functional_s", "s").samples = {replay.functional_s};
    metric(r, "gpu.coalesce_ns_per_op", "ns/op").samples = {
        replay.coalesce_ns_per_op};
    metric(r, "gpu.transactions_per_op", "ratio").samples = {
        replay.transactions_per_op};
    metric(r, "mem.ns_per_access", "ns").samples = {replay.ns_per_access};

    TracedPass last;
    std::size_t pairs = 0;
    while ((pairs < 1 || secondsSince(t0) < a.seconds) &&
           pairs < kMaxPasses) {
        SweepPass u = runSweep(set, a.seed, stem + ".sweep.json");
        r.verdict.check(u.cells, pairs ? &r.cells : nullptr,
                        "the first untraced pass");
        TracedPass t = runTraced(set, a.seed, stem + ".traced.sweep.json");
        r.verdict.check(t.cells, &u.cells, "the untraced pass");
        if (!u.exported || !t.exported)
            r.verdict.fail("SweepResult::writeJson failed");
        if (t.graph_builds_in_cells != 0)
            r.notes.push_back(
                "graph: " + std::to_string(t.graph_builds_in_cells) +
                " graph(s) built inside Workload::build, not in a "
                "graph.build span");

        const SpanLog &log = *t.spans;
        const double run_self = log.selfSeconds("core.run");
        metric(r, "core.run_s", "s").samples.push_back(run_self);
        metric(r, "core.construct_s", "s")
            .samples.push_back(log.totalSeconds("core.construct"));
        metric(r, "workloads.build_s", "s")
            .samples.push_back(log.totalSeconds("workloads.build"));
        metric(r, "graph.build_s", "s")
            .samples.push_back(log.totalSeconds("graph.build"));
        metric(r, "sim.ns_per_event", "ns").samples.push_back(
            ratio(run_self * 1e9,
                  static_cast<double>(t.counts.all_events)));
        metric(r, "runner.unit_parallelism", "ratio")
            .samples.push_back(unitParallelism(t));
        metric(r, "runner.overhead_s", "s")
            .samples.push_back(u.run_s - u.cells_s);
        metric(r, "runner.export_s", "s")
            .samples.push_back(log.totalSeconds("runner.export"));
        // The traced pass also validates every cell; the untraced
        // sweep does not, so that time is left out.
        metric(r, "trace.overhead_frac", "ratio")
            .samples.push_back(
                ratio(t.wall_s - log.totalSeconds("workloads.validate"),
                      u.wall_s) -
                1.0);
        metric(r, "trace.min_coverage", "ratio")
            .samples.push_back(minCoverage(t));

        if (pairs++ == 0)
            r.cells = std::move(u.cells);
        last = std::move(t);
    }
    addCounts(r, last);

    const double coverage = minCoverage(last);
    if (coverage < kMinCoverage)
        r.notes.push_back("trace: a cell's top-level spans cover only " +
                          std::to_string(coverage) + " of its wall time");
    if (!last.spans->writeJson(stem + ".spans.json") ||
        !replay_log.writeJson(stem + ".replay-spans.json"))
        r.notes.push_back("could not write the span files under " + stem);
    return r;
}

std::string
fnvHex(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** The final line: exactly the keys the benchmark contract names. */
std::string
resultLine(const Report &r, bool correct)
{
    JsonWriter w(false);
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", r.verdict.attempted);
    w.field("failed", r.verdict.failed);
    w.beginObject("metrics");
    for (const Metric &m : r.metrics) {
        w.beginObject(m.name);
        w.field("value", std::isfinite(m.value()) ? m.value() : 0.0);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

bool
writeRecord(const std::string &path, const Args &a, const HostContext &ctx,
            const Report &r, bool correct)
{
    JsonWriter w(true);
    w.beginObject();
    w.field("schema", "perfbench.result/1");
    w.field("workload", a.workload);
    w.field("seed", a.seed);
    w.field("trace", a.trace);
    w.field("seconds", a.seconds);
    w.beginObject("context");
    for (const auto &[key, value] : ctx.fields())
        w.field(key, value);
    w.endObject();
    w.field("correct", correct);
    w.field("attempted", r.verdict.attempted);
    w.field("failed", r.verdict.failed);
    w.beginObject("metrics");
    for (const Metric &m : r.metrics) {
        w.beginObject(m.name);
        w.field("value", m.value());
        w.field("unit", m.unit);
        w.beginArray("samples");
        for (double s : m.samples)
            w.value(s);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.beginArray("cells");
    for (const CellRecord &c : r.cells) {
        w.beginObject();
        w.field("cell", c.label);
        w.field("ok", c.ok);
        w.field("fingerprint_fnv", fnvHex(c.fingerprint));
        w.endObject();
    }
    w.endArray();
    w.beginArray("problems");
    for (const std::string &p : r.verdict.problems)
        w.value(p);
    w.endArray();
    w.endObject();

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = w.str() + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    return std::fclose(f) == 0 && ok;
}

void
printReport(const Args &a, const CellSet &set, const HostContext &ctx,
            const Report &r)
{
    std::printf("perfbench %s: seed %llu, %s run, %.0f s budget, %zu "
                "cells per pass\n",
                set.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.trace ? "traced" : "untraced", a.seconds,
                cellCount(set));
    std::printf("context:");
    for (const auto &[key, value] : ctx.fields())
        std::printf(" %s=\"%s\"", key.c_str(), value.c_str());
    std::printf("\n");
    for (const Metric &m : r.metrics) {
        const auto [lo, hi] =
            std::minmax_element(m.samples.begin(), m.samples.end());
        std::printf("  %-26s %16.6f %-7s", m.name.c_str(), m.value(),
                    m.unit.c_str());
        if (m.samples.size() > 1)
            std::printf(" %s of %zu; median %.6g, min %.6g, max %.6g",
                        m.stat == Metric::Stat::Median ? "median" : "best",
                        m.samples.size(), median(m.samples), *lo, *hi);
        std::printf("\n");
    }
    std::printf("  %-26s %16.6f %-7s %llu of %llu cell runs\n",
                "failed_frac",
                ratio(static_cast<double>(r.verdict.failed),
                      static_cast<double>(r.verdict.attempted)),
                "ratio",
                static_cast<unsigned long long>(r.verdict.failed),
                static_cast<unsigned long long>(r.verdict.attempted));
    for (const std::string &n : r.notes)
        std::printf("note: %s\n", n.c_str());
    const std::size_t shown = std::min<std::size_t>(
        r.verdict.problems.size(), 20);
    for (std::size_t i = 0; i < shown; ++i)
        std::printf("FAILED: %s\n", r.verdict.problems[i].c_str());
}

int
run(int argc, char **argv)
{
    Args a;
    const std::string err = parseArgs(argc, argv, &a);
    if (!err.empty()) {
        std::fprintf(stderr, "perfbench: %s\n%s", err.c_str(),
                     kUsage);
        return 2;
    }
    const CellSet *found = findCellSet(a.workload);
    if (!found) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'; "
                             "known:",
                     a.workload.c_str());
        for (const CellSet &s : cellSets())
            std::fprintf(stderr, " %s", s.name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }
    CellSet set = *found;
    if (a.scale)
        set.scale = *a.scale;

    std::error_code ec;
    std::filesystem::create_directories(a.out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     a.out_dir.c_str(), ec.message().c_str());
        return 1;
    }
    const std::string stem = a.out_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + "-trace" +
                             (a.trace ? "1" : "0");
    const HostContext ctx =
        probeHostContext(1, set.cell_threads, scaleName(set.scale));

    const Report r = a.trace ? tracedRun(set, a, stem)
                             : untracedRun(set, a, stem);
    const bool correct = r.verdict.failed == 0;
    printReport(a, set, ctx, r);
    if (!writeRecord(stem + ".json", a, ctx, r, correct))
        std::printf("note: could not write %s.json\n", stem.c_str());
    std::printf("%s\n", resultLine(r, correct).c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
