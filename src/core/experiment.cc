#include "src/core/experiment.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/sim/log.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{

namespace
{

constexpr Named<WorkloadScale> kScaleNames[] = {
    {WorkloadScale::Tiny, "tiny"},
    {WorkloadScale::Small, "small"},
    {WorkloadScale::Medium, "medium"},
    {WorkloadScale::Large, "large"},
    {WorkloadScale::Huge, "huge"},
};

void
printBenchUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "options: --scale %s --ratio R "
        "--seed N --csv --jobs N --cell-threads N --json PATH "
        "--timeout S "
        "--trace[=DIR] --audit --resume[=DIR] --workloads A,B,C\n"
        "  --jobs N     sweep worker threads "
        "(0 = hardware concurrency, default)\n"
        "  --cell-threads N  host threads inside one cell: a multi-\n"
        "               tenant cell runs its solo anchors and the mix\n"
        "               as concurrent units, bit-identical to the\n"
        "               serial run (default 1)\n"
        "  --json PATH  export sweep results as JSON "
        "('-' = stdout)\n"
        "  --timeout S  per-cell soft timeout in seconds\n"
        "  --trace[=DIR] write one chrome://tracing JSON and "
        "one counter CSV per sweep cell (default dir: "
        "traces)\n"
        "  --audit      run every cell under the online model "
        "auditor (invariant violations fail the cell)\n"
        "  --resume[=DIR] checkpoint finished cells in a content-\n"
        "               addressed on-disk cache and load them on the\n"
        "               next run (default dir: .bauvm-cells)\n"
        "  --workloads A,B,C  restrict the bench to a comma-separated\n"
        "               workload subset (names from the registry)\n"
        "  --tenants A:0.5,B:0.5  run every cell as a concurrent\n"
        "               multi-tenant mix (workload:quota pairs; a\n"
        "               missing quota means an equal share)\n"
        "  --share-policy %s  how\n"
        "               tenants share device memory (default\n"
        "               %s)\n",
        joinedNames<WorkloadScale>().c_str(),
        joinedNames<SharePolicy>().c_str(),
        sharePolicyName(BenchOptions().share_policy).c_str());
}

/** The non-empty items of the comma-separated @p list; fatal()s,
 *  naming @p flag, when it has none. */
std::vector<std::string>
splitList(const std::string &list, const char *flag)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = list.find(',', start);
        std::string item = list.substr(start, comma - start);
        if (!item.empty())
            items.push_back(std::move(item));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (items.empty())
        fatal("%s: empty list", flag);
    return items;
}

} // namespace

void
BenchOptions::applyTo(SimConfig &config) const
{
    config.check.enabled = audit;
    config.mt.policy = share_policy;
}

BenchOptions
parseBenchArgs(int argc, char **argv)
{
    const WorkloadRegistry &registry = WorkloadRegistry::instance();
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", what);
            return argv[++i];
        };
        auto next_u64 = [&](const char *what) -> std::uint64_t {
            const std::string v = next(what);
            try {
                return std::stoull(v);
            } catch (const std::exception &) {
                fatal("invalid value '%s' for %s", v.c_str(), what);
            }
        };
        auto next_f64 = [&](const char *what) -> double {
            const std::string v = next(what);
            try {
                return std::stod(v);
            } catch (const std::exception &) {
                fatal("invalid value '%s' for %s", v.c_str(), what);
            }
        };
        auto next_named = [&]<class E>(const char *what, E *out) {
            const std::string v = next(what);
            if (!parseName(v, out))
                fatal("%s: unknown name '%s' (expected %s)", what,
                      v.c_str(), joinedNames<E>().c_str());
        };
        if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--scale") {
            next_named("--scale", &opt.scale);
        } else if (arg == "--ratio") {
            opt.ratio = next_f64("--ratio");
        } else if (arg == "--seed") {
            opt.seed = next_u64("--seed");
        } else if (arg == "--jobs") {
            opt.jobs = next_u64("--jobs");
        } else if (arg == "--cell-threads") {
            opt.cell_threads = next_u64("--cell-threads");
            if (opt.cell_threads == 0)
                fatal("--cell-threads must be >= 1");
        } else if (arg == "--json") {
            opt.json_path = next("--json");
        } else if (arg == "--timeout") {
            opt.timeout_s = next_f64("--timeout");
        } else if (arg == "--trace") {
            opt.trace_dir = "traces";
        } else if (arg.rfind("--trace=", 0) == 0) {
            opt.trace_dir = arg.substr(std::strlen("--trace="));
            if (opt.trace_dir.empty())
                fatal("--trace= requires a directory");
        } else if (arg == "--audit") {
            opt.audit = true;
        } else if (arg == "--workloads") {
            for (std::string &name :
                 splitList(next("--workloads"), "--workloads")) {
                if (!registry.contains(name))
                    fatal("--workloads: unknown workload '%s'",
                          name.c_str());
                opt.workloads.push_back(std::move(name));
            }
        } else if (arg == "--tenants") {
            for (const std::string &item :
                 splitList(next("--tenants"), "--tenants")) {
                TenantSpec t;
                const std::size_t colon = item.find(':');
                t.workload = item.substr(0, colon);
                if (colon != std::string::npos) {
                    try {
                        t.quota = std::stod(item.substr(colon + 1));
                    } catch (const std::exception &) {
                        fatal("--tenants: invalid quota in '%s'",
                              item.c_str());
                    }
                }
                opt.tenants.push_back(std::move(t));
            }
        } else if (arg == "--share-policy") {
            next_named("--share-policy", &opt.share_policy);
        } else if (arg == "--resume") {
            opt.resume_dir = ".bauvm-cells";
        } else if (arg.rfind("--resume=", 0) == 0) {
            opt.resume_dir = arg.substr(std::strlen("--resume="));
            if (opt.resume_dir.empty())
                fatal("--resume= requires a directory");
        } else if (arg == "--help" || arg == "-h") {
            printBenchUsage(stdout);
            std::exit(0);
        } else {
            printBenchUsage(stderr);
            fatal("unknown argument '%s'", arg.c_str());
        }
    }
    const std::string refusal = benchOptionsRefusal(opt);
    if (!refusal.empty())
        fatal("--%s", refusal.c_str());
    return opt;
}

std::string
benchOptionsRefusal(const BenchOptions &opt)
{
    if (!std::isfinite(opt.ratio) || opt.ratio < 0.0)
        return "ratio must be a finite number >= 0 (0 = unlimited "
               "memory)";
    if (!(opt.timeout_s >= 0.0))
        return "timeout must be a number >= 0 (0 = none)";
    if (opt.tenants.empty())
        return "";
    if (opt.tenants.size() < 2)
        return "tenants: need at least two tenants";
    for (const TenantSpec &t : opt.tenants) {
        if (!WorkloadRegistry::instance().contains(t.workload))
            return "tenants: unknown workload '" + t.workload + "'";
        if (!validTenantQuota(t.quota))
            return "tenants: the quota of '" + t.workload +
                   "' must be a finite number >= 0";
    }
    return "";
}

std::span<const Named<WorkloadScale>>
nameTable(WorkloadScale)
{
    return kScaleNames;
}

std::string
scaleName(WorkloadScale scale)
{
    return nameOf(scale);
}

double
amean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty()) {
        warn("geomean: empty input, returning 0");
        return 0.0;
    }
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0) || !std::isfinite(v)) {
            // One failed sweep cell yields a 0/inf/nan speedup; keep
            // the bench binary alive and make the bad mean obvious.
            warn("geomean: non-positive value %f, returning 0", v);
            return 0.0;
        }
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace bauvm
