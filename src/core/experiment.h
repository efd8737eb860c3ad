/**
 * @file
 * Bench-binary helpers: the common command line (--scale / --csv /
 * --ratio / --seed / --jobs / --json / --resume / --trace / --audit /
 * --workloads / --tenants ...) parsed into BenchOptions, and the means
 * the figures report. A bench runs its cells by lowering these options
 * into a SweepSpec for SweepRunner (src/runner/sweep_runner.h), which
 * derives each cell's config and seed.
 */

#ifndef BAUVM_CORE_EXPERIMENT_H_
#define BAUVM_CORE_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/workloads/workload.h"

namespace bauvm
{

/** Common options parsed from a bench binary's argv. */
struct BenchOptions {
    WorkloadScale scale = WorkloadScale::Small;
    bool csv = false;
    double ratio = 0.5; //!< oversubscription ratio
    std::uint64_t seed = 1;
    /** Sweep worker threads; 0 = hardware_concurrency. */
    std::size_t jobs = 0;
    /** Host threads *inside* one cell (--cell-threads): a multi-tenant
     *  cell runs its per-tenant solo anchors and the mix itself as
     *  concurrent units, merged in fixed unit order so the results are
     *  bit-identical to the serial run. 1 = serial. Orthogonal to
     *  `jobs`, which parallelizes *across* cells; deliberately not
     *  part of the cell's content address (runner/cell_spec.h). */
    std::size_t cell_threads = 1;
    /** Sweep JSON export path ("" = off, "-" = stdout). */
    std::string json_path;
    /** Per-cell soft timeout in seconds; 0 = disabled. */
    double timeout_s = 0.0;
    /** Trace output directory ("" = tracing off). One Chrome-trace
     *  JSON plus one counter CSV is written per sweep cell. */
    std::string trace_dir;
    /** Run every cell under the online ModelAuditor (src/check). */
    bool audit = false;
    /** Resume cache directory ("" = off): finished ok cells are
     *  checkpointed by content address (src/serve/result_cache.h)
     *  and loaded instead of recomputed on the next run. */
    std::string resume_dir;
    /** Workload subset override (--workloads A,B,C, validated against
     *  the registry); empty = the bench's default set. */
    std::vector<std::string> workloads;
    /** Tenant mix override (--tenants A:0.5,B:0.5); non-empty turns
     *  every cell into a concurrent multi-tenant run. Entries carry
     *  the workload name and quota; their scale is `scale`. */
    std::vector<TenantSpec> tenants;
    /** How tenants share device memory (--share-policy). */
    SharePolicy share_policy = SharePolicy::FreeForAll;

    /**
     * Applies the options that live inside SimConfig — the audit
     * flag (check.enabled) and the tenant share policy (mt.policy).
     * The last step of a cell's config recipe (cellConfig() in
     * src/runner/sweep_runner.h), so the options win over a config
     * variant that sets the same field.
     */
    void applyTo(SimConfig &config) const;

    /** `workloads` when --workloads was given, else @p defaults. */
    std::vector<std::string>
    workloadsOr(const std::vector<std::string> &defaults) const
    {
        return workloads.empty() ? defaults : workloads;
    }
};

/**
 * Parses --scale tiny|small|medium|large|huge, --csv, --ratio R,
 * --seed N, --jobs N, --json PATH, --timeout S, --trace[=DIR],
 * --audit, --resume[=DIR], --workloads A,B,C,
 * --tenants A:0.5,B:0.5 and --share-policy
 * free-for-all|strict|proportional.
 *
 * An unknown argument prints the usage text to stderr and exits with an
 * error (fatal(), so a ScopedAbortCapture turns it into SimAbort). A
 * --ratio that is negative or not finite fails the same way; 0 means
 * unlimited memory.
 */
BenchOptions parseBenchArgs(int argc, char **argv);

/** Lower-case scale name ("tiny" ... "large") as --scale accepts it. */
std::string scaleName(WorkloadScale scale);

/**
 * Geometric mean of @p values. Returns 0.0 (with a warn) on an empty
 * input or any non-positive value, so one failed sweep cell cannot
 * abort a whole bench binary.
 */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (the paper reports arithmetic-average speedups). */
double amean(const std::vector<double> &values);

} // namespace bauvm

#endif // BAUVM_CORE_EXPERIMENT_H_
