/**
 * @file
 * SweepRunner: executes a (workload x policy x config-variant)
 * evaluation matrix on a ThreadPool.
 *
 * Guarantees:
 *  - **Determinism.** Per-job seeds are pure functions of
 *    (base_seed, workload[, policy, variant]) and each job runs a
 *    private GpuUvmSystem, so the result vector is bit-identical for
 *    any worker count, including 1. Results are stored by matrix
 *    index, never by completion order.
 *  - **Failure isolation.** A cell that calls fatal()/panic() or
 *    throws is captured (ScopedAbortCapture) and reported as a failed
 *    cell with its error string; the rest of the sweep continues.
 *  - **Soft timeout.** With timeout_s > 0, a cell whose wall clock
 *    exceeds the budget is marked failed/timed_out. The simulation is
 *    cooperative (no thread kill), so the budget is checked when the
 *    cell finishes; it bounds what a sweep *accepts*, not what it
 *    spends.
 *  - **Progress.** After every cell a progress callback fires exactly
 *    once (default: an stderr [done/total] line with rate and ETA).
 *  - **Refusal up front.** Before any cell runs, a tenant-mix cell
 *    that multiTenantRefusal() refuses fatal()s the sweep, naming
 *    the cell.
 */

#ifndef BAUVM_RUNNER_SWEEP_RUNNER_H_
#define BAUVM_RUNNER_SWEEP_RUNNER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/presets.h"
#include "src/runner/job.h"
#include "src/runner/sweep_result.h"

namespace bauvm
{

/** Everything that defines one sweep. */
struct SweepSpec {
    std::string bench;                  //!< name stamped into the JSON
    std::vector<std::string> workloads;
    std::vector<Policy> policies;
    /** Config mutations; empty means one default variant. */
    std::vector<ConfigVariant> variants;
    BenchOptions opt;                   //!< scale/ratio/seed/jobs/...
    bool verbose = true;                //!< default progress reporter
};

/** The cells @p spec expands to, in matrix order: variant-major,
 *  then workload, then policy. */
std::vector<SweepJob> expandSweep(const SweepSpec &spec);

/**
 * The one recipe for a cell's final config, which its content address
 * covers: paperConfig(ratio, job.seed) + applyPolicy + the variant's
 * mutation + BenchOptions::applyTo, so the options win over a variant
 * that sets the same field.
 */
SimConfig cellConfig(const SweepSpec &spec, const SweepJob &job);

/**
 * Removes from spec->policies every policy with a cell that
 * multiTenantRefusal() refuses under spec->opt.tenants, and names them
 * and the reasons in one stderr line.
 */
void dropRefusedTenantPolicies(SweepSpec *spec);

class SweepRunner
{
  public:
    /**
     * @param done/@param total let reporters render "[done/total]";
     * fired exactly once per cell, serialized (never concurrently).
     */
    using ProgressFn = std::function<void(
        const CellOutcome &, std::size_t done, std::size_t total)>;

    explicit SweepRunner(SweepSpec spec);

    /** Replaces the default stderr reporter (nullptr = silent). */
    void setProgress(ProgressFn fn);

    /** Runs the whole matrix; blocks until every cell finished. */
    SweepResult run();

  private:
    SweepSpec spec_;
    ProgressFn progress_;
    bool progress_overridden_ = false;
};

/**
 * Runs @p spec and writes its sweep JSON to spec.opt.json_path (when
 * set): the one sweep a bench runs.
 */
SweepResult runBenchSweep(const SweepSpec &spec);

} // namespace bauvm

#endif // BAUVM_RUNNER_SWEEP_RUNNER_H_
