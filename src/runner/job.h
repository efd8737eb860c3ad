/**
 * @file
 * Job and outcome types shared by the sweep runner: one job is one
 * (workload x policy x config-variant) cell of an evaluation matrix,
 * and one outcome is its captured result or failure.
 *
 * Seeding discipline: every job gets a deterministic seed derived only
 * from (base_seed, workload) — deliberately *not* from the policy or
 * variant — so that every policy of a workload simulates the identical
 * workload build and speedup ratios stay meaningful. A second, fully
 * unique per-job seed (base_seed, workload, policy, variant) is also
 * derived and exported for any future stochastic per-cell behaviour.
 * Both derivations are pure functions, so a parallel sweep is
 * bit-identical to a serial one.
 */

#ifndef BAUVM_RUNNER_JOB_H_
#define BAUVM_RUNNER_JOB_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/core/presets.h"
#include "src/core/system.h"

namespace bauvm
{

/**
 * A named config mutation applied on top of paperConfig + applyPolicy.
 * The default variant has an empty label and no mutation.
 */
struct ConfigVariant {
    std::string label;
    std::function<void(SimConfig &)> mutate;
};

/** One schedulable cell of the sweep matrix. */
struct SweepJob {
    std::size_t index = 0;     //!< position in the result vector
    std::string workload;
    Policy policy = Policy::Baseline;
    std::string variant;       //!< ConfigVariant label ("" = default)
    std::size_t variant_index = 0; //!< into SweepSpec::variants
    std::uint64_t seed = 0;     //!< workload-level seed (see file doc)
    std::uint64_t job_seed = 0; //!< unique per-job seed (exported)
};

/** The captured result (or failure) of one sweep cell. */
struct CellOutcome {
    std::string workload;
    Policy policy = Policy::Baseline;
    std::string variant;
    std::uint64_t seed = 0;
    std::uint64_t job_seed = 0;

    bool ok = false;
    bool timed_out = false;
    std::string error;     //!< fatal()/panic()/exception text when !ok
    double wall_s = 0.0;   //!< host wall-clock for this cell

    // Provenance (schema bauvm.sweep/1.2): which process produced the
    // result, where, and under which content address. The digest is a
    // pure function of the cell's final config (see cell_spec.h) and
    // therefore deterministic; the rest is host-side provenance and
    // MUST stay out of determinism comparisons.
    std::string digest;    //!< 32-hex content address of the cell
    std::uint64_t worker_pid = 0; //!< pid of the producing process
    std::string hostname;  //!< host of the producing process
    bool from_cache = false; //!< replayed from the result cache

    RunResult result;      //!< valid only when ok
};

/**
 * Workload-level seed: mixes @p base_seed with the workload name.
 * Identical for every policy/variant of the workload (see file doc).
 */
std::uint64_t deriveWorkloadSeed(std::uint64_t base_seed,
                                 const std::string &workload);

/** "<workload>/<policy>[ <variant>]": how messages name a cell. */
std::string cellName(const std::string &workload, Policy policy,
                     const std::string &variant);

/** Globally unique per-job seed; exported in SweepResult JSON. */
std::uint64_t deriveJobSeed(std::uint64_t base_seed,
                            const std::string &workload,
                            Policy policy, const std::string &variant);

} // namespace bauvm

#endif // BAUVM_RUNNER_JOB_H_
