/**
 * @file
 * Declarative cell specifications and content addresses.
 *
 * A CellSpec is the declarative description of one sweep cell: the
 * (workload, policy, variant, scale, seed) coordinates plus a list of
 * config overrides (named knob = numeric value) instead of the
 * std::function mutations SweepSpec carries. cellConfig() lowers it to
 * the final SimConfig; the pinned content-address digests are defined
 * over that config. Sweep requests (src/serve/sweep_request.h) lower
 * their override lists onto SweepSpec variants through the same
 * applyConfigOverride().
 *
 * Content addressing: cellKey() canonicalizes the *final* SimConfig —
 * every kKeyed field (sim/field_table.h), doubles at full precision —
 * together with the workload name, scale and the producing git
 * revision, and digestHex() folds that key into a 128-bit hex digest. Keying on the
 * final config (not on how it was reached) means a cell produced via a
 * policy preset, a named variant mutation, or a declarative override
 * dedupes identically, and any config change invalidates the address.
 * Function-valued variant mutations are code, so the git revision in
 * the key is what keys their behaviour.
 *
 * executeCell() is the cell executor SweepRunner's workers call:
 * abort capture, soft timeout, optional per-cell trace flush, and
 * provenance stamping (digest, process id, hostname).
 */

#ifndef BAUVM_RUNNER_CELL_SPEC_H_
#define BAUVM_RUNNER_CELL_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/presets.h"
#include "src/core/tenant.h"
#include "src/runner/job.h"
#include "src/workloads/workload.h"

namespace bauvm
{

/**
 * One declarative config mutation: a registered knob name (e.g.
 * "uvm.fault_buffer_entries") and its numeric value. Booleans are 0/1.
 */
struct ConfigOverride {
    std::string key;
    double value = 0.0;
};

/**
 * Sets the SimConfig leaf flagged kKnob under the dotted name @p key.
 * @return false, with the reason in @p error and the config untouched,
 * on an unknown key or a value the leaf's type cannot hold (integers
 * and enums take integral values in [0, max], bools 0 or 1).
 */
bool applyConfigOverride(SimConfig &config, const std::string &key,
                         double value, std::string *error = nullptr);

/** Every kKnob leaf's dotted key, sorted, for diagnostics/usage. */
std::vector<std::string> knownOverrideKeys();

/** The declarative description of one sweep cell. */
struct CellSpec {
    std::string workload;
    Policy policy = Policy::Baseline;
    std::string variant; //!< label only; body is in `overrides`
    std::vector<ConfigOverride> overrides;
    WorkloadScale scale = WorkloadScale::Small;
    double ratio = 0.5;
    std::uint64_t base_seed = 1;
    bool audit = false;
    /** Non-empty = a multi-tenant cell: the workloads run
     *  concurrently on one GPU (see GpuUvmSystem::run(specs)) and
     *  `workload` is only their display label. Each entry's scale is
     *  expected to equal `scale`. */
    std::vector<TenantSpec> tenants;
};

/**
 * Builds the final SimConfig for @p spec: paperConfig(ratio, derived
 * workload seed) + applyPolicy + overrides (fatal() on one that
 * applyConfigOverride rejects) + audit flag.
 */
SimConfig cellConfig(const CellSpec &spec);

/**
 * "dotted.name=value;" for every kKeyed SimConfig leaf, in declaration
 * order. Doubles print with %.17g so the string round-trips exactly.
 */
std::string canonicalConfigString(const SimConfig &config);

/**
 * The full content-address key of one cell:
 * "bauvm.cell/3|<git_rev>|<workload>|<scale>|<stream params>|
 * <tenants>|<canonical config>". The config embeds the seed and
 * memory ratio, so they need no separate lanes; the graph-stream
 * parameters (graphStreamConfig()) get their own lane because they
 * live outside SimConfig, and so does the tenant mix (workload,
 * quota, scale per tenant — empty for single-tenant cells).
 */
std::string cellKey(const std::string &workload, WorkloadScale scale,
                    const SimConfig &config,
                    const std::string &git_rev,
                    const std::vector<TenantSpec> &tenants = {});

/** 128-bit (32 hex chars) digest of @p key: two independent FNV-1a
 *  lanes, each splitmix-finalized. */
std::string digestHex(const std::string &key);

/**
 * The producing git revision baked in at configure time
 * (BAUVM_GIT_REV compile definition), overridable with the
 * BAUVM_GIT_REV environment variable; "unknown" when neither exists.
 */
std::string gitRev();

/** Cached gethostname(), "unknown" on failure. */
std::string hostName();

/** Everything executeCell() needs to run one cell. */
struct CellExecArgs {
    std::string workload;
    Policy policy = Policy::Baseline;
    std::string variant;
    std::uint64_t job_seed = 0; //!< exported unique per-cell seed
    WorkloadScale scale = WorkloadScale::Small;
    SimConfig config;           //!< final config (seed already set)
    double soft_timeout_s = 0.0;
    std::string git_rev;        //!< for the digest; gitRev() if empty

    /** Host threads inside this cell. A multi-tenant cell runs its
     *  per-tenant solo anchors and the mix as independent units on
     *  this many threads; results are merged in fixed unit order, so
     *  any value produces the bit-identical outcome of 1 (serial).
     *  Excluded from cellKey() — it cannot change the payload. */
    std::size_t cell_threads = 1;

    // Per-cell tracing; all empty when the sweep is not traced.
    std::string trace_dir;      //!< "" disables the per-cell flush
    std::string trace_stem;     //!< file stem inside trace_dir
    std::string trace_bench;    //!< TraceMeta.bench
    double trace_ratio = 0.0;   //!< TraceMeta.ratio

    /** Non-empty = run a tenant mix instead of `workload`: each
     *  tenant first runs solo (same ratio and policy, its derived
     *  seed) to anchor the per-tenant slowdown, then the mix runs
     *  concurrently and result.tenants[i].slowdown is filled in. */
    std::vector<TenantSpec> tenants;
};

/**
 * Runs one cell with abort capture; never throws. Stamps provenance:
 * digest (pure function of the config — deterministic), worker pid,
 * hostname, and the soft-timeout verdict. config.trace.enabled is
 * derived from trace_dir.
 */
CellOutcome executeCell(const CellExecArgs &args);

} // namespace bauvm

#endif // BAUVM_RUNNER_CELL_SPEC_H_
