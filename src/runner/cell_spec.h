/**
 * @file
 * Cell content addresses and declarative config overrides.
 *
 * Declarative overrides: a ConfigOverride names a kKnob config leaf
 * and its numeric value; applyConfigOverride() sets it with a type
 * check. Sweep requests (src/serve/sweep_request.h) lower their
 * override lists onto SweepSpec variants through it.
 *
 * Content addressing: cellKey() canonicalizes the *final* SimConfig —
 * every kKeyed field (sim/field_table.h), doubles at full precision —
 * together with the workload name, scale and the producing git
 * revision, and digestHex() folds that key into a 128-bit hex digest.
 * The final config comes from the one recipe SweepRunner uses
 * (cellConfig() in sweep_runner.h). Keying on the final config (not on
 * how it was reached) means a cell produced via a policy preset, a
 * named variant mutation, or a declarative override dedupes
 * identically, and any config change invalidates the address.
 * Function-valued variant mutations are code, so the git revision in
 * the key is what keys their behaviour.
 */

#ifndef BAUVM_RUNNER_CELL_SPEC_H_
#define BAUVM_RUNNER_CELL_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/presets.h"
#include "src/core/tenant.h"
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

} // namespace bauvm

#endif // BAUVM_RUNNER_CELL_SPEC_H_
