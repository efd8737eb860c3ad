/**
 * @file
 * SweepRequest: the client-facing description of one sweep matrix,
 * schema `bauvm.sweep-request/1`.
 *
 * A request names a (workload x policy x variant) matrix plus the
 * shared run options (scale, ratio, seed, audit, timeouts), an
 * optional multi-tenant mix ("tenants" + "share_policy", applied to
 * every cell) and the service-side execution knobs (worker count,
 * shard chunking, flush batching). expandCells() lowers it to the flat CellSpec vector in
 * the same variant-major -> workload -> policy order SweepRunner uses,
 * so a daemon-merged result orders its cells exactly like the serial
 * in-process sweep it must be byte-identical to.
 *
 * Variants here are declarative (override lists), unlike the
 * function-valued ConfigVariant of SweepSpec: a request crosses a
 * process boundary, so its config mutations must serialize.
 *
 * Example request:
 * @code{.json}
 * {"schema": "bauvm.sweep-request/1",
 *  "bench": "fig11",
 *  "workloads": ["@irregular"],
 *  "policies": ["BASELINE", "TO+UE", "ETC"],
 *  "scale": "tiny", "ratio": 0.5, "seed": 1,
 *  "jobs": 2, "hard_timeout_s": 120}
 * @endcode
 */

#ifndef BAUVM_SERVE_SWEEP_REQUEST_H_
#define BAUVM_SERVE_SWEEP_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/cell_spec.h"
#include "src/runner/sweep_result.h"
#include "src/serve/json.h"

namespace bauvm
{

/** One declarative config variant of a request matrix. */
struct RequestVariant {
    std::string label; //!< "" = the default (no-override) variant
    std::vector<ConfigOverride> overrides;
};

/** One parsed sweep request (see file doc for the JSON shape). */
struct SweepRequest {
    static constexpr const char *kSchema = "bauvm.sweep-request/1";

    std::string bench = "sweep";     //!< stamped into the result JSON
    std::vector<std::string> workloads; //!< concrete names, expanded
    std::vector<Policy> policies;
    std::vector<RequestVariant> variants; //!< never empty once parsed

    WorkloadScale scale = WorkloadScale::Small;
    double ratio = 0.5;
    std::uint64_t seed = 1;
    bool audit = false;

    /** Non-empty = every cell runs this concurrent tenant mix
     *  ({"workload", "quota"} objects) instead of a single workload;
     *  the matrix's workload axis then only labels the cells. */
    std::vector<TenantSpec> tenants;
    /** "free-for-all" | "strict" | "proportional" — how the tenants
     *  share device memory. Lowered onto every cell as an "mt.policy"
     *  override so it reaches the config (and the content address)
     *  through the ordinary knob path. */
    SharePolicy share_policy = SharePolicy::FreeForAll;

    /** Soft per-cell budget (accept/reject, checked at cell end). */
    double timeout_s = 0.0;
    /** Hard per-cell budget: the daemon SIGKILLs the worker. 0 = off. */
    double hard_timeout_s = 0.0;

    /** Worker processes; 0 = one. */
    std::size_t jobs = 1;
    /** Cells per shard handed to a worker at once (>= 1). */
    std::size_t chunk_cells = 1;
    /** Completed cells per aggregated worker->daemon flush (>= 1). */
    std::size_t flush_cells = 8;
};

/**
 * Parses and validates a bauvm.sweep-request/1 document. Workload
 * names are checked against the registry; "@irregular", "@regular"
 * and "@all" expand in registration order. Missing "policies" means
 * allPolicies(); missing "variants" means one default variant.
 * @return false with a reason in @p error on any invalid field.
 */
bool parseSweepRequest(const JsonValue &v, SweepRequest *out,
                       std::string *error);

/**
 * Lowers @p req to its flat cell list, variant-major -> workload ->
 * policy — the SweepRunner expansion order.
 */
std::vector<CellSpec> expandCells(const SweepRequest &req);

/**
 * Runs the request's whole matrix serially, in-process, one cell at a
 * time through executeCell() — no workers, no cache, no daemon. This
 * is the reference the sharded service is byte-compared against
 * (deterministic fields only; see ci/check_sweep_equiv.py), and the
 * `bauvm_submit --local` escape hatch when no daemon is running.
 */
SweepResult runRequestSerial(const SweepRequest &req,
                             bool verbose = false);

} // namespace bauvm

#endif // BAUVM_SERVE_SWEEP_REQUEST_H_
