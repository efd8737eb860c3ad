/**
 * @file
 * Sweep requests: a (workload x policy x variant) matrix written as a
 * JSON document, schema `bauvm.sweep-request/1`, lowered onto the
 * SweepSpec every bench runs through SweepRunner.
 *
 * A request names the matrix plus the shared run options (scale,
 * ratio, seed, audit, soft timeout, worker threads) and an optional
 * multi-tenant mix ("tenants" + "share_policy", applied to every
 * cell). Its variants are declarative override lists; each becomes a
 * ConfigVariant whose mutation applies the overrides, which are
 * validated while the document is parsed.
 *
 * Example request:
 * @code{.json}
 * {"schema": "bauvm.sweep-request/1",
 *  "bench": "fig11",
 *  "workloads": ["@irregular"],
 *  "policies": ["BASELINE", "TO+UE", "ETC"],
 *  "scale": "tiny", "ratio": 0.5, "seed": 1, "jobs": 2}
 * @endcode
 */

#ifndef BAUVM_SERVE_SWEEP_REQUEST_H_
#define BAUVM_SERVE_SWEEP_REQUEST_H_

#include <string>

#include "src/runner/sweep_runner.h"
#include "src/serve/json.h"

namespace bauvm
{

inline constexpr const char *kSweepRequestSchema =
    "bauvm.sweep-request/1";

/**
 * Parses and validates a bauvm.sweep-request/1 document into @p out.
 * Workload names are checked against the registry (for a tenant mix
 * they only label the cells); "@irregular", "@regular", "@frontier"
 * and "@all" expand in registration order. Missing "policies" means
 * allPolicies(); missing "variants" means one default variant;
 * "jobs" defaults to 1 worker thread. The request maps onto
 * SweepSpec::opt the way the bench flags do, so SweepRunner applies
 * "audit" and "share_policy" after each variant's overrides.
 * @p out starts from a default SweepSpec; the caller sets resume_dir
 * and verbose. @return false with a reason in @p error on any invalid
 * field, including the retired keys "hard_timeout_s", "chunk_cells"
 * and "flush_cells".
 */
bool parseSweepRequest(const JsonValue &v, SweepSpec *out,
                       std::string *error);

} // namespace bauvm

#endif // BAUVM_SERVE_SWEEP_REQUEST_H_
