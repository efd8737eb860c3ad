/**
 * @file
 * JSON codecs for the sweep service: CellSpec (the wire form shipped
 * to worker processes) and CellOutcome (the wire/cache form of a
 * finished cell).
 *
 * The write side rides on src/runner/json_writer.h (writeCellJson from
 * sweep_result.h produces the outcome shape); this header adds the
 * matching parsers over src/serve/json.h plus the CellSpec writer.
 * Parsers are strict about the fields that determine simulation
 * behaviour (workload, policy, scale, overrides) and lenient about
 * additive provenance, so newer producers interoperate with older
 * consumers within the same schema major.
 */

#ifndef BAUVM_SERVE_CELL_JSON_H_
#define BAUVM_SERVE_CELL_JSON_H_

#include <string>

#include "src/runner/cell_spec.h"
#include "src/runner/job.h"
#include "src/runner/json_writer.h"
#include "src/serve/json.h"

namespace bauvm
{

/** Serializes @p spec as one JSON object into @p w. */
void writeCellSpec(JsonWriter &w, const CellSpec &spec);

/** Parses an "overrides" array, [{"key": str, "value": number}, ...];
 *  @return false with the reason in @p error unless
 *  applyConfigOverride() takes every entry. */
bool parseConfigOverrides(const JsonValue &v,
                          std::vector<ConfigOverride> *out,
                          std::string *error);

/**
 * Parses the writeCellSpec() shape. @return false (with a reason in
 * @p error) on a missing/invalid required field, an unknown policy or
 * scale name, or an override parseConfigOverrides() rejects.
 */
bool parseCellSpec(const JsonValue &v, CellSpec *out,
                   std::string *error);

/**
 * Parses the writeCellJson() shape (sweep_result.h), including the
 * optional "batch_records" extension the result cache stores.
 * RunResult.workload/seed are reconstructed from the cell fields.
 */
bool parseCellOutcome(const JsonValue &v, CellOutcome *out,
                      std::string *error);

/** Parses a WorkloadScale name; @return false on an unknown name. */
bool scaleFromName(const std::string &name, WorkloadScale *out);

/** policyFromName() without the fatal(); @return false when unknown. */
bool policyFromNameSafe(const std::string &name, Policy *out);

} // namespace bauvm

#endif // BAUVM_SERVE_CELL_JSON_H_
