/**
 * @file
 * JSON parsers for the sweep request and the result cache: the
 * override lists of a request's variants and the CellOutcome form of
 * a finished cell.
 *
 * The write side is writeCellJson (sweep_result.h, over
 * src/runner/json_writer.h); parseCellOutcome reads that shape back
 * from a cache entry. Parsers are strict about the fields that
 * determine simulation behaviour (workload, policy, overrides) and
 * lenient about additive provenance, so newer producers interoperate
 * with older consumers within the same schema major.
 */

#ifndef BAUVM_SERVE_CELL_JSON_H_
#define BAUVM_SERVE_CELL_JSON_H_

#include <string>

#include "src/runner/cell_spec.h"
#include "src/runner/job.h"
#include "src/serve/json.h"

namespace bauvm
{

/** Parses an "overrides" array, [{"key": str, "value": number}, ...]
 *  (a bool knob also takes true/false); @return false with the reason
 *  in @p error unless applyConfigOverride() takes every entry. */
bool parseConfigOverrides(const JsonValue &v,
                          std::vector<ConfigOverride> *out,
                          std::string *error);

/**
 * Parses the writeCellJson() shape (sweep_result.h), including the
 * optional "batch_records" extension the result cache stores.
 * RunResult.workload/seed are reconstructed from the cell fields.
 */
bool parseCellOutcome(const JsonValue &v, CellOutcome *out,
                      std::string *error);

} // namespace bauvm

#endif // BAUVM_SERVE_CELL_JSON_H_
