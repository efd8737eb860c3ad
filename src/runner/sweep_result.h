/**
 * @file
 * Structured aggregation of one sweep: every cell outcome plus the
 * sweep-level metadata, exportable as schema-versioned JSON alongside
 * the Table/CSV output the bench binaries already print.
 *
 * JSON schema "bauvm.sweep/1.4":
 * {
 *   "schema": "bauvm.sweep/1.4",
 *   "bench": "<bench name>",
 *   "base_seed": u64, "scale": "tiny|small|medium|large",
 *   "ratio": f64, "jobs": u64, "elapsed_s": f64,
 *   "cells": [
 *     { "workload": str, "policy": str, "variant": str,
 *       "seed": u64, "job_seed": u64,
 *       "ok": bool, "timed_out": bool, "error": str, "wall_s": f64,
 *       "digest": str, "worker_pid": u64, "hostname": str,
 *       "cached": bool,
 *       "result": { <RunResult's kExported fields> } // iff ok
 *     }, ...
 *   ]
 * }
 * RunResult additionally carries the simulator's own throughput
 * ("sim_events", "host_wall_s", "events_per_sec"); the latter two are
 * host wall-clock derived and therefore nondeterministic — additive
 * within schema /1, excluded from determinism comparisons.
 * Minor /1.1 adds the deterministic memory data path counters
 * "translations", "tlb_hit_rate" and "faults_per_kcycle"; consumers
 * keyed on the "bauvm.sweep/1" prefix keep working.
 * Minor /1.2 adds per-cell provenance for threaded/resumed sweeps:
 * "digest" (the content address from cell_spec.h — deterministic),
 * plus "worker_pid", "hostname" and "cached", which record *where* a
 * result came from and are excluded from determinism comparisons
 * alongside the wall-clock fields (see ci/check_sweep_equiv.py).
 * Minor /1.3 adds "result.tenants" and /1.4 the deterministic
 * "result.event_order_digest".
 * Cells appear in deterministic matrix order (variant-major, then
 * workload, then policy), never in completion order.
 */

#ifndef BAUVM_RUNNER_SWEEP_RESULT_H_
#define BAUVM_RUNNER_SWEEP_RESULT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/runner/job.h"
#include "src/workloads/workload.h"

namespace bauvm
{

class JsonWriter;

/**
 * Serializes one cell outcome as a JSON object (the element shape of
 * the "cells" array above). With @p with_batch_records, the per-batch
 * records are appended as "batch_records": [[<BatchRecord's seven
 * fields in table order>], ...] — used by the on-disk result cache so
 * a replayed cell keeps the data Figs 3/12-16 derive from; the sweep
 * export itself omits them.
 */
void writeCellJson(JsonWriter &w, const CellOutcome &cell,
                   bool with_batch_records = false);

struct SweepResult {
    /**
     * Major bumped whenever the JSON layout changes incompatibly;
     * minor bumped for additive fields within the same major.
     */
    static constexpr const char *kSchema = "bauvm.sweep/1.4";

    std::string bench;          //!< producing binary, e.g. "fig11_speedup"
    std::uint64_t base_seed = 0;
    WorkloadScale scale = WorkloadScale::Small;
    double ratio = 0.0;
    std::size_t jobs = 1;       //!< worker threads actually used
    double elapsed_s = 0.0;     //!< whole-sweep wall clock

    std::vector<CellOutcome> cells; //!< deterministic matrix order

    /** Cells with ok == false. */
    std::size_t failedCells() const;

    /**
     * Finds a cell by coordinates; nullptr when absent. Failed cells
     * are still found (check ->ok).
     */
    const CellOutcome *find(const std::string &workload, Policy policy,
                            const std::string &variant = "") const;

    /**
     * The result of the cell at these coordinates, for a figure that
     * needs every cell: fatal()s, naming the cell and its error, when
     * the cell is absent or failed.
     */
    const RunResult &require(const std::string &workload,
                             Policy policy,
                             const std::string &variant = "") const;

    /** Serializes the whole sweep as schema-versioned JSON.
     *  @param pretty  false = single-line form for NDJSON embedding. */
    std::string toJson(bool pretty = true) const;

    /**
     * Writes toJson() to @p path ("-" = stdout). @return false (with a
     * warn) when the file cannot be written.
     */
    bool writeJson(const std::string &path) const;
};

/**
 * A speedup table over BASELINE: one row per workload of BASELINE
 * cycles / each policy's cycles, "FAIL" for a failed cell; a workload
 * whose BASELINE cell failed is skipped with a warn. Every speedup is
 * also appended to (*speedups)[policy] for the caller's mean rows.
 */
Table speedupTable(const SweepResult &sweep,
                   const std::vector<std::string> &workloads,
                   const std::vector<Policy> &policies,
                   std::map<Policy, std::vector<double>> *speedups);

} // namespace bauvm

#endif // BAUVM_RUNNER_SWEEP_RESULT_H_
