/**
 * @file
 * The benchmark's workloads and the three ways perfbench runs one:
 *
 *  - runSetUp():  everything before simulation starts, for every cell
 *                 of the set (graph build through the graph cache,
 *                 Workload::build, GpuUvmSystem construction);
 *  - runSweep():  the path users run, SweepRunner::run followed by
 *                 SweepResult::writeJson, with no spans recorded;
 *  - runTraced(): the same cells driven call by call, with a span
 *                 around every call into a layer, Workload::validate()
 *                 on every cell and tenant, and the per-layer counts a
 *                 RunResult does not carry.
 *
 * All three take the workload seed from the command line and derive
 * every cell's config exactly as SweepRunner does, so a cell simulates
 * the same thing on every path and its fingerprint must agree.
 */

#ifndef PERFBENCH_CPP_CELL_SET_H_
#define PERFBENCH_CPP_CELL_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/cpp/spans.h"
#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/core/tenant.h"
#include "src/workloads/workload.h"

namespace perfbench
{

/** One benchmark workload: the cell matrix one run sweeps. */
struct CellSet {
    std::string name;
    std::vector<std::string> workloads;      //!< single-tenant cells
    /** Non-empty: every cell runs this tenant mix (label only in
     *  `workloads`' place, see cellLabels()). */
    std::vector<bauvm::TenantSpec> tenants;
    std::vector<bauvm::Policy> policies;
    bauvm::WorkloadScale scale = bauvm::WorkloadScale::Tiny;
    double ratio = 0.5;
    std::size_t cell_threads = 1;
    /** Workload whose warp-op stream the traced run replays. */
    std::string replay_workload;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<CellSet> &cellSets();

/** nullptr when @p name is not a benchmark workload. */
const CellSet *findCellSet(const std::string &name);

/** Sweep-level workload labels: the registry names, or the mix label. */
std::vector<std::string> cellLabels(const CellSet &set);

/** Number of cells one pass over @p set runs. */
std::size_t cellCount(const CellSet &set);

/**
 * The simulated identity of a cell: cycles, event-order digest and
 * every simulated count of @p r, including each tenant's counts and
 * slowdown. Host-side fields (wall clock, rates) are left out.
 */
std::string fingerprint(const bauvm::RunResult &r);

/** One cell's outcome in one pass. */
struct CellRecord {
    std::string label;           //!< "<workload>/<policy>"
    bool ok = false;
    std::string error;
    std::string fingerprint;     //!< empty when !ok
    bauvm::RunResult result;     //!< the sweep-visible result
};

/** One untraced pass through SweepRunner. */
struct SweepPass {
    double wall_s = 0.0;         //!< SweepRunner::run + writeJson
    double run_s = 0.0;          //!< SweepRunner::run alone
    double cells_s = 0.0;        //!< sum of the cells' own wall time
    bool exported = false;       //!< writeJson succeeded
    std::vector<CellRecord> cells;
};

/** Seconds to set up every cell of @p set (see file doc). */
double runSetUp(const CellSet &set, std::uint64_t seed);

/** Runs @p set through SweepRunner, exporting to @p json_path. */
SweepPass runSweep(const CellSet &set, std::uint64_t seed,
                   const std::string &json_path);

/** Counts the traced pass reads from the layers it calls. */
struct LayerCounts {
    // Summed over the sweep-visible results (the mix, not its solo
    // anchors, on a multi-tenant cell).
    std::uint64_t events = 0;
    std::uint64_t cycles = 0;
    std::uint64_t warp_insts = 0;
    std::uint64_t ctx_switches = 0;
    std::uint64_t ctx_switch_cycles = 0;
    std::uint64_t translations = 0;
    double page_walks = 0.0;     //!< translations x (1 - tlb hit rate)
    std::uint64_t batches = 0;
    double batch_pages = 0.0;    //!< batches x avg batch pages
    std::uint64_t demand_pages = 0;
    std::uint64_t prefetched_pages = 0;
    std::uint64_t evictions = 0;
    std::uint64_t premature_evictions = 0;
    std::uint64_t pcie_h2d_bytes = 0;
    std::uint64_t pcie_d2h_bytes = 0;
    // Over multi-tenant cells only (mt_cells of them).
    double max_slowdown = 0.0;
    double jain_sum = 0.0;
    std::size_t mt_cells = 0;

    // Every simulation the pass ran, solo anchors included: core.run
    // spans cover them all.
    std::uint64_t all_events = 0;

    // Read from GpuUvmSystem::hierarchy() of every single-tenant
    // simulation (the mix's per-tenant hierarchies are not public).
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t mshr_stall_cycles = 0;
};

/** One traced pass (see file doc). */
struct TracedPass {
    std::unique_ptr<SpanLog> spans;
    std::vector<CellRecord> cells;
    std::vector<std::size_t> cell_spans; //!< root span of each cell
    LayerCounts counts;
    double wall_s = 0.0;         //!< whole pass, export included
    std::uint64_t graph_builds = 0;
    std::uint64_t graph_cache_hits = 0;
    /** Graph builds that happened inside Workload::build instead of
     *  the traced pass's graph.build spans (non-zero means buildGraph's
     *  graph parameters no longer match the workloads'). */
    std::uint64_t graph_builds_in_cells = 0;
    bool exported = false;
};

TracedPass runTraced(const CellSet &set, std::uint64_t seed,
                     const std::string &json_path);

} // namespace perfbench

#endif // PERFBENCH_CPP_CELL_SET_H_
