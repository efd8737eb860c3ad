/**
 * @file
 * GpuUvmSystem: the library's main entry point. Wires the event queue,
 * memory system, UVM runtime, GPU and (optionally) the ETC framework
 * together, runs a workload through its kernel sequence, and reports a
 * RunResult with every statistic the paper's figures need.
 */

#ifndef BAUVM_CORE_SYSTEM_H_
#define BAUVM_CORE_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/model_auditor.h"
#include "src/check/sim_hooks.h"
#include "src/core/tenant.h"
#include "src/etc/etc_framework.h"
#include "src/gpu/gpu.h"
#include "src/mem/memory_hierarchy.h"
#include "src/sim/config.h"
#include "src/sim/event_queue.h"
#include "src/trace/trace_sink.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/uvm_runtime.h"
#include "src/workloads/workload.h"

namespace bauvm
{

/** Everything a figure might want from one simulation run. */
struct RunResult {
    std::string workload;
    std::uint64_t seed = 0;            //!< config.seed used for the run
    Cycle cycles = 0;                  //!< total execution time
    std::uint64_t kernels = 0;
    std::uint64_t instructions = 0;
    std::uint64_t footprint_bytes = 0;
    std::uint64_t capacity_pages = 0;

    // UVM batch statistics (Figs 3, 12-14, 16).
    std::uint64_t batches = 0;
    double avg_batch_pages = 0.0;      //!< demand faults per batch
    double avg_batch_time = 0.0;       //!< cycles
    double avg_handling_time = 0.0;    //!< cycles
    std::uint64_t demand_pages = 0;
    std::uint64_t prefetched_pages = 0;
    BatchLog batch_records; //!< shared by copies of this result

    // Eviction statistics (Figs 8, 15, 17).
    std::uint64_t migrations = 0;
    std::uint64_t evictions = 0;
    std::uint64_t premature_evictions = 0;
    double premature_rate = 0.0;

    // Thread oversubscription statistics (Figs 5, 12-13, section 6.5).
    std::uint64_t context_switches = 0;
    std::uint64_t context_switch_cycles = 0;

    // Interconnect utilization.
    std::uint64_t pcie_h2d_bytes = 0;
    std::uint64_t pcie_d2h_bytes = 0;

    // Memory data path statistics (schema bauvm.sweep/1.1): these make
    // translation/fault pressure visible in sweep JSON, so a memory-path
    // regression shows up in experiment exports and not only in the
    // microbenches. All three are deterministic.
    std::uint64_t translations = 0;    //!< line-granular accesses translated
    double tlb_hit_rate = 0.0;         //!< served without a page walk
    double faults_per_kcycle = 0.0;    //!< translation faults per 1k cycles

    // Simulator self-measurement. sim_events is deterministic (kernel
    // events dispatched for this run); host_wall_s / events_per_sec
    // are host-side wall clock and MUST stay out of determinism
    // comparisons and printed figure tables. event_order_digest folds
    // every dispatched event's (when, seq) pair into one value, so two
    // runs agree on it iff they executed the same events in the same
    // order — the byte-identity oracle the --cell-threads differential
    // tests compare. Deterministic; exported since bauvm.sweep/1.4.
    std::uint64_t event_order_digest = 0;
    std::uint64_t sim_events = 0;
    double host_wall_s = 0.0;
    double events_per_sec = 0.0;

    // Multi-tenant runs only (schema bauvm.sweep/1.3): one entry per
    // admitted tenant, in TenantId order. Empty for single-tenant runs.
    std::vector<TenantResult> tenants;
};
template <FieldsOf<RunResult> S, class F>
constexpr void
forEachField(S &r, F &&f)
{
    // workload and seed are the cell's own "workload"/"seed" in the
    // JSON; parseCellOutcome() copies them back from there.
    f("workload", r.workload, kNoFlags);
    f("seed", r.seed, kNoFlags);
    f("cycles", r.cycles, kExported);
    f("kernels", r.kernels, kExported);
    f("instructions", r.instructions, kExported);
    f("footprint_bytes", r.footprint_bytes, kExported);
    f("capacity_pages", r.capacity_pages, kExported);
    f("batches", r.batches, kExported);
    f("avg_batch_pages", r.avg_batch_pages, kExported);
    f("avg_batch_time", r.avg_batch_time, kExported);
    f("avg_handling_time", r.avg_handling_time, kExported);
    f("demand_pages", r.demand_pages, kExported);
    f("prefetched_pages", r.prefetched_pages, kExported);
    // Result-cache entries only, as a sibling of "result"
    // (writeCellJson with_batch_records).
    f("batch_records", r.batch_records, kNoFlags);
    f("migrations", r.migrations, kExported);
    f("evictions", r.evictions, kExported);
    f("premature_evictions", r.premature_evictions, kExported);
    f("premature_rate", r.premature_rate, kExported);
    f("context_switches", r.context_switches, kExported);
    f("context_switch_cycles", r.context_switch_cycles, kExported);
    f("pcie_h2d_bytes", r.pcie_h2d_bytes, kExported);
    f("pcie_d2h_bytes", r.pcie_d2h_bytes, kExported);
    f("translations", r.translations, kExported);
    f("tlb_hit_rate", r.tlb_hit_rate, kExported);
    f("faults_per_kcycle", r.faults_per_kcycle, kExported);
    f("event_order_digest", r.event_order_digest, kExported);
    f("sim_events", r.sim_events, kExported);
    f("host_wall_s", r.host_wall_s, kExported);
    f("events_per_sec", r.events_per_sec, kExported);
    f("tenants", r.tenants, kExported);
}
BAUVM_FIELD_TABLE_COMPLETE(RunResult);

/** A fully wired simulated system executing one workload. */
class GpuUvmSystem
{
  public:
    explicit GpuUvmSystem(const SimConfig &config);

    /**
     * Builds @p workload at @p scale, sizes device memory from its
     * footprint and the configured memory ratio, runs every kernel the
     * workload produces, and returns the aggregated statistics.
     *
     * The workload's functional results stay in its device arrays, so
     * callers can validate() afterwards.
     */
    RunResult run(Workload &workload, WorkloadScale scale);

    /**
     * Multi-tenant entry point: admits every spec as a tenant session —
     * its own VA slice (aligned so no prefetch tree or eviction chunk
     * spans tenants), per-tenant seed, an SM partition, and a frame
     * budget arbitrated by config.mt.policy — then interleaves all
     * tenants' fault streams into shared UVM batches on one event
     * queue. Deterministic: the same config and specs reproduce the
     * run bit-for-bit.
     *
     * Per-tenant statistics land in RunResult::tenants (slowdown is
     * left 0; callers with a solo reference fill it in). fatal()s on a
     * config that multiTenantRefusal() refuses. Each tenant's
     * functional results stay in its workload (tenantWorkloads()) for
     * validation.
     */
    RunResult run(const std::vector<TenantSpec> &specs);

    /** The workloads admitted by the multi-tenant run(), in TenantId
     *  order (empty before it runs). */
    const std::vector<std::unique_ptr<Workload>> &tenantWorkloads() const
    {
        return tenant_workloads_;
    }

    // Component access for tests and custom experiments.
    EventQueue &events() { return events_; }
    GpuMemoryManager &memoryManager() { return manager_; }
    MemoryHierarchy &hierarchy() { return hierarchy_; }
    UvmRuntime &runtime() { return runtime_; }
    Gpu &gpu() { return gpu_; }
    const SimConfig &config() const { return config_; }

    /** The run's trace sink, or nullptr when config.trace.enabled is
     *  false. Owned by the system; valid for its whole lifetime. */
    TraceSink *trace() { return trace_.get(); }

    /** The run's model auditor, or nullptr when config.check.enabled
     *  is false. Owned by the system; valid for its whole lifetime. */
    ModelAuditor *audit() { return audit_.get(); }

  private:
    /**
     * Destroys the tenant GPUs and hierarchies of a previous
     * run(specs) call, together with the runtime's eviction routes
     * and advice sinks that point into them.
     */
    void clearTenants();

    SimConfig config_;
    EventQueue events_;
    // Observers are built first so hooks_ can be handed to every
    // component at construction (components keep it by value).
    std::unique_ptr<TraceSink> trace_;
    std::unique_ptr<ModelAuditor> audit_;
    SimHooks hooks_;
    GpuMemoryManager manager_;
    MemoryHierarchy hierarchy_;
    UvmRuntime runtime_;
    Gpu gpu_;
    std::unique_ptr<EtcFramework> etc_;

    // Multi-tenant state (populated by run(specs) only): one hierarchy
    // and GPU per tenant, in TenantId order; the directory maps every
    // page to its owner.
    std::unique_ptr<TenantDirectory> tenant_dir_;
    std::vector<std::unique_ptr<MemoryHierarchy>> tenant_hierarchies_;
    std::vector<std::unique_ptr<Gpu>> tenant_gpus_;
    std::vector<std::unique_ptr<Workload>> tenant_workloads_;
};

/**
 * Why @p config cannot run a mix of @p tenants tenants, or "" when it
 * can: ETC, preload and unlimited memory (a memory ratio of 0) are
 * single-tenant only, and every tenant needs an SM of its own. A pure
 * function of the config, so a sweep can refuse a cell before it runs.
 */
std::string multiTenantRefusal(const SimConfig &config,
                               std::size_t tenants);

/**
 * Convenience wrapper: build the named workload, run it under
 * @p config, optionally validate, and return the result.
 */
RunResult runWorkload(const SimConfig &config, const std::string &name,
                      WorkloadScale scale, bool validate = false);

/**
 * Convenience wrapper around GpuUvmSystem::run(specs): admit every
 * spec as a tenant, run the mix to completion, optionally validate
 * every tenant's functional result.
 */
RunResult runTenantMix(const SimConfig &config,
                       const std::vector<TenantSpec> &specs,
                       bool validate = false);

} // namespace bauvm

#endif // BAUVM_CORE_SYSTEM_H_
