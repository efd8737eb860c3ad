/**
 * @file
 * Tenant-session types for multi-tenant runs: N workloads sharing one
 * simulated GPU, each with its own slice of the unified virtual address
 * space and a frame budget arbitrated by a SharePolicy (sim/config.h).
 *
 * A TenantSpec is the client-facing request (workload name + relative
 * quota); GpuUvmSystem::run(std::vector<TenantSpec>) lowers the specs
 * to TenantContexts with concrete VA slices and frame quotas, registers
 * them in a TenantDirectory, and threads tenant ids through the fault
 * buffer, batches, and the eviction path. Per-tenant outcomes come back
 * as TenantResults inside the RunResult.
 *
 * VA slices are aligned to both the prefetch-tree span (va_block_bytes)
 * and the eviction chunk (root_chunk_pages), so no 2 MB prefetch tree
 * and no LRU chunk ever spans two tenants — tenantOf() is well defined
 * for every structure the UVM runtime moves as a unit.
 */

#ifndef BAUVM_CORE_TENANT_H_
#define BAUVM_CORE_TENANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mem/tenant_directory.h"
#include "src/sim/config.h"
#include "src/sim/types.h"
#include "src/workloads/workload.h"

namespace bauvm
{

// TenantId / kNoTenant live in sim/types.h, and TenantContext /
// TenantDirectory in mem/tenant_directory.h, so the low layers (mem,
// uvm, check) carry attribution without depending on this header.

/** One requested tenant of a multi-tenant run. */
struct TenantSpec {
    std::string workload; //!< registry name, e.g. "BFS-HYB"
    /**
     * Relative memory share. Under StrictQuota it is the fraction of
     * total GPU capacity this tenant may commit; under Proportional it
     * is the tenant's fair-share weight. 0 on every spec means equal
     * shares. Ignored by FreeForAll.
     */
    double quota = 0.0;
    WorkloadScale scale = WorkloadScale::Small;
};

/** Per-tenant slice of a multi-tenant RunResult. */
struct TenantResult {
    TenantId id = 0;
    std::string workload;
    std::uint64_t seed = 0;
    Cycle cycles = 0;            //!< cycle the tenant's last kernel retired
    std::uint64_t kernels = 0;
    std::uint64_t instructions = 0;
    std::uint64_t footprint_bytes = 0;
    std::uint64_t quota_pages = 0;
    std::uint64_t demand_pages = 0; //!< demand migrations attributed here
    std::uint64_t evictions_caused = 0;   //!< victim chosen on its behalf
    std::uint64_t evictions_suffered = 0; //!< its own pages evicted
    std::uint64_t peak_resident_pages = 0;
    double avg_lifetime_cycles = 0.0; //!< mean evicted-page lifetime
    /** mt cycles / solo cycles for the same workload+seed+capacity-share
     *  context; 0 when no solo reference was run. */
    double slowdown = 0.0;
};
template <FieldsOf<TenantResult> S, class F>
constexpr void
forEachField(S &t, F &&f)
{
    f("id", t.id, kExported);
    f("workload", t.workload, kExported);
    f("seed", t.seed, kExported);
    f("cycles", t.cycles, kExported);
    f("kernels", t.kernels, kExported);
    f("instructions", t.instructions, kExported);
    f("footprint_bytes", t.footprint_bytes, kExported);
    f("quota_pages", t.quota_pages, kExported);
    f("demand_pages", t.demand_pages, kExported);
    f("evictions_caused", t.evictions_caused, kExported);
    f("evictions_suffered", t.evictions_suffered, kExported);
    f("peak_resident_pages", t.peak_resident_pages, kExported);
    f("avg_lifetime_cycles", t.avg_lifetime_cycles, kExported);
    f("slowdown", t.slowdown, kExported);
}
BAUVM_FIELD_TABLE_COMPLETE(TenantResult);

/**
 * Per-tenant seed, decorrelated from the base seed and from the other
 * tenants by splitmix64 — the same scheme deriveWorkloadSeed() uses
 * across sweep cells, so tenant i's graph build matches the solo run
 * of the same workload under seed deriveTenantSeed(base, i).
 */
std::uint64_t deriveTenantSeed(std::uint64_t base_seed,
                               std::uint32_t tenant_index);

/** "free-for-all" | "strict" | "proportional". */
std::string sharePolicyName(SharePolicy policy);

/** Inverse of sharePolicyName(); fatal on unknown names. */
SharePolicy sharePolicyFromName(const std::string &name);

/** Display label for a tenant mix, e.g. "BFS-HYB+PR". */
std::string tenantMixLabel(const std::vector<TenantSpec> &specs);

} // namespace bauvm

#endif // BAUVM_CORE_TENANT_H_
