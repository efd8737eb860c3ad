/**
 * @file
 * Multi-tenant GPU tests: VA-slice directory, seeded fault-storm
 * fairness under the three share policies, determinism of tenant-mix
 * sweeps across worker counts, and the tenant extensions of the cell
 * content address and JSON codecs.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/core/tenant.h"
#include "src/graph/graph_cache.h"
#include "src/mem/tenant_directory.h"
#include "src/runner/cell_spec.h"
#include "src/runner/job.h"
#include "src/runner/json_writer.h"
#include "src/runner/sweep_runner.h"
#include "src/serve/cell_json.h"
#include "src/serve/json.h"
#include "src/sim/log.h"

namespace bauvm
{
namespace
{

SimConfig
mixConfig(double ratio, SharePolicy policy, bool audit = true)
{
    SimConfig config = paperConfig(ratio, /*seed=*/1);
    config.mt.policy = policy;
    config.check.enabled = audit;
    return config;
}

std::vector<TenantSpec>
twoTenants(double quota_a = 0.5, double quota_b = 0.5)
{
    return {{"BFS-HYB", quota_a, WorkloadScale::Tiny},
            {"PR", quota_b, WorkloadScale::Tiny}};
}

// ---- tenant directory ----------------------------------------------

TEST(TenantDirectory, MapsPagesToOwnersAndRejectsOutsiders)
{
    TenantDirectory dir(SharePolicy::StrictQuota);
    dir.add({0, "A", 1, /*first_vpn=*/0, /*end_vpn=*/64, 32, 0.5, 40});
    dir.add({1, "B", 2, /*first_vpn=*/64, /*end_vpn=*/96, 16, 0.5, 20});
    EXPECT_EQ(dir.size(), 2u);
    EXPECT_EQ(dir.policy(), SharePolicy::StrictQuota);
    EXPECT_EQ(dir.tenantOf(0), 0);
    EXPECT_EQ(dir.tenantOf(63), 0);
    EXPECT_EQ(dir.tenantOf(64), 1);
    EXPECT_EQ(dir.tenantOf(95), 1);
    EXPECT_EQ(dir.tenantOf(96), kNoTenant);
    EXPECT_EQ(dir.context(1).workload, "B");
}

TEST(TenantSeed, DerivationIsStableNonZeroAndDistinct)
{
    const std::uint64_t a = deriveTenantSeed(1, 0);
    const std::uint64_t b = deriveTenantSeed(1, 1);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(a, deriveTenantSeed(1, 0)); // pure function
    EXPECT_NE(deriveTenantSeed(2, 0), a);
}

TEST(TenantSeed, SharePolicyNamesRoundTrip)
{
    for (SharePolicy p :
         {SharePolicy::FreeForAll, SharePolicy::StrictQuota,
          SharePolicy::Proportional}) {
        EXPECT_EQ(sharePolicyFromName(sharePolicyName(p)), p);
    }
    EXPECT_EQ(tenantMixLabel(twoTenants()), "BFS-HYB+PR");
}

// ---- fault-storm fairness ------------------------------------------

TEST(MultiTenant, StrictQuotasAreNeverExceeded)
{
    GraphBuildCache::Scope graph_scope;
    // Audited: the ModelAuditor's "tenant-quota" invariant panics the
    // run if a strict tenant ever holds more frames than its cap.
    const RunResult r = runTenantMix(
        mixConfig(0.4, SharePolicy::StrictQuota), twoTenants(),
        /*validate=*/true);
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.workload, "BFS-HYB+PR");
    for (const TenantResult &t : r.tenants) {
        EXPECT_GT(t.cycles, 0u);
        EXPECT_GT(t.kernels, 0u);
        EXPECT_GT(t.demand_pages, 0u);
        EXPECT_LE(t.peak_resident_pages, t.quota_pages)
            << t.workload << " exceeded its strict quota";
    }
    // Contended enough that arbitration actually happened.
    EXPECT_GT(r.evictions, 0u);
}

TEST(MultiTenant, StrictTenantsOnlyEvictThemselves)
{
    GraphBuildCache::Scope graph_scope;
    const RunResult r = runTenantMix(
        mixConfig(0.4, SharePolicy::StrictQuota), twoTenants());
    ASSERT_EQ(r.tenants.size(), 2u);
    // Under strict quotas every eviction a tenant causes removes one
    // of its own pages, so caused == suffered per tenant.
    for (const TenantResult &t : r.tenants)
        EXPECT_EQ(t.evictions_caused, t.evictions_suffered)
            << t.workload;
}

TEST(MultiTenant, ProportionalFavorsTheHeavierWeight)
{
    GraphBuildCache::Scope graph_scope;
    // Same workload twice so demand is symmetric; only the weights
    // differ. The heavier tenant must keep at least as many frames.
    const std::vector<TenantSpec> tenants = {
        {"PR", 0.75, WorkloadScale::Tiny},
        {"PR", 0.25, WorkloadScale::Tiny}};
    const RunResult r = runTenantMix(
        mixConfig(0.4, SharePolicy::Proportional), tenants);
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_GE(r.tenants[0].peak_resident_pages,
              r.tenants[1].peak_resident_pages);
    EXPECT_GE(r.tenants[1].evictions_suffered,
              r.tenants[0].evictions_suffered);
}

TEST(MultiTenant, StarvedStrictTenantStillCompletes)
{
    GraphBuildCache::Scope graph_scope;
    // A 90/10 split leaves tenant 1 a sliver of memory. Strict quotas
    // must degrade it, not deadlock it: runTenantMix panics if any
    // tenant is unfinished when the event queue drains.
    const RunResult r = runTenantMix(
        mixConfig(0.4, SharePolicy::StrictQuota),
        twoTenants(0.9, 0.1), /*validate=*/true);
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_GT(r.tenants[1].cycles, 0u);
    EXPECT_LT(r.tenants[1].quota_pages, r.tenants[0].quota_pages);
}

TEST(MultiTenant, FreeForAllMatchesTenantlessAccounting)
{
    GraphBuildCache::Scope graph_scope;
    const RunResult r = runTenantMix(
        mixConfig(0.5, SharePolicy::FreeForAll), twoTenants());
    ASSERT_EQ(r.tenants.size(), 2u);
    // Every eviction has an owner, and per-tenant demand sums into
    // the global counter (prefetches are unattributed).
    std::uint64_t suffered = 0, demand = 0;
    for (const TenantResult &t : r.tenants) {
        suffered += t.evictions_suffered;
        demand += t.demand_pages;
    }
    EXPECT_EQ(suffered, r.evictions);
    EXPECT_EQ(demand, r.demand_pages);
}

// ---- determinism ----------------------------------------------------

TEST(MultiTenant, MixRunsAreBitIdenticalAcrossRepeats)
{
    GraphBuildCache::Scope graph_scope;
    const auto run = [] {
        return runTenantMix(
            mixConfig(0.4, SharePolicy::Proportional), twoTenants());
    };
    const RunResult a = run();
    const RunResult b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.instructions, b.instructions);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].cycles, b.tenants[i].cycles);
        EXPECT_EQ(a.tenants[i].seed, b.tenants[i].seed);
        EXPECT_EQ(a.tenants[i].demand_pages,
                  b.tenants[i].demand_pages);
        EXPECT_EQ(a.tenants[i].evictions_suffered,
                  b.tenants[i].evictions_suffered);
    }
}

TEST(MultiTenant, AuditedTenantSweepIsIdenticalSerialVsSharded)
{
    GraphBuildCache::Scope graph_scope;
    const auto sweep = [](std::size_t jobs) {
        SweepSpec spec;
        spec.bench = "mt_determinism";
        spec.workloads = {"BFS-HYB+PR"}; // label only
        spec.policies = {Policy::Baseline, Policy::Ue};
        spec.opt.scale = WorkloadScale::Tiny;
        spec.opt.ratio = 0.4;
        spec.opt.jobs = jobs;
        spec.opt.audit = true;
        spec.opt.tenants = {{"BFS-HYB", 0.5, WorkloadScale::Tiny},
                            {"PR", 0.5, WorkloadScale::Tiny}};
        spec.opt.share_policy = SharePolicy::StrictQuota;
        spec.verbose = false;
        SweepRunner runner(std::move(spec));
        return runner.run();
    };
    const SweepResult serial = sweep(1);
    const SweepResult sharded = sweep(2);
    ASSERT_EQ(serial.failedCells(), 0u);
    ASSERT_EQ(sharded.failedCells(), 0u);
    ASSERT_EQ(serial.cells.size(), sharded.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const CellOutcome &a = serial.cells[i];
        const CellOutcome &b = sharded.cells[i];
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_EQ(a.result.cycles, b.result.cycles);
        ASSERT_EQ(a.result.tenants.size(), b.result.tenants.size());
        for (std::size_t t = 0; t < a.result.tenants.size(); ++t) {
            EXPECT_EQ(a.result.tenants[t].cycles,
                      b.result.tenants[t].cycles);
            EXPECT_EQ(a.result.tenants[t].slowdown,
                      b.result.tenants[t].slowdown);
            EXPECT_EQ(a.result.tenants[t].evictions_caused,
                      b.result.tenants[t].evictions_caused);
        }
    }
}

// ---- content address and codecs ------------------------------------

TEST(MultiTenant, TenantMixGetsItsOwnContentAddress)
{
    const SimConfig config = mixConfig(0.5, SharePolicy::FreeForAll,
                                       /*audit=*/false);
    const std::string solo = cellKey("BFS-HYB+PR",
                                     WorkloadScale::Tiny, config,
                                     "rev");
    const std::string mixed = cellKey("BFS-HYB+PR",
                                      WorkloadScale::Tiny, config,
                                      "rev", twoTenants());
    EXPECT_NE(solo, mixed);
    EXPECT_NE(cellKey("BFS-HYB+PR", WorkloadScale::Tiny, config,
                      "rev", twoTenants(0.75, 0.25)),
              mixed); // quotas are part of the address
    EXPECT_EQ(solo.rfind("bauvm.cell/3|", 0), 0u);
}

TEST(MultiTenant, MtPolicyIsADeclarativeKnob)
{
    SimConfig config;
    ASSERT_TRUE(applyConfigOverride(config, "mt.policy", 1.0));
    EXPECT_EQ(config.mt.policy, SharePolicy::StrictQuota);
    ASSERT_TRUE(applyConfigOverride(config, "mt.policy", 2.0));
    EXPECT_EQ(config.mt.policy, SharePolicy::Proportional);
    // ...and it is part of the canonical config string.
    const std::string canon = canonicalConfigString(config);
    EXPECT_NE(canon.find("mt.policy=2;"), std::string::npos);
}

/** "name=value;" for every kExported field of @p s, in table order,
 *  vectors expanded element by element. */
template <class S>
std::string
exportedText(const S &s)
{
    std::string out;
    forEachField(s, [&](const char *name, const auto &v, unsigned flags) {
        using T = std::remove_cvref_t<decltype(v)>;
        if (!(flags & kExported))
            return;
        if constexpr (!kSerializedApart<T>) {
            out += name;
            out += '=';
            if constexpr (kIsVector<T>) {
                for (const auto &element : v)
                    out += "{" + exportedText(element) + "}";
            } else {
                out += fieldText(v);
            }
            out += ';';
        }
    });
    return out;
}

/** Member names of the JSON object @p v, in document order. */
std::vector<std::string>
memberNames(const JsonValue &v)
{
    std::vector<std::string> names;
    for (const auto &member : v.members())
        names.push_back(member.first);
    return names;
}

TEST(MultiTenant, TenantResultsRoundTripThroughCellJson)
{
    SweepSpec spec;
    spec.workloads = {"BFS-HYB+PR"}; // label only
    spec.policies = {Policy::Baseline};
    spec.opt.scale = WorkloadScale::Tiny;
    spec.opt.ratio = 0.4;
    spec.opt.share_policy = SharePolicy::StrictQuota;
    spec.opt.tenants = twoTenants();
    spec.verbose = false;
    const CellOutcome out = SweepRunner(spec).run().cells.front();
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.result.tenants.size(), 2u);
    EXPECT_GT(out.result.tenants[0].slowdown, 0.0);
    ASSERT_FALSE(out.result.batch_records.empty());
    EXPECT_NE(out.result.event_order_digest, 0u);

    JsonWriter w(/*pretty=*/false);
    writeCellJson(w, out, /*with_batch_records=*/true);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(w.str(), &doc, &error)) << error;
    CellOutcome parsed;
    ASSERT_TRUE(parseCellOutcome(doc, &parsed, &error)) << error;

    // Every exported field of RunResult, TenantResult and BatchRecord
    // comes back exactly (doubles included: both sides print %.17g).
    EXPECT_EQ(exportedText(parsed.result), exportedText(out.result));
    ASSERT_EQ(parsed.result.tenants.size(), 2u);
    ASSERT_EQ(parsed.result.batch_records.size(),
              out.result.batch_records.size());
    auto original = out.result.batch_records.begin();
    std::size_t i = 0;
    for (const BatchRecord &b : parsed.result.batch_records)
        EXPECT_EQ(exportedText(b), exportedText(*original++))
            << "batch " << i++;
    EXPECT_EQ(parsed.result.workload, out.result.workload);
    EXPECT_EQ(parsed.result.seed, out.result.seed);

    // The literal member lists: writer and parser share the table, so
    // only this catches a misspelled name in it.
    const JsonValue *result = doc.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(memberNames(*result),
              (std::vector<std::string>{
                  "cycles", "kernels", "instructions", "footprint_bytes",
                  "capacity_pages", "batches", "avg_batch_pages",
                  "avg_batch_time", "avg_handling_time", "demand_pages",
                  "prefetched_pages", "migrations", "evictions",
                  "premature_evictions", "premature_rate",
                  "context_switches", "context_switch_cycles",
                  "pcie_h2d_bytes", "pcie_d2h_bytes", "translations",
                  "tlb_hit_rate", "faults_per_kcycle",
                  "event_order_digest", "sim_events", "host_wall_s",
                  "events_per_sec", "tenants"}));
    EXPECT_EQ(memberNames(result->find("tenants")->at(0)),
              (std::vector<std::string>{
                  "id", "workload", "seed", "cycles", "kernels",
                  "instructions", "footprint_bytes", "quota_pages",
                  "demand_pages", "evictions_caused",
                  "evictions_suffered", "peak_resident_pages",
                  "avg_lifetime_cycles", "slowdown"}));
    const JsonValue *records = doc.find("batch_records");
    ASSERT_NE(records, nullptr);
    EXPECT_EQ(records->at(0).size(), 7u);
}

// ---- API guardrails -------------------------------------------------

TEST(MultiTenant, RejectsUnsupportedConfigurations)
{
    const std::vector<TenantSpec> tenants = twoTenants();
    {
        SimConfig config = mixConfig(0.5, SharePolicy::FreeForAll,
                                     /*audit=*/false);
        config.etc.enabled = true;
        EXPECT_THROW(
            {
                ScopedAbortCapture capture;
                runTenantMix(config, tenants);
            },
            SimAbort);
    }
    {
        SimConfig config = mixConfig(0.5, SharePolicy::FreeForAll,
                                     /*audit=*/false);
        config.memory_ratio = 0.0; // unlimited: nothing to arbitrate
        EXPECT_THROW(
            {
                ScopedAbortCapture capture;
                runTenantMix(config, tenants);
            },
            SimAbort);
    }
    {
        EXPECT_THROW(
            {
                ScopedAbortCapture capture;
                runTenantMix(mixConfig(0.5, SharePolicy::FreeForAll,
                                       /*audit=*/false),
                             {});
            },
            SimAbort);
    }
}

TEST(MultiTenant, RunRefusesAQuotaThatIsNotFiniteAndNonNegative)
{
    // A NaN quota reached the share's cast to u64 and an infinite one
    // turned the share into NaN; both ran with nonsense budgets.
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(), -1.0}) {
        GpuUvmSystem system(mixConfig(0.5, SharePolicy::StrictQuota,
                                      /*audit=*/false));
        ScopedAbortCapture capture;
        try {
            system.run(twoTenants(bad, 0.5));
            ADD_FAILURE() << "quota " << bad << " must not run";
        } catch (const SimAbort &e) {
            EXPECT_NE(std::string(e.what()).find("quota"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(MultiTenant, RefusalNamesEachUnsupportedConfiguration)
{
    SimConfig c = mixConfig(0.5, SharePolicy::FreeForAll);
    c.gpu.num_sms = 2;
    EXPECT_EQ(multiTenantRefusal(c, 2), "");
    EXPECT_EQ(multiTenantRefusal(c, 3), "3 tenants need at least 3 SMs");
    c.memory_ratio = 0.0;
    EXPECT_EQ(multiTenantRefusal(c, 2),
              "multi-tenant runs need a finite memory ratio");
    c.uvm.preload = true;
    EXPECT_EQ(multiTenantRefusal(c, 2),
              "preload is not supported in multi-tenant runs");
    c.etc.enabled = true;
    EXPECT_EQ(multiTenantRefusal(c, 2),
              "ETC is not supported in multi-tenant runs");
}

TEST(MultiTenant, UnsupportedMixIsRefusedBeforeAnyCellRuns)
{
    SweepSpec spec;
    spec.workloads = {"BFS-HYB+PR"}; // label only
    spec.policies = {Policy::Baseline, Policy::Etc};
    spec.opt.scale = WorkloadScale::Tiny;
    spec.opt.tenants = twoTenants();
    SweepRunner runner(spec);
    std::size_t fired = 0;
    runner.setProgress([&](const CellOutcome &, std::size_t,
                           std::size_t) { ++fired; });
    try {
        ScopedAbortCapture capture;
        runner.run();
        ADD_FAILURE() << "an ETC tenant mix ran";
    } catch (const SimAbort &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "cell BFS-HYB+PR/ETC: ETC is not supported"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(fired, 0u);

    // The benches drop what the check would refuse, and run the rest.
    dropRefusedTenantPolicies(&spec);
    EXPECT_EQ(spec.policies, std::vector<Policy>{Policy::Baseline});
}

} // namespace
} // namespace bauvm
