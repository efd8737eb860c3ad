/**
 * @file
 * Tests for the online model auditor (src/check): seeded-mutation
 * coverage of every catalogued invariant (each illegal event sequence
 * must panic with a structured diagnostic), the zero-perturbation
 * guarantee (auditing must not change simulated results), the
 * TLB/page-table coherence edges (eviction while translated, stale
 * walk outcomes), the SimHooks/WorkloadRegistry API surface, and the
 * audited-vs-unaudited fig11 matrix at Small scale.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/check/model_auditor.h"
#include "src/check/sim_hooks.h"
#include "src/core/experiment.h"
#include "src/core/presets.h"
#include "src/core/report.h"
#include "src/core/system.h"
#include "src/graph/graph_cache.h"
#include "src/mem/memory_hierarchy.h"
#include "src/mem/page_table.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/log.h"
#include "src/trace/trace_sink.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{
namespace
{

/** Runs @p fn expecting a panic; returns the diagnostic message. */
template <typename Fn>
std::string
expectAuditPanic(Fn &&fn)
{
    ScopedAbortCapture capture;
    try {
        fn();
    } catch (const SimAbort &e) {
        EXPECT_TRUE(e.isPanic());
        return e.what();
    }
    ADD_FAILURE() << "expected the auditor to panic";
    return "";
}

/** Legal interrupt -> batch-begin preamble. */
void
beginBatch(ModelAuditor &a)
{
    a.onInterruptRaised(0);
    a.onBatchBegin(0, /*chained=*/false);
}

/** Legal in-batch migration of @p vpn: schedule, reserve, commit. */
void
migratePage(ModelAuditor &a, PageNum vpn, std::uint64_t committed_after)
{
    a.onMigrationScheduled(vpn, 0, 10, 20, 64);
    a.onFrameReserved(committed_after);
    a.onPageCommitted(vpn, 20, committed_after);
}

// ---- per-page residency state machine ------------------------------

TEST(AuditorResidency, DoubleMigrationPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    a.onMigrationScheduled(7, 0, 10, 20, 64);
    const std::string msg = expectAuditPanic([&] {
        a.onMigrationScheduled(7, 0, 20, 30, 64);
    });
    EXPECT_NE(msg.find("double migration"), std::string::npos);
    EXPECT_NE(msg.find("page-residency"), std::string::npos);
}

TEST(AuditorResidency, MigrationOfResidentPagePanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 7, 0);
    const std::string msg = expectAuditPanic([&] {
        a.onMigrationScheduled(7, 0, 30, 40, 64);
    });
    EXPECT_NE(msg.find("already resident"), std::string::npos);
}

TEST(AuditorResidency, CommitWithoutMigrationPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onPageCommitted(7, 0, 0); });
}

TEST(AuditorResidency, DoubleCommitPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 7, 0);
    const std::string msg =
        expectAuditPanic([&] { a.onPageCommitted(7, 0, 0); });
    EXPECT_NE(msg.find("double commit"), std::string::npos);
}

TEST(AuditorResidency, EvictionOfNonResidentPagePanics)
{
    ModelAuditor a(UvmConfig{});
    const std::string msg =
        expectAuditPanic([&] { a.onEvictionBegin(5, 0, 0); });
    EXPECT_NE(msg.find("non-resident victim"), std::string::npos);
}

TEST(AuditorResidency, DoubleEvictionPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 5, 0);
    a.onEvictionBegin(5, 0, 0);
    const std::string msg =
        expectAuditPanic([&] { a.onEvictionBegin(5, 0, 0); });
    EXPECT_NE(msg.find("double eviction"), std::string::npos);
}

TEST(AuditorResidency, EvictionCompleteWithoutBeginPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onEvictionComplete(5, 0); });
}

TEST(AuditorResidency, PreloadOfInFlightPagePanics)
{
    ModelAuditor a(UvmConfig{});
    a.onPreload(5);
    expectAuditPanic([&] { a.onPreload(5); });
}

// ---- GPU-memory occupancy conservation -----------------------------

TEST(AuditorOccupancy, ManagerCounterMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onCapacitySet(10);
    // Shadow expects 1 committed frame; the "manager" reports 2.
    const std::string msg =
        expectAuditPanic([&] { a.onFrameReserved(2); });
    EXPECT_NE(msg.find("occupancy-conservation"), std::string::npos);
}

TEST(AuditorOccupancy, ReservationBeyondCapacityPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onCapacitySet(1);
    a.onFrameReserved(1);
    expectAuditPanic([&] { a.onFrameReserved(2); });
}

TEST(AuditorOccupancy, CapacityShrinkBelowCommittedPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onCapacitySet(4);
    a.onFrameReserved(1);
    a.onFrameReserved(2);
    expectAuditPanic([&] { a.onCapacitySet(1); });
}

TEST(AuditorOccupancy, UnlimitedModeNeverCounts)
{
    // Capacity 0 = unlimited: the manager never increments its status
    // tracker, and neither must the shadow.
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 1, 0);
    migratePage(a, 2, 0);
    EXPECT_EQ(a.shadowCommitted(), 0u);
    EXPECT_EQ(a.shadowResident(), 2u);
}

// ---- batch lifecycle -----------------------------------------------

TEST(AuditorBatch, BatchBeginWithoutInterruptPanics)
{
    ModelAuditor a(UvmConfig{});
    const std::string msg = expectAuditPanic([&] {
        a.onBatchBegin(0, /*chained=*/false);
    });
    EXPECT_NE(msg.find("batch-lifecycle"), std::string::npos);
    EXPECT_NE(msg.find("no interrupt round trip"), std::string::npos);
}

TEST(AuditorBatch, ChainedBatchBeginFromInterruptPanics)
{
    // A chained batch skips the interrupt; seeing one while an
    // interrupt is pending means the runtime lost a round trip.
    ModelAuditor a(UvmConfig{});
    a.onInterruptRaised(0);
    expectAuditPanic([&] { a.onBatchBegin(0, /*chained=*/true); });
}

TEST(AuditorBatch, InterruptWhileBusyPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onInterruptRaised(0);
    expectAuditPanic([&] { a.onInterruptRaised(1); });
}

TEST(AuditorBatch, BatchEndWhileIdlePanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onBatchEnd(0, 0, 0); });
}

TEST(AuditorBatch, PreemptiveEvictionAfterMigrationPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    a.onMigrationScheduled(3, 0, 10, 20, 64);
    const std::string msg =
        expectAuditPanic([&] { a.onPreemptiveEviction(1); });
    EXPECT_NE(msg.find("top-half"), std::string::npos);
}

TEST(AuditorBatch, PreemptiveEvictionOutsideBatchPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onPreemptiveEviction(0); });
}

TEST(AuditorBatch, MigrationOutsideBatchPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] {
        a.onMigrationScheduled(3, 0, 10, 20, 64);
    });
}

TEST(AuditorBatch, PageCountMismatchAtBatchEndPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 3, 0);
    const std::string msg = expectAuditPanic([&] {
        a.onBatchEnd(0, /*fault_pages=*/2, /*prefetch_pages=*/0);
    });
    EXPECT_NE(msg.find("demand+prefetch"), std::string::npos);
}

TEST(AuditorBatch, ChainedBatchIsLegal)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 3, 0);
    a.onBatchEnd(0, 1, 0);
    a.onBatchBegin(0, /*chained=*/true); // no interrupt round trip
    migratePage(a, 4, 0);
    a.onBatchEnd(0, 1, 0);
    EXPECT_EQ(a.shadowResident(), 2u);
}

// ---- fault-buffer accounting ---------------------------------------

TEST(AuditorFaultBuffer, SizeMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    // Shadow inserts the fault; the "hardware" reports an empty buffer.
    const std::string msg = expectAuditPanic([&] {
        a.onFaultBuffered(9, 0, /*observed_entries=*/0,
                          /*observed_overflow=*/0);
    });
    EXPECT_NE(msg.find("fault-buffer-accounting"), std::string::npos);
}

TEST(AuditorFaultBuffer, DrainCountMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onFaultBuffered(9, 0, 1, 0);
    expectAuditPanic([&] { a.onFaultDrained(0, 0, 0); });
}

TEST(AuditorFaultBuffer, OverflowReplicaTracksRefill)
{
    UvmConfig config;
    config.fault_buffer_entries = 2;
    ModelAuditor a(config);
    a.onFaultBuffered(1, 0, 1, 0);
    a.onFaultBuffered(2, 0, 2, 0);
    a.onFaultBuffered(3, 0, 2, 1); // overflows
    a.onFaultBuffered(3, 0, 2, 1); // merges inside the overflow queue
    a.onFaultDrained(2, 1, 0);     // drain refills vpn 3 from overflow
    a.onFaultDrained(1, 0, 0);
}

// ---- PCIe conservation ---------------------------------------------

TEST(AuditorPcie, NonMonotonicChannelStartPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onPcieTransfer(/*h2d=*/true, 64, 10, 20);
    const std::string msg = expectAuditPanic([&] {
        a.onPcieTransfer(true, 64, 5, 15);
    });
    EXPECT_NE(msg.find("FIFO"), std::string::npos);
}

TEST(AuditorPcie, ChannelsAreIndependentlyMonotonic)
{
    ModelAuditor a(UvmConfig{});
    a.onPcieTransfer(true, 64, 100, 110);
    a.onPcieTransfer(false, 64, 10, 20); // D2H has its own FIFO order
    a.onPcieTransfer(true, 64, 100, 105); // equal begin is legal
}

TEST(AuditorPcie, EmptyTransferWindowPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onPcieTransfer(true, 64, 10, 10); });
}

TEST(AuditorPcie, MigrationWindowBeforeSchedulePanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    expectAuditPanic([&] {
        a.onMigrationScheduled(3, /*now=*/50, /*wire_begin=*/40,
                               /*wire_end=*/60, 64);
    });
}

// ---- TLB / page-table coherence ------------------------------------

TEST(AuditorTlb, HitForNonResidentPagePanics)
{
    ModelAuditor a(UvmConfig{});
    const std::string msg =
        expectAuditPanic([&] { a.onTranslationHit(7); });
    EXPECT_NE(msg.find("tlb-coherence"), std::string::npos);
}

TEST(AuditorTlb, InsertForNonResidentPagePanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onTranslationInsert(7); });
}

TEST(AuditorTlb, WalkOutcomeDivergencePanics)
{
    ModelAuditor a(UvmConfig{});
    // Shadow says host-resident; the walker claims a translation.
    expectAuditPanic([&] {
        a.onWalkResolved(7, 0, /*observed_fault=*/false);
    });
}

TEST(AuditorTlb, InvalidateClearsCachedTranslations)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 7, 0);
    a.onTranslationInsert(7);
    EXPECT_TRUE(a.translationCached(7));
    a.onTranslationInvalidate(7);
    EXPECT_FALSE(a.translationCached(7));
}

// ---- finalize conservation -----------------------------------------

TEST(AuditorFinalize, LeakedInFlightTransferPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onPreload(3); // in flight H2D, never committed
    RunResult r;
    const std::string msg =
        expectAuditPanic([&] { a.finalize(r, 0, 0); });
    EXPECT_NE(msg.find("in flight H2D"), std::string::npos);
}

TEST(AuditorFinalize, ResidentCountMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    RunResult r;
    expectAuditPanic([&] { a.finalize(r, 0, /*resident=*/3); });
}

TEST(AuditorFinalize, RunResultMigrationMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    RunResult r;
    r.migrations = 1; // shadow saw none
    expectAuditPanic([&] { a.finalize(r, 0, 0); });
}

TEST(AuditorFinalize, PcieByteMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    RunResult r;
    r.pcie_h2d_bytes = 64; // nothing crossed the shadow link
    const std::string msg =
        expectAuditPanic([&] { a.finalize(r, 0, 0); });
    EXPECT_NE(msg.find("pcie-conservation"), std::string::npos);
}

TEST(AuditorFinalize, ModelSequencePassesEndToEnd)
{
    ModelAuditor a(UvmConfig{});
    a.setContext("unit");
    a.onCapacitySet(4);

    // Batch 1: fault on page 1, migrate it.
    a.onFaultBuffered(1, 0, 1, 0);
    a.onInterruptRaised(0);
    a.onBatchBegin(1, false);
    a.onFaultDrained(1, 0, 0);
    a.onMigrationScheduled(1, 1, 10, 20, 64);
    a.onPcieTransfer(true, 64, 10, 20);
    a.onFrameReserved(1);
    a.onPageCommitted(1, 20, 1);
    a.onBatchEnd(20, 1, 0);

    // The page is translated, then evicted (shootdown included).
    a.onWalkResolved(1, 21, false);
    a.onTranslationInsert(1);
    a.onTranslationHit(1);
    a.onEvictionBegin(1, 30, 1);
    a.onTranslationInvalidate(1);
    a.onEvictionTransfer(1, 30, 40, 64);
    a.onPcieTransfer(false, 64, 30, 40);
    a.onEvictionComplete(1, 0);

    // Batch 2: page 2 faults and stays resident.
    a.onFaultBuffered(2, 50, 1, 0);
    a.onInterruptRaised(50);
    a.onBatchBegin(51, false);
    a.onPreemptiveEviction(51); // legal: before any migration
    a.onFaultDrained(1, 0, 0);
    a.onMigrationScheduled(2, 51, 60, 70, 64);
    a.onPcieTransfer(true, 64, 60, 70);
    a.onFrameReserved(1);
    a.onPageCommitted(2, 70, 1);
    a.onBatchEnd(70, 1, 0);

    RunResult r;
    r.migrations = 2;
    r.evictions = 1;
    r.batches = 2;
    r.pcie_h2d_bytes = 128;
    r.pcie_d2h_bytes = 64;
    a.finalize(r, /*committed=*/1, /*resident=*/1);

    EXPECT_GT(a.checksPerformed(), 0u);
    EXPECT_EQ(a.shadowResident(), 1u);
    EXPECT_EQ(a.shadowCommitted(), 1u);
}

// ---- diagnostics ---------------------------------------------------

TEST(AuditorDiagnostics, ViolationReportsStructuredFields)
{
    ModelAuditor a(UvmConfig{});
    a.setContext("BFS-TWC/TO+UE");
    const std::string msg =
        expectAuditPanic([&] { a.onEvictionBegin(42, 0, 0); });
    EXPECT_NE(msg.find("invariant"), std::string::npos);
    EXPECT_NE(msg.find("cell:     BFS-TWC/TO+UE"), std::string::npos);
    EXPECT_NE(msg.find("cycle:"), std::string::npos);
    EXPECT_NE(msg.find("page:     42"), std::string::npos);
    EXPECT_NE(msg.find("expected:"), std::string::npos);
    EXPECT_NE(msg.find("observed:"), std::string::npos);
}

TEST(AuditorDiagnostics, ViolationAppendsTraceTailWhenTracing)
{
    TraceSink trace(8);
    trace.instant(TraceEventType::PageFault, traceTrackSm(0), 5, 42);
    ModelAuditor a(UvmConfig{}, nullptr, &trace);
    const std::string msg =
        expectAuditPanic([&] { a.onEvictionBegin(42, 0, 0); });
    EXPECT_NE(msg.find("trace tail"), std::string::npos);
    EXPECT_NE(msg.find("page_fault"), std::string::npos);
}

// ---- MemoryHierarchy coherence edges (hooked integration) ----------

/** Makes @p vpn shadow-resident without batch machinery. */
void
shadowResident(ModelAuditor &a, PageNum vpn)
{
    a.onPreload(vpn);
    a.onFrameReserved(0);
    a.onPageCommitted(vpn, 0, 0);
}

TEST(HierarchyAudit, EvictionShootdownKeepsCoherence)
{
    const std::uint64_t page_bytes = 64 * 1024;
    PageTable pt;
    ModelAuditor a(UvmConfig{});
    MemoryHierarchy mh(MemConfig{}, 1, page_bytes, pt,
                       SimHooks{nullptr, &a, nullptr});

    shadowResident(a, 3);
    pt.map(3, 0);
    EXPECT_FALSE(mh.access(0, 3 * page_bytes, false, 0).fault);
    EXPECT_FALSE(mh.access(0, 3 * page_bytes, false, 100).fault);

    // Proper eviction: unmap, then shoot the TLBs down.
    a.onEvictionBegin(3, 200, 0);
    pt.unmap(3);
    mh.invalidatePage(3);
    a.onEvictionTransfer(3, 200, 210, 64);
    a.onEvictionComplete(3, 0);

    // The next access walks and faults; the auditor must agree.
    EXPECT_TRUE(mh.access(0, 3 * page_bytes, false, 300).fault);
}

TEST(HierarchyAudit, MissedShootdownAfterEvictionPanics)
{
    // Eviction-while-translated mutation: the page is unmapped but the
    // TLB shootdown is "forgotten". The stale L1 TLB entry then serves
    // a translation for a non-resident page, which the auditor catches.
    const std::uint64_t page_bytes = 64 * 1024;
    PageTable pt;
    ModelAuditor a(UvmConfig{});
    MemoryHierarchy mh(MemConfig{}, 1, page_bytes, pt,
                       SimHooks{nullptr, &a, nullptr});

    shadowResident(a, 3);
    pt.map(3, 0);
    EXPECT_FALSE(mh.access(0, 3 * page_bytes, false, 0).fault);

    a.onEvictionBegin(3, 100, 0);
    pt.unmap(3);
    // BUG under test: no mh.invalidatePage(3).

    const std::string msg = expectAuditPanic([&] {
        mh.access(0, 3 * page_bytes, false, 200);
    });
    EXPECT_NE(msg.find("stale translation"), std::string::npos);
}

TEST(HierarchyAudit, StaleWalkDuringEvictionPanics)
{
    // Invalidate-during-walk mutation: the page table loses the
    // mapping while the shadow still believes the page is resident, so
    // the walk resolves a fault the model says cannot happen.
    const std::uint64_t page_bytes = 64 * 1024;
    PageTable pt;
    ModelAuditor a(UvmConfig{});
    MemoryHierarchy mh(MemConfig{}, 1, page_bytes, pt,
                       SimHooks{nullptr, &a, nullptr});

    shadowResident(a, 3); // shadow resident, page table never mapped
    const std::string msg = expectAuditPanic([&] {
        mh.access(0, 3 * page_bytes, false, 0);
    });
    EXPECT_NE(msg.find("tlb-coherence"), std::string::npos);
}

// ---- system wiring -------------------------------------------------

TEST(SystemAudit, AuditorIsOwnedWhenEnabled)
{
    SimConfig config = paperConfig(0.5);
    EXPECT_EQ(GpuUvmSystem(config).audit(), nullptr);
    config.check.enabled = true;
    GpuUvmSystem system(config);
    ASSERT_NE(system.audit(), nullptr);
    // A violation injected into the system-owned auditor panics the
    // same way any simulation abort does (ScopedAbortCapture-friendly).
    ScopedAbortCapture capture;
    EXPECT_THROW(system.audit()->onEvictionBegin(1, 0, 0), SimAbort);
}

/**
 * Observers never change the simulation: every observer set — none,
 * trace, audit, both — runs one single-tenant and one two-tenant cell
 * to the same event order. The golden digests pin that order, so a
 * change that moves all four rows together still fails here.
 */
TEST(SystemAudit, AuditingDoesNotPerturbSimulatedResults)
{
    struct Cell {
        const char *name;
        std::vector<TenantSpec> tenants; //!< empty: single BFS-TWC
        std::uint64_t digest;
        Cycle cycles;
        std::uint64_t events;
    };
    const Cell cells[] = {
        {"BFS-TWC", {}, 0x5b9fb3ab8aece239ull, 814391, 44154},
        {"BFS-HYB+PR",
         {{"BFS-HYB", 0.5, WorkloadScale::Tiny},
          {"PR", 0.5, WorkloadScale::Tiny}},
         0xe724c7a4e292f988ull, 707553, 129784},
    };
    const struct {
        const char *name;
        bool trace, audit;
    } observers[] = {{"none", false, false},
                     {"trace", true, false},
                     {"audit", false, true},
                     {"trace+audit", true, true}};

    for (const Cell &cell : cells) {
        std::vector<RunResult> rows;
        for (const auto &obs : observers) {
            SCOPED_TRACE(std::string(cell.name) + " / " + obs.name);
            SimConfig config =
                applyPolicy(paperConfig(0.5), Policy::ToUe);
            config.trace.enabled = obs.trace;
            config.check.enabled = obs.audit;
            GpuUvmSystem system(config);
            if (cell.tenants.empty()) {
                auto workload =
                    WorkloadRegistry::instance().create(cell.name);
                rows.push_back(system.run(*workload, WorkloadScale::Tiny));
            } else {
                rows.push_back(system.run(cell.tenants));
            }
            EXPECT_EQ(system.trace() != nullptr, obs.trace);
            EXPECT_EQ(system.audit() != nullptr, obs.audit);

            const RunResult &r = rows.back();
            EXPECT_EQ(r.event_order_digest, cell.digest)
                << std::hex << r.event_order_digest;
            EXPECT_EQ(r.cycles, cell.cycles);
            EXPECT_EQ(r.sim_events, cell.events);
            const RunResult &none = rows.front();
            EXPECT_EQ(none.batches, r.batches);
            EXPECT_EQ(none.migrations, r.migrations);
            EXPECT_EQ(none.evictions, r.evictions);
            EXPECT_EQ(none.instructions, r.instructions);
            EXPECT_EQ(none.context_switches, r.context_switches);
            EXPECT_EQ(none.pcie_h2d_bytes, r.pcie_h2d_bytes);
            EXPECT_EQ(none.pcie_d2h_bytes, r.pcie_d2h_bytes);
        }
    }
}

// ---- bench plumbing ------------------------------------------------

TEST(BenchArgsAudit, AuditFlagParses)
{
    const char *argv[] = {"prog", "--audit"};
    const BenchOptions opt =
        parseBenchArgs(2, const_cast<char **>(argv));
    EXPECT_TRUE(opt.audit);
    const char *none[] = {"prog"};
    EXPECT_FALSE(parseBenchArgs(1, const_cast<char **>(none)).audit);
}

TEST(BenchArgsAudit, UnknownFlagPrintsUsageAndFails)
{
    const char *argv[] = {"prog", "--no-such-flag"};
    testing::internal::CaptureStderr();
    {
        ScopedAbortCapture capture;
        try {
            parseBenchArgs(2, const_cast<char **>(argv));
            ADD_FAILURE() << "unknown flag must not parse";
        } catch (const SimAbort &e) {
            EXPECT_FALSE(e.isPanic()); // fatal(): exits non-zero
            EXPECT_NE(std::string(e.what()).find("--no-such-flag"),
                      std::string::npos);
        }
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("options:"), std::string::npos);
    EXPECT_NE(err.find("--audit"), std::string::npos);
}

// ---- workload registry ---------------------------------------------

TEST(WorkloadRegistryApi, EnumerationIsKindPartitioned)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    // Fig 11 registration order for the paper's irregular suite.
    const std::vector<std::string> irregular =
        reg.enumerate(WorkloadKind::Irregular);
    ASSERT_FALSE(irregular.empty());
    EXPECT_EQ(irregular.front(), "BC");
    const std::vector<std::string> regular =
        reg.enumerate(WorkloadKind::Regular);
    ASSERT_FALSE(regular.empty());
    const std::vector<std::string> frontier = {"BFS-HYB", "CC", "TC",
                                               "KTRUSS"};
    EXPECT_EQ(reg.enumerate(WorkloadKind::Frontier), frontier);
    EXPECT_EQ(reg.enumerate().size(), irregular.size() +
                                          regular.size() +
                                          frontier.size());
}

TEST(WorkloadRegistryApi, CreateProducesTheNamedWorkload)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    for (const auto &name : reg.enumerate()) {
        ASSERT_TRUE(reg.contains(name));
        EXPECT_EQ(reg.create(name)->name(), name);
    }
    EXPECT_FALSE(reg.contains("NOPE"));
}

TEST(WorkloadRegistryApi, UnknownNameFailsListingKnownNames)
{
    ScopedAbortCapture capture;
    try {
        WorkloadRegistry::instance().create("NOPE");
        ADD_FAILURE() << "unknown workload must not instantiate";
    } catch (const SimAbort &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("NOPE"), std::string::npos);
        EXPECT_NE(msg.find("BFS-TWC"), std::string::npos);
        // Known names carry their family tag for discoverability.
        EXPECT_NE(msg.find("(irregular)"), std::string::npos);
        EXPECT_NE(msg.find("(regular)"), std::string::npos);
        EXPECT_NE(msg.find("(frontier)"), std::string::npos);
        EXPECT_NE(msg.find("BFS-HYB"), std::string::npos);
    }
}

// ---- audited fig11 matrix ------------------------------------------

/** Renders the fig11 stdout (table + means) from a sweep result,
 *  mirroring bench/fig11_speedup.cc. */
std::string
fig11Text(const SweepResult &sweep,
          const std::vector<std::string> &workloads,
          const std::vector<Policy> &policies)
{
    std::vector<std::string> headers = {"workload"};
    for (Policy p : policies)
        headers.push_back(policyName(p));
    Table t(headers);
    std::map<Policy, std::vector<double>> speedups;
    for (const auto &w : workloads) {
        const CellOutcome *base = sweep.find(w, Policy::Baseline);
        if (!base || !base->ok)
            continue;
        const double base_cycles =
            static_cast<double>(base->result.cycles);
        std::vector<std::string> row = {w};
        for (Policy p : policies) {
            const CellOutcome *cell = sweep.find(w, p);
            if (!cell || !cell->ok) {
                row.push_back("FAIL");
                continue;
            }
            const double s =
                base_cycles / static_cast<double>(cell->result.cycles);
            speedups[p].push_back(s);
            row.push_back(Table::num(s, 2));
        }
        t.addRow(row);
    }
    std::vector<std::string> avg = {"AVERAGE"};
    for (Policy p : policies)
        avg.push_back(Table::num(amean(speedups[p]), 2));
    t.addRow(avg);
    std::vector<std::string> gmean = {"GEOMEAN"};
    for (Policy p : policies)
        gmean.push_back(Table::num(geomean(speedups[p]), 2));
    t.addRow(gmean);
    return t.toText();
}

TEST(Fig11Audit, AuditedMatrixPrintsByteIdenticalOutput)
{
    // The full fig11 matrix at Tiny scale, audited vs unaudited: the
    // printed figure must be byte-identical and every audited cell must
    // succeed. (CI's audit smoke step runs the same comparison on the
    // Small matrix.)
    GraphBuildCache::Scope graph_scope; // share builds across sweeps

    auto runSweep = [](bool audited) {
        SweepSpec spec;
        spec.bench = "fig11_audit_test";
        spec.workloads = WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular);
        spec.policies = allPolicies();
        spec.opt.scale = WorkloadScale::Tiny;
        spec.opt.audit = audited;
        spec.verbose = false;
        SweepRunner runner(std::move(spec));
        return runner.run();
    };

    const SweepResult plain = runSweep(false);
    const SweepResult audited = runSweep(true);
    ASSERT_EQ(plain.failedCells(), 0u);
    ASSERT_EQ(audited.failedCells(), 0u);

    const std::string plain_text =
        fig11Text(plain, WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular), allPolicies());
    const std::string audited_text =
        fig11Text(audited, WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular), allPolicies());
    EXPECT_EQ(plain_text, audited_text);
}

} // namespace
} // namespace bauvm
