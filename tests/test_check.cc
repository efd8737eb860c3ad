/**
 * @file
 * Tests for the online model auditor (src/check): seeded-mutation
 * coverage of every catalogued invariant (each illegal event sequence
 * must panic with a structured diagnostic), the zero-perturbation
 * guarantee (auditing must not change simulated results), the
 * TLB/page-table coherence edges (eviction while translated, stale
 * walk outcomes), the SimHooks/WorkloadRegistry API surface, the
 * audited-vs-unaudited fig11 matrix at Tiny scale, and the golden
 * tables pinning the fig11, frontier-family and two-tenant mix cells.
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
#include "src/core/tenant.h"
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

TEST(BenchArgsAudit, RatioMustBeFiniteAndNonNegative)
{
    // 0 means unlimited memory. A negative or non-finite ratio means
    // nothing and must not silently run as unlimited memory.
    const char *zero[] = {"prog", "--ratio", "0"};
    EXPECT_EQ(parseBenchArgs(3, const_cast<char **>(zero)).ratio, 0.0);
    const char *half[] = {"prog", "--ratio", "0.5"};
    EXPECT_EQ(parseBenchArgs(3, const_cast<char **>(half)).ratio, 0.5);
    for (const char *bad : {"-0.5", "nan", "inf", "-inf"}) {
        const char *argv[] = {"prog", "--ratio", bad};
        ScopedAbortCapture capture;
        try {
            parseBenchArgs(3, const_cast<char **>(argv));
            ADD_FAILURE() << "--ratio " << bad << " must not parse";
        } catch (const SimAbort &e) {
            EXPECT_FALSE(e.isPanic()) << bad;
            EXPECT_NE(std::string(e.what()).find("--ratio"),
                      std::string::npos);
        }
    }
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

/** One Fig 11 Tiny cell's pinned simulation. */
struct Fig11GoldenCell {
    const char *workload;
    const char *policy; //!< as policyName() prints it
    std::uint64_t digest;
    Cycle cycles;
    std::uint64_t events;
};

/**
 * Every cell of the Fig 11 Tiny matrix (11 irregular workloads x 6
 * policies, default seed and ratio): event_order_digest, cycles and
 * sim_events, recorded from the simulator before the table existed.
 * A change that moves every cell together cannot pass the audited-vs-
 * plain comparison alone; it fails here. Never re-record a row to make
 * a change pass: a row changes only with a deliberate model change
 * that EXPERIMENTS.md documents.
 */
const Fig11GoldenCell kFig11TinyGolden[] = {
    {"BC", "BASELINE", 0xc4cfcc1088e9e593ull, 17846618, 80165},
    {"BC", "BASELINE+PCIeC", 0xcf901274fea333cfull, 13996905, 80165},
    {"BC", "TO", 0x017aff23c723560cull, 17008089, 87119},
    {"BC", "UE", 0xd58a746b9e759d6eull, 7929120, 83541},
    {"BC", "TO+UE", 0xc94baca4da5d681eull, 7929425, 84673},
    {"BC", "ETC", 0x0734eef83e98f3c3ull, 752055, 93508},
    {"BFS-DWC", "BASELINE", 0x1907a5ca40442829ull, 1278742, 31757},
    {"BFS-DWC", "BASELINE+PCIeC", 0xad73fa5f20328690ull, 980453, 31757},
    {"BFS-DWC", "TO", 0x0a5fb35f897e7934ull, 1205466, 33255},
    {"BFS-DWC", "UE", 0xf743de8d0873618full, 446494, 30680},
    {"BFS-DWC", "TO+UE", 0x755ff1aae0c7e9a7ull, 544544, 32291},
    {"BFS-DWC", "ETC", 0xbc4099d6e2975c89ull, 673093, 33052},
    {"BFS-TA", "BASELINE", 0x93ef7b93b40d770aull, 15899063, 31726},
    {"BFS-TA", "BASELINE+PCIeC", 0x775402a42f44dfefull, 16901436, 32361},
    {"BFS-TA", "TO", 0x93ef7b93b40d770aull, 15899063, 31726},
    {"BFS-TA", "UE", 0x3b86df4d4d03d879ull, 14315388, 34595},
    {"BFS-TA", "TO+UE", 0x3b86df4d4d03d879ull, 14315388, 34595},
    {"BFS-TA", "ETC", 0x413c4b39b3a9b57dull, 1220864, 29710},
    {"BFS-TF", "BASELINE", 0xef7806ff266979a6ull, 42928869, 52710},
    {"BFS-TF", "BASELINE+PCIeC", 0xa3ec596e2ffbb44aull, 36859612, 53293},
    {"BFS-TF", "TO", 0xef7806ff266979a6ull, 42928869, 52710},
    {"BFS-TF", "UE", 0x4f87848eb12ab2d2ull, 10761284, 49315},
    {"BFS-TF", "TO+UE", 0x4f87848eb12ab2d2ull, 10761284, 49315},
    {"BFS-TF", "ETC", 0x39a4ed7c6cfb9289ull, 6409643, 50742},
    {"BFS-TTC", "BASELINE", 0x23b8c8eba591f374ull, 28393301, 33239},
    {"BFS-TTC", "BASELINE+PCIeC", 0xc1d34bc1cdbd9ab0ull, 23776149, 33491},
    {"BFS-TTC", "TO", 0x23b8c8eba591f374ull, 28393301, 33239},
    {"BFS-TTC", "UE", 0xc72b4394729e93b7ull, 14163911, 33769},
    {"BFS-TTC", "TO+UE", 0xc72b4394729e93b7ull, 14163911, 33769},
    {"BFS-TTC", "ETC", 0x0ef54afeb708b4acull, 1244550, 29083},
    {"BFS-TWC", "BASELINE", 0xaea7adfbb159580cull, 831303, 40142},
    {"BFS-TWC", "BASELINE+PCIeC", 0x9b1842bd00e27a5dull, 903487, 40108},
    {"BFS-TWC", "TO", 0x8fd9eca625ed8c0bull, 834061, 40940},
    {"BFS-TWC", "UE", 0x92b05e01c9c55c59ull, 810051, 38357},
    {"BFS-TWC", "TO+UE", 0xa6a7d6e9bd1725cfull, 812209, 39334},
    {"BFS-TWC", "ETC", 0xaa209ab98a925d67ull, 423349, 41812},
    {"GC-DTC", "BASELINE", 0x588ccc99dec9da2bull, 96015054, 343803},
    {"GC-DTC", "BASELINE+PCIeC", 0x8aa1ac9b52e9b6a4ull, 88187247, 345032},
    {"GC-DTC", "TO", 0x588ccc99dec9da2bull, 96015054, 343803},
    {"GC-DTC", "UE", 0xe54243b51e73d7c2ull, 962117263, 743716},
    {"GC-DTC", "TO+UE", 0xe54243b51e73d7c2ull, 962117263, 743716},
    {"GC-DTC", "ETC", 0x05b8e3f07e68119aull, 8055703, 330890},
    {"GC-TTC", "BASELINE", 0x8bbe10a6232a3f0eull, 231275454, 354452},
    {"GC-TTC", "BASELINE+PCIeC", 0x2ef9801ef5231f6cull, 208297194, 357203},
    {"GC-TTC", "TO", 0x8bbe10a6232a3f0eull, 231275454, 354452},
    {"GC-TTC", "UE", 0x1bbf56c667df4b5aull, 1027883851, 761341},
    {"GC-TTC", "TO+UE", 0x1bbf56c667df4b5aull, 1027883851, 761341},
    {"GC-TTC", "ETC", 0x48891046c2d80567ull, 11767888, 322181},
    {"KCORE", "BASELINE", 0x8c1144f2a747ab2aull, 64494426, 164591},
    {"KCORE", "BASELINE+PCIeC", 0xe0204cd25f68b7d8ull, 53386513, 164611},
    {"KCORE", "TO", 0x8c1144f2a747ab2aull, 64494426, 164591},
    {"KCORE", "UE", 0x8d2a50788e6df636ull, 20445137, 161587},
    {"KCORE", "TO+UE", 0x8d2a50788e6df636ull, 20445137, 161587},
    {"KCORE", "ETC", 0x83cdce4d27ee66e3ull, 2561386, 153746},
    {"SSSP-TWC", "BASELINE", 0x44a4df701e382582ull, 9635390, 80326},
    {"SSSP-TWC", "BASELINE+PCIeC", 0xbfe2b7ab2db174e3ull, 7315763, 80326},
    {"SSSP-TWC", "TO", 0x5ac8dd4b4df5f985ull, 9005385, 90028},
    {"SSSP-TWC", "UE", 0xf951e74d6817c14full, 7436460, 75754},
    {"SSSP-TWC", "TO+UE", 0x2354fd94de68eb88ull, 7237847, 85864},
    {"SSSP-TWC", "ETC", 0x89eabda38fadb0f2ull, 1866331, 86787},
    {"PR", "BASELINE", 0x76d50a0665757593ull, 1860404, 107974},
    {"PR", "BASELINE+PCIeC", 0xcda97429e9fe0fd9ull, 1521779, 108262},
    {"PR", "TO", 0x8edb90ab9adc3d74ull, 1710479, 110755},
    {"PR", "UE", 0x982d93b82ee5ec50ull, 1183329, 100304},
    {"PR", "TO+UE", 0xe97c89ed93dbc9c8ull, 1290229, 99755},
    {"PR", "ETC", 0xa1692ca795ef1bc9ull, 520574, 116017},
};

TEST(Fig11Audit, AuditedMatrixPrintsByteIdenticalOutput)
{
    // The full fig11 matrix at Tiny scale, audited vs unaudited: the
    // printed figure must be byte-identical, every audited cell must
    // succeed, and both sweeps must match the golden table cell for
    // cell. (CI's audit smoke step runs the same comparison on the
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

    for (const SweepResult *sweep : {&plain, &audited}) {
        SCOPED_TRACE(sweep == &plain ? "plain" : "audited");
        ASSERT_EQ(sweep->cells.size(), std::size(kFig11TinyGolden));
        for (const Fig11GoldenCell &g : kFig11TinyGolden) {
            SCOPED_TRACE(std::string(g.workload) + " / " + g.policy);
            const CellOutcome *cell =
                sweep->find(g.workload, policyFromName(g.policy));
            ASSERT_NE(cell, nullptr);
            EXPECT_EQ(cell->result.event_order_digest, g.digest)
                << std::hex << cell->result.event_order_digest;
            EXPECT_EQ(cell->result.cycles, g.cycles);
            EXPECT_EQ(cell->result.sim_events, g.events);
        }
    }
}

/** One frontier-family Tiny cell's pinned simulation. */
struct FrontierGoldenCell {
    const char *workload;
    const char *policy; //!< as policyName() prints it
    std::uint64_t digest;
    Cycle cycles;
    std::uint64_t events;
    std::uint64_t footprint_bytes;
};

/**
 * The frontier family (BFS-HYB, CC, TC, KTRUSS) x 6 policies at Tiny,
 * default seed and ratio: event_order_digest, cycles, sim_events and
 * footprint_bytes. Fig 11's table covers none of these workloads; this
 * one pins their CSR and forward-adjacency layouts (footprint) and the
 * simulated order over them. Same rule as kFig11TinyGolden: never
 * re-record a row to make a change pass.
 */
const FrontierGoldenCell kFrontierTinyGolden[] = {
    {"BFS-HYB", "BASELINE", 0xc6d6999c8a79208cull, 1572507, 13642, 851968},
    {"BFS-HYB", "BASELINE+PCIeC",
     0xcd08f6c690a9ecc0ull, 1312405, 13642, 851968},
    {"BFS-HYB", "TO", 0xc6d6999c8a79208cull, 1572507, 13642, 851968},
    {"BFS-HYB", "UE", 0xbd8d7ffcca577ca4ull, 942562, 13492, 851968},
    {"BFS-HYB", "TO+UE", 0xbd8d7ffcca577ca4ull, 942562, 13492, 851968},
    {"BFS-HYB", "ETC", 0x8fb8d955f1cfba56ull, 590817, 13520, 851968},
    {"CC", "BASELINE", 0xce8cadb2f8c5bedaull, 41297314, 86782, 917504},
    {"CC", "BASELINE+PCIeC", 0x59516309a823fadbull, 32021485, 86648, 917504},
    {"CC", "TO", 0xce8cadb2f8c5bedaull, 41297314, 86782, 917504},
    {"CC", "UE", 0xfd470e5738c75841ull, 22339768, 85231, 917504},
    {"CC", "TO+UE", 0xfd470e5738c75841ull, 22339768, 85231, 917504},
    {"CC", "ETC", 0x20a4394e3425361full, 9974680, 92446, 917504},
    {"TC", "BASELINE", 0xfb543afd8bd0797bull, 102534, 123056, 983040},
    {"TC", "BASELINE+PCIeC", 0xea40433dbc55d931ull, 92751, 122806, 983040},
    {"TC", "TO", 0xc01d44128457c964ull, 104227, 123128, 983040},
    {"TC", "UE", 0xfb543afd8bd0797bull, 102534, 123056, 983040},
    {"TC", "TO+UE", 0xc01d44128457c964ull, 104227, 123128, 983040},
    {"TC", "ETC", 0x8a79885695b21d32ull, 102511, 123416, 983040},
    {"KTRUSS", "BASELINE", 0x678a04b713209063ull, 380366, 727749, 1179648},
    {"KTRUSS", "BASELINE+PCIeC",
     0xf3914c4ab4aa25abull, 351369, 727749, 1179648},
    {"KTRUSS", "TO", 0x059cdd1431ea4dd1ull, 386107, 731301, 1179648},
    {"KTRUSS", "UE", 0x09c28f2b358ed17bull, 1784117, 712771, 1179648},
    {"KTRUSS", "TO+UE", 0x37bf98995ae77047ull, 1518280, 718909, 1179648},
    {"KTRUSS", "ETC", 0x070eae3fbf2bcddcull, 269801, 730614, 1179648},
};

TEST(FrontierAudit, TinyMatrixMatchesGoldenTable)
{
    GraphBuildCache::Scope graph_scope;
    SweepSpec spec;
    spec.bench = "frontier_audit_test";
    spec.workloads = {"BFS-HYB", "CC", "TC", "KTRUSS"};
    spec.policies = allPolicies();
    spec.opt.scale = WorkloadScale::Tiny;
    spec.verbose = false;
    const SweepResult sweep = SweepRunner(std::move(spec)).run();
    ASSERT_EQ(sweep.failedCells(), 0u);
    ASSERT_EQ(sweep.cells.size(), std::size(kFrontierTinyGolden));
    for (const FrontierGoldenCell &g : kFrontierTinyGolden) {
        SCOPED_TRACE(std::string(g.workload) + " / " + g.policy);
        const CellOutcome *cell =
            sweep.find(g.workload, policyFromName(g.policy));
        ASSERT_NE(cell, nullptr);
        EXPECT_EQ(cell->result.event_order_digest, g.digest)
            << std::hex << cell->result.event_order_digest;
        EXPECT_EQ(cell->result.cycles, g.cycles);
        EXPECT_EQ(cell->result.sim_events, g.events);
        EXPECT_EQ(cell->result.footprint_bytes, g.footprint_bytes);
    }
}

/** One two-tenant Tiny mix cell's pinned simulation. */
struct MixGoldenCell {
    const char *policy; //!< as policyName() prints it
    std::uint64_t digest;
    Cycle cycles;
    std::uint64_t events;
    struct {
        Cycle cycles;
        double slowdown; //!< against the tenant's solo anchor
    } tenants[2];
};

/**
 * BFS-HYB 0.5 + PR 0.5 under free-for-all sharing (the benchmark's
 * mix2 shape) x the 5 policies that run multi-tenant, at Tiny with the
 * default seed and ratio: the mix's event_order_digest, cycles and
 * sim_events, and each tenant's cycles and slowdown. The slowdowns
 * fold in the solo anchors, so a drift in either anchor fails here
 * too. Never re-record a row to make a change pass.
 */
const MixGoldenCell kMixTinyGolden[] = {
    {"BASELINE", 0xe5963f67ea787183ull, 1027007, 128083,
     {{1027007, 0.72005785664005206}, {677520, 0.36429645274448275}}},
    {"BASELINE+PCIeC", 0xfce0cafe28890bf0ull, 920217, 128035,
     {{920217, 0.76834641579948881}, {597963, 0.39293681934104757}}},
    {"TO", 0x804f396b6473ec0aull, 1027007, 129002,
     {{1027007, 0.72005785664005206}, {677520, 0.51565568155871833}}},
    {"UE", 0x21a43a1ea4a239f3ull, 875846, 127449,
     {{872915, 1.0006625879677236}, {517999, 0.43758526804683689}}},
    {"TO+UE", 0x46231dc8db160e23ull, 712901, 129617,
     {{712901, 0.81723118473709133}, {413804, 0.3501377522355123}}},
};

TEST(MixAudit, TwoTenantTinyMatrixMatchesGoldenTable)
{
    GraphBuildCache::Scope graph_scope;
    const std::vector<TenantSpec> tenants = {
        {"BFS-HYB", 0.5, WorkloadScale::Tiny},
        {"PR", 0.5, WorkloadScale::Tiny}};
    const std::string label = tenantMixLabel(tenants);
    for (std::size_t cell_threads : {1, 3}) {
        SCOPED_TRACE("cell_threads " + std::to_string(cell_threads));
        SweepSpec spec;
        spec.bench = "mix_audit_test";
        spec.workloads = {label};
        for (const MixGoldenCell &g : kMixTinyGolden)
            spec.policies.push_back(policyFromName(g.policy));
        spec.opt.scale = WorkloadScale::Tiny;
        spec.opt.tenants = tenants;
        spec.opt.share_policy = SharePolicy::FreeForAll;
        spec.opt.cell_threads = cell_threads;
        spec.verbose = false;
        const SweepResult sweep = SweepRunner(std::move(spec)).run();
        ASSERT_EQ(sweep.failedCells(), 0u);
        for (const MixGoldenCell &g : kMixTinyGolden) {
            SCOPED_TRACE(g.policy);
            const CellOutcome *cell =
                sweep.find(label, policyFromName(g.policy));
            ASSERT_NE(cell, nullptr);
            const RunResult &r = cell->result;
            EXPECT_EQ(r.event_order_digest, g.digest)
                << std::hex << r.event_order_digest;
            EXPECT_EQ(r.cycles, g.cycles);
            EXPECT_EQ(r.sim_events, g.events);
            ASSERT_EQ(r.tenants.size(), std::size(g.tenants));
            for (std::size_t i = 0; i < r.tenants.size(); ++i) {
                EXPECT_EQ(r.tenants[i].cycles, g.tenants[i].cycles)
                    << "tenant " << i;
                EXPECT_EQ(r.tenants[i].slowdown, g.tenants[i].slowdown)
                    << "tenant " << i;
            }
        }
    }
}

} // namespace
} // namespace bauvm
