/**
 * @file
 * Differential tests for intra-cell threading (--cell-threads): a
 * multi-tenant cell executed with any thread count must be
 * bit-identical to the serial run. The oracle is the full simulated
 * payload — cycles, instructions, batch statistics, per-tenant
 * results — plus the event queue's order digest, which folds every
 * dispatched event's (when, seq) pair and therefore certifies the two
 * runs executed the *same events in the same order*, not merely
 * runs that agree on the aggregates.
 */

#include <gtest/gtest.h>

#include "src/core/presets.h"
#include "src/core/tenant.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/parallel_units.h"

namespace bauvm
{
namespace
{

CellOutcome
runMixCell(WorkloadScale scale, std::size_t cell_threads, bool audit)
{
    SweepSpec spec;
    spec.bench = "cell_threads";
    spec.workloads = {"mix"};
    spec.policies = {Policy::Baseline};
    spec.opt.scale = scale;
    spec.opt.audit = audit;
    spec.opt.cell_threads = cell_threads;
    spec.opt.tenants = {TenantSpec{"BFS-TWC", 0.5, scale},
                        TenantSpec{"PR", 0.5, scale}};
    spec.verbose = false;
    return SweepRunner(spec).run().cells.front();
}

void
expectIdentical(const CellOutcome &serial, const CellOutcome &threaded)
{
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_TRUE(threaded.ok) << threaded.error;
    EXPECT_EQ(serial.result.event_order_digest,
              threaded.result.event_order_digest)
        << "threaded mix executed different events or a different "
           "order";
    EXPECT_EQ(serial.result.cycles, threaded.result.cycles);
    EXPECT_EQ(serial.result.sim_events, threaded.result.sim_events);
    EXPECT_EQ(serial.result.instructions, threaded.result.instructions);
    EXPECT_EQ(serial.result.batches, threaded.result.batches);
    EXPECT_EQ(serial.result.migrations, threaded.result.migrations);
    EXPECT_EQ(serial.result.evictions, threaded.result.evictions);
    EXPECT_EQ(serial.result.pcie_h2d_bytes,
              threaded.result.pcie_h2d_bytes);
    EXPECT_EQ(serial.result.translations, threaded.result.translations);
    ASSERT_EQ(serial.result.tenants.size(),
              threaded.result.tenants.size());
    for (std::size_t i = 0; i < serial.result.tenants.size(); ++i) {
        const TenantResult &a = serial.result.tenants[i];
        const TenantResult &b = threaded.result.tenants[i];
        EXPECT_EQ(a.cycles, b.cycles) << "tenant " << i;
        EXPECT_EQ(a.instructions, b.instructions) << "tenant " << i;
        EXPECT_EQ(a.demand_pages, b.demand_pages) << "tenant " << i;
        // The slowdown folds in the solo anchors, which run as their
        // own units: a mismatch means a threaded anchor diverged.
        EXPECT_EQ(a.slowdown, b.slowdown) << "tenant " << i;
    }
}

class CellThreadsDifferential
    : public ::testing::TestWithParam<WorkloadScale>
{
};

TEST_P(CellThreadsDifferential, ThreadedMixMatchesSerial)
{
    const WorkloadScale scale = GetParam();
    const CellOutcome serial =
        runMixCell(scale, /*cell_threads=*/1, /*audit=*/false);
    const CellOutcome threaded =
        runMixCell(scale, /*cell_threads=*/2, /*audit=*/false);
    expectIdentical(serial, threaded);
    // Oversubscribed pool: more threads than units must change nothing.
    const CellOutcome wide =
        runMixCell(scale, /*cell_threads=*/8, /*audit=*/false);
    expectIdentical(serial, wide);
}

INSTANTIATE_TEST_SUITE_P(Scales, CellThreadsDifferential,
                         ::testing::Values(WorkloadScale::Tiny,
                                           WorkloadScale::Small,
                                           WorkloadScale::Medium));

TEST(CellThreads, AuditedMixMatchesSerial)
{
    const CellOutcome serial =
        runMixCell(WorkloadScale::Tiny, /*cell_threads=*/1,
                   /*audit=*/true);
    const CellOutcome threaded =
        runMixCell(WorkloadScale::Tiny, /*cell_threads=*/2,
                   /*audit=*/true);
    expectIdentical(serial, threaded);
}

TEST(CellThreads, DigestDistinguishesDifferentRuns)
{
    // Sanity on the oracle itself: two different cells must not share
    // a digest, or the equalities above prove nothing.
    const CellOutcome tiny =
        runMixCell(WorkloadScale::Tiny, 1, false);
    const CellOutcome small =
        runMixCell(WorkloadScale::Small, 1, false);
    ASSERT_TRUE(tiny.ok && small.ok);
    EXPECT_NE(tiny.result.event_order_digest,
              small.result.event_order_digest);
}

TEST(RunUnits, ExecutesEveryUnitOnceAndRethrowsLowestIndex)
{
    std::vector<int> hits(16, 0);
    runUnits(hits.size(), 4,
             [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);

    struct UnitError {
        std::size_t index;
    };
    std::vector<int> ran(8, 0);
    try {
        runUnits(ran.size(), 3, [&](std::size_t i) {
            ++ran[i];
            if (i == 2 || i == 5)
                throw UnitError{i};
        });
        FAIL() << "expected a rethrow";
    } catch (const UnitError &e) {
        EXPECT_EQ(e.index, 2u) << "lowest failing unit wins";
    }
    // No cancellation: later units still ran despite the failures.
    for (int h : ran)
        EXPECT_EQ(h, 1);
}

} // namespace
} // namespace bauvm
