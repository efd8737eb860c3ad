/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "tests/oracles/legacy_event_queue.h"

namespace bauvm
{
namespace
{

TEST(EventQueue, StartsAtCycleZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(30, [&] { order.push_back(3); });
    q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameCycleEventsRunInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.scheduleAt(42, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Cycle seen = 0;
    q.scheduleAt(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    const EventId id = q.scheduleAt(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // double cancel reports failure
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executedEvents(), 0u);
}

TEST(EventQueue, RunUntilLeavesFutureEventsPending)
{
    EventQueue q;
    int count = 0;
    q.scheduleAt(10, [&] { ++count; });
    q.scheduleAt(20, [&] { ++count; });
    q.scheduleAt(30, [&] { ++count; });
    q.run(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.pendingEvents(), 1u);
    q.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue q;
    int count = 0;
    q.scheduleAt(5, [&] { ++count; });
    q.scheduleAt(6, [&] { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 5u);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            q.scheduleAfter(1, chain);
    };
    q.scheduleAt(0, chain);
    q.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(q.now(), 9u);
}

TEST(EventQueue, RequestStopHaltsRun)
{
    EventQueue q;
    int count = 0;
    q.scheduleAt(1, [&] {
        ++count;
        q.requestStop();
    });
    q.scheduleAt(2, [&] { ++count; });
    q.run();
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.pendingEvents(), 1u);
}

TEST(EventQueue, PendingCountTracksCancellations)
{
    EventQueue q;
    const EventId a = q.scheduleAt(1, [] {});
    q.scheduleAt(2, [] {});
    EXPECT_EQ(q.pendingEvents(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pendingEvents(), 1u);
    q.run();
    EXPECT_EQ(q.pendingEvents(), 0u);
}

TEST(EventQueue, RunUntilBoundaryIsInclusive)
{
    EventQueue q;
    int count = 0;
    q.scheduleAt(100, [&] { ++count; });
    q.scheduleAt(101, [&] { ++count; });
    q.run(100); // event exactly AT the bound runs; beyond it stays
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 100u);
    EXPECT_EQ(q.pendingEvents(), 1u);
    q.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 101u);
}

TEST(EventQueue, CancelledRingEventTombstonesUntilItsCycle)
{
    EventQueue q;
    bool ran = false;
    // Delay < kNearWindow: the record is an intrusive chain link, so
    // it parks as a tombstone instead of recycling immediately.
    const EventId id = q.scheduleAfter(5, [&] { ran = true; });
    ASSERT_TRUE(q.cancel(id));
    EXPECT_EQ(q.staleEntries(), 1u);
    q.scheduleAfter(10, [] {});
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.staleEntries(), 0u); // reclaimed as it reached front
}

TEST(EventQueue, CancelThenRescheduleInvalidatesOldId)
{
    EventQueue q;
    // Far-future events recycle their slot immediately on cancel; the
    // next schedule reuses it under a new generation.
    const EventId stale =
        q.scheduleAt(50000, [] { FAIL() << "cancelled event ran"; });
    ASSERT_TRUE(q.cancel(stale));
    bool ran = false;
    const EventId fresh = q.scheduleAt(60000, [&] { ran = true; });
    EXPECT_NE(stale, fresh);
    EXPECT_FALSE(q.cancel(stale)); // old id must not hit the new event
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, SelfCancelInsideCallbackIsRejected)
{
    EventQueue q;
    EventId id = 0;
    bool cancel_result = true;
    id = q.scheduleAt(10, [&] { cancel_result = q.cancel(id); });
    q.run();
    EXPECT_FALSE(cancel_result); // the event is already running
    EXPECT_EQ(q.executedEvents(), 1u);
}

TEST(EventQueue, HeapTombstonesAreCompactedAway)
{
    EventQueue q;
    std::vector<EventId> ids;
    int survivors = 0;
    // All far-future (>= kNearWindow from now 0) => binary heap.
    for (int i = 0; i < 128; ++i)
        ids.push_back(q.scheduleAt(
            static_cast<Cycle>(100000 + i), [&] { ++survivors; }));
    for (int i = 0; i < 128; ++i) {
        if (i % 8 != 0)
            q.cancel(ids[i]);
    }
    EXPECT_GE(q.compactions(), 1u); // leak fix: tombstones reclaimed
    EXPECT_LT(q.staleEntries(), 64u);
    q.run();
    EXPECT_EQ(survivors, 16);
    EXPECT_EQ(q.staleEntries(), 0u);
}

TEST(EventQueue, HeapAndRingEventsAtSameCycleKeepInsertionOrder)
{
    // A far-future event (heap) and near-future events (ring) can land
    // on the same cycle once now() advances; insertion order must hold
    // across the two structures.
    EventQueue q;
    std::vector<int> order;
    const Cycle target = 2 * EventQueue::kNearWindow; // heap at t=0
    q.scheduleAt(target, [&] { order.push_back(0); });
    q.scheduleAt(target - 100, [&] {
        // Now within the window: these go to the calendar ring.
        q.scheduleAt(target, [&] { order.push_back(1); });
        q.scheduleAt(target, [&] { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.now(), target);
}

TEST(EventQueue, OversizedCaptureFallsBackToHeapOnce)
{
    const std::uint64_t before = EventQueue::Callback::heapFallbacks();
    EventQueue q;
    struct BigPayload {
        char pad[64]; // > kInlineCallbackBytes
        int *out;
        void operator()() { *out = pad[0]; }
    };
    int out = 0;
    BigPayload big{};
    big.pad[0] = 7;
    big.out = &out;
    q.scheduleAt(1, big);
    q.scheduleAt(2, [&out] { ++out; }); // small capture stays inline
    q.run();
    EXPECT_EQ(out, 8);
    EXPECT_EQ(EventQueue::Callback::heapFallbacks(), before + 1);
}

/**
 * Differential check: a deterministic schedule/cancel/run script must
 * produce the identical execution order on the slab/calendar kernel
 * and on the retained std::function + unordered_map reference.
 */
template <typename Queue>
std::vector<int>
runDifferentialScript()
{
    Queue q;
    Rng rng(0xbadc0ffee);
    std::vector<int> order;
    std::vector<std::uint64_t> ids; // EventId / LegacyEventId
    int label = 0;
    for (int i = 0; i < 300; ++i) {
        const auto when = static_cast<Cycle>(rng.nextBelow(6000));
        const int tag = label++;
        ids.push_back(q.scheduleAt(when, [&q, &order, tag, when] {
            order.push_back(tag);
            if (tag % 5 == 0) {
                // Chained follow-up straddling ring and heap horizons.
                q.scheduleAfter((tag % 2) ? 3 : 4000,
                                [&order, tag] {
                                    order.push_back(10000 + tag);
                                });
            }
        }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3)
        q.cancel(ids[i]);
    q.run(3000); // split the drain to exercise the until-boundary
    for (std::size_t i = 1; i < ids.size(); i += 7)
        q.cancel(ids[i]); // mostly stale by now; some still pending
    q.run();
    return order;
}

TEST(EventQueue, MatchesLegacyKernelOnRandomScript)
{
    const auto fast = runDifferentialScript<EventQueue>();
    const auto legacy = runDifferentialScript<LegacyEventQueue>();
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, legacy);
}

} // namespace
} // namespace bauvm
