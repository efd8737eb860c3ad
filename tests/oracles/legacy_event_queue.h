/**
 * @file
 * The original std::function + unordered_map event queue, retained
 * verbatim as a reference implementation.
 *
 * The production kernel (src/sim/event_queue.h) replaced this with a
 * slab-allocated, calendar-queue design; this copy is a test oracle:
 * the differential tests check that both kernels execute any
 * schedule/cancel sequence in the identical order (the determinism
 * contract: time order, insertion order within a cycle). It is compiled
 * into the test binary only, never into libbauvm.
 *
 * Do not use this in simulator components; it is slower on every axis
 * and its cancel() leaks tombstoned heap entries until they are popped.
 */

#ifndef BAUVM_SIM_LEGACY_EVENT_QUEUE_H_
#define BAUVM_SIM_LEGACY_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/sim/types.h"

namespace bauvm
{

/** Opaque handle used to cancel a scheduled event. */
using LegacyEventId = std::uint64_t;

/** Reference (pre-rewrite) discrete-event queue; see file doc. */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    LegacyEventQueue() = default;
    LegacyEventQueue(const LegacyEventQueue &) = delete;
    LegacyEventQueue &operator=(const LegacyEventQueue &) = delete;

    Cycle now() const { return now_; }

    LegacyEventId scheduleAt(Cycle when, Callback cb);

    LegacyEventId scheduleAfter(Cycle delay, Callback cb)
    {
        return scheduleAt(now_ + delay, std::move(cb));
    }

    bool cancel(LegacyEventId id);

    std::size_t pendingEvents() const { return pending_; }
    bool empty() const { return pending_ == 0; }

    std::uint64_t run(Cycle until = kCycleNever);
    bool step();

    void requestStop() { stop_requested_ = true; }

    std::uint64_t executedEvents() const { return executed_; }

  private:
    struct Entry {
        Cycle when;
        std::uint64_t seq; //!< tie-breaker: insertion order
        LegacyEventId id;
        bool operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    bool popNext(Entry &out);

    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
    bool stop_requested_ = false;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::unordered_map<LegacyEventId, Callback> callbacks_;
};

} // namespace bauvm

#endif // BAUVM_SIM_LEGACY_EVENT_QUEUE_H_
