#include "tests/oracles/legacy_event_queue.h"

#include "src/sim/log.h"

namespace bauvm
{

LegacyEventId
LegacyEventQueue::scheduleAt(Cycle when, Callback cb)
{
    if (when < now_) {
        panic("LegacyEventQueue: scheduling in the past "
              "(when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    }
    LegacyEventId id = next_seq_;
    heap_.push(Entry{when, next_seq_, id});
    ++next_seq_;
    callbacks_.emplace(id, std::move(cb));
    ++pending_;
    return id;
}

bool
LegacyEventQueue::cancel(LegacyEventId id)
{
    auto it = callbacks_.find(id);
    if (it == callbacks_.end())
        return false;
    callbacks_.erase(it);
    --pending_;
    return true;
}

bool
LegacyEventQueue::popNext(Entry &out)
{
    while (!heap_.empty()) {
        Entry e = heap_.top();
        heap_.pop();
        if (callbacks_.find(e.id) != callbacks_.end()) {
            out = e;
            return true;
        }
        // Cancelled event: skip the stale heap entry.
    }
    return false;
}

std::uint64_t
LegacyEventQueue::run(Cycle until)
{
    std::uint64_t ran = 0;
    stop_requested_ = false;
    Entry e;
    while (!stop_requested_ && popNext(e)) {
        if (e.when > until) {
            // Put the event back; it belongs to the future.
            heap_.push(e);
            break;
        }
        auto it = callbacks_.find(e.id);
        Callback cb = std::move(it->second);
        callbacks_.erase(it);
        --pending_;
        now_ = e.when;
        cb();
        ++executed_;
        ++ran;
    }
    return ran;
}

bool
LegacyEventQueue::step()
{
    Entry e;
    if (!popNext(e))
        return false;
    auto it = callbacks_.find(e.id);
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    --pending_;
    now_ = e.when;
    cb();
    ++executed_;
    return true;
}

} // namespace bauvm
