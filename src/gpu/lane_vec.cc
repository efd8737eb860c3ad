#include "src/gpu/lane_vec.h"

namespace bauvm
{

/** Frees the thread's free list at thread exit (see LaneChunkPool). */
struct LaneChunkPoolReaper {
    ~LaneChunkPoolReaper()
    {
        LaneChunkPool::drain();
        LaneChunkPool::state_ = LaneChunkPool::State::Dead;
    }
};

namespace
{

/** Arms the calling thread's reaper on its first pool use. */
void
armReaper()
{
    static thread_local LaneChunkPoolReaper reaper;
    (void)reaper;
}

} // namespace

void *
LaneChunkPool::acquireSlow()
{
    if (state_ == State::Unused) {
        armReaper();
        state_ = State::Live;
    }
    return ::operator new(kChunkBytes);
}

void
LaneChunkPool::releaseSlow(void *p) noexcept
{
    if (state_ == State::Dead) {
        ::operator delete(p);
        return;
    }
    // First pool use on this thread is a release of a chunk another
    // thread acquired.
    armReaper();
    state_ = State::Live;
    push(p);
}

void
LaneChunkPool::drain() noexcept
{
    while (FreeChunk *c = head_) {
        unpoison(c);
        head_ = c->next;
        ::operator delete(c);
    }
}

} // namespace bauvm
