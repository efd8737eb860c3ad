/**
 * @file
 * Warp-level execution model: kernels are C++20 generator coroutines
 * that yield timing operations.
 *
 * One coroutine instance models one warp. The kernel body performs its
 * *functional* work directly on host-backed arrays (UVM migration never
 * changes values, so eager functional reads are safe) and co_yields a
 * WarpOp describing the *timing* of each step: the lane addresses of a
 * coalesced memory access, a compute delay, or a block barrier. The SM
 * resumes the coroutine when the yielded operation completes.
 */

#ifndef BAUVM_GPU_WARP_PROGRAM_H_
#define BAUVM_GPU_WARP_PROGRAM_H_

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>

#include "src/gpu/lane_vec.h"
#include "src/sim/types.h"

namespace bauvm
{

/** One timing operation yielded by a warp program. */
struct WarpOp {
    enum class Kind {
        Compute, //!< occupy the warp for `cycles`
        Load,    //!< coalesced read of `addrs`
        Store,   //!< coalesced write of `addrs`
        Atomic,  //!< coalesced read-modify-write of `addrs`
        Sync,    //!< block-wide barrier (__syncthreads)
    };

    Kind kind = Kind::Compute;
    Cycle cycles = 1;  //!< Compute only
    LaneVec addrs;     //!< per-lane addresses (memory kinds)

    static WarpOp compute(Cycle c) { return WarpOp{Kind::Compute, c, {}}; }
    static WarpOp load(LaneVec a)
    {
        return WarpOp{Kind::Load, 0, std::move(a)};
    }
    static WarpOp store(LaneVec a)
    {
        return WarpOp{Kind::Store, 0, std::move(a)};
    }
    static WarpOp atomic(LaneVec a)
    {
        return WarpOp{Kind::Atomic, 0, std::move(a)};
    }
    static WarpOp sync() { return WarpOp{Kind::Sync, 0, {}}; }

    bool isMemory() const
    {
        return kind == Kind::Load || kind == Kind::Store ||
               kind == Kind::Atomic;
    }
};

// A suspended warp's frame holds a handful of WarpOp temporaries; keep
// them handle-sized so a resume touches a few cache lines, not KBs.
static_assert(sizeof(WarpOp) <= 64, "WarpOp must stay compact");

/**
 * Variadic builders used inside coroutines. (GCC 12 miscompiles
 * initializer-list temporaries in co_yield expressions — "array used as
 * initializer" — so kernels construct the address vectors through
 * push_back instead of brace initialization.)
 */
template <typename... Addrs>
WarpOp
loadOf(Addrs... addrs)
{
    LaneVec v;
    (v.push_back(addrs), ...);
    return WarpOp::load(std::move(v));
}

template <typename... Addrs>
WarpOp
storeOf(Addrs... addrs)
{
    LaneVec v;
    (v.push_back(addrs), ...);
    return WarpOp::store(std::move(v));
}

/**
 * Move-only generator coroutine handle for a warp.
 *
 * Usage: construct from a kernel coroutine, then repeatedly advance();
 * after each true return, current() is the next operation to time.
 */
class WarpProgram
{
  public:
    struct promise_type {
        WarpOp op;

        WarpProgram get_return_object()
        {
            return WarpProgram{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        std::suspend_always yield_value(WarpOp o)
        {
            op = std::move(o);
            return {};
        }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    WarpProgram() = default;
    explicit WarpProgram(std::coroutine_handle<promise_type> h) : h_(h) {}
    WarpProgram(WarpProgram &&o) noexcept : h_(std::exchange(o.h_, {})) {}
    WarpProgram &
    operator=(WarpProgram &&o) noexcept
    {
        if (this != &o) {
            destroy();
            h_ = std::exchange(o.h_, {});
        }
        return *this;
    }
    WarpProgram(const WarpProgram &) = delete;
    WarpProgram &operator=(const WarpProgram &) = delete;
    ~WarpProgram() { destroy(); }

    bool valid() const { return static_cast<bool>(h_); }

    /**
     * Runs the kernel to its next yield.
     * @retval true  current() holds a fresh operation.
     * @retval false the warp finished.
     */
    bool
    advance()
    {
        h_.resume();
        return !h_.done();
    }

    /** The most recently yielded operation. */
    const WarpOp &current() const { return h_.promise().op; }

  private:
    void
    destroy()
    {
        if (h_) {
            h_.destroy();
            h_ = {};
        }
    }

    std::coroutine_handle<promise_type> h_;
};

/**
 * Identity of one warp within the launched grid, passed to kernels.
 */
struct WarpCtx {
    std::uint32_t block_id = 0;       //!< block index within the grid
    std::uint32_t warp_in_block = 0;  //!< warp index within the block
    std::uint32_t warp_size = 32;
    std::uint32_t threads_per_block = 0;
    std::uint32_t num_blocks = 0;

    /** Number of threads this warp actually covers. */
    std::uint32_t
    laneCount() const
    {
        const std::uint32_t base = warp_in_block * warp_size;
        return base >= threads_per_block
                   ? 0
                   : (threads_per_block - base < warp_size
                          ? threads_per_block - base
                          : warp_size);
    }

    /** Global thread id of @p lane. */
    std::uint32_t
    globalThread(std::uint32_t lane) const
    {
        return block_id * threads_per_block + warp_in_block * warp_size +
               lane;
    }

    /** Total threads in the grid. */
    std::uint32_t
    totalThreads() const
    {
        return num_blocks * threads_per_block;
    }
};

/** Factory producing the coroutine for one warp. */
using WarpProgramFactory = std::function<WarpProgram(WarpCtx)>;

/** Static description of a kernel launch. */
struct KernelInfo {
    std::string name;
    std::uint32_t num_blocks = 1;
    std::uint32_t threads_per_block = 256;
    std::uint32_t regs_per_thread = 32;
    std::uint32_t smem_bytes_per_block = 0;
    WarpProgramFactory make_program;

    std::uint32_t
    warpsPerBlock(std::uint32_t warp_size) const
    {
        return (threads_per_block + warp_size - 1) / warp_size;
    }
};

} // namespace bauvm

#endif // BAUVM_GPU_WARP_PROGRAM_H_
