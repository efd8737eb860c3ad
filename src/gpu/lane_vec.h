/**
 * @file
 * Pooled per-lane buffers for warp memory operations and kernel
 * scratch.
 *
 * A LaneBuf is a 24-byte handle (pointer, size, capacity). Its storage
 * is a 1 KB chunk from a per-thread LIFO free list, so a kernel that
 * builds an address list, yields it and builds the next one keeps
 * reusing the same few cache-hot chunks with no allocator call, and a
 * coroutine frame holds handles instead of inline arrays. A list that
 * outgrows one chunk moves to a plain heap block.
 *
 * Moves are O(1) and leave the source empty with no storage, so
 * yielding a WarpOp costs a few pointer moves. A default-constructed
 * LaneBuf owns nothing until its first push_back() or reserve().
 *
 * Pool rules (LaneChunkPool):
 *  - a chunk goes back to the free list of the thread that releases
 *    it, whichever thread acquired it;
 *  - a thread's free list is freed when the thread exits, and a chunk
 *    released after that is deleted directly;
 *  - under AddressSanitizer a chunk on the free list is poisoned, so a
 *    use after release is still reported.
 */

#ifndef BAUVM_GPU_LANE_VEC_H_
#define BAUVM_GPU_LANE_VEC_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

#include "src/sim/types.h"

#if defined(__SANITIZE_ADDRESS__)
#define BAUVM_LANE_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BAUVM_LANE_POOL_ASAN 1
#endif
#endif
#ifdef BAUVM_LANE_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace bauvm
{

/** Per-thread LIFO free list of fixed-size chunks (see file comment). */
class LaneChunkPool
{
  public:
    static constexpr std::size_t kChunkBytes = 1024;

    static void *
    acquire()
    {
        FreeChunk *c = head_;
        if (!c)
            return acquireSlow();
        unpoison(c);
        head_ = c->next;
        return c;
    }

    static void
    release(void *p) noexcept
    {
        if (state_ != State::Live) {
            releaseSlow(p);
            return;
        }
        push(p);
    }

  private:
    struct FreeChunk {
        FreeChunk *next;
    };
    enum class State : unsigned char { Unused, Live, Dead };

    static void *acquireSlow();
    static void releaseSlow(void *p) noexcept;
    static void drain() noexcept;
    friend struct LaneChunkPoolReaper;

    static void
    push(void *p) noexcept
    {
        FreeChunk *c = static_cast<FreeChunk *>(p);
        c->next = head_;
        head_ = c;
#ifdef BAUVM_LANE_POOL_ASAN
        ASAN_POISON_MEMORY_REGION(c, kChunkBytes);
#endif
    }

    static void
    unpoison([[maybe_unused]] FreeChunk *c) noexcept
    {
#ifdef BAUVM_LANE_POOL_ASAN
        ASAN_UNPOISON_MEMORY_REGION(c, kChunkBytes);
#endif
    }

    static inline thread_local constinit FreeChunk *head_ = nullptr;
    static inline thread_local constinit State state_ = State::Unused;
};

/**
 * Growable list of trivially copyable @p T on pooled storage (see file
 * comment). Deliberately minimal: append, clear and the read API the
 * SM, the coalescer and the kernels use.
 */
template <typename T>
class LaneBuf
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "LaneBuf copies elements with memcpy");
    static_assert(sizeof(T) <= LaneChunkPool::kChunkBytes,
                  "one chunk must hold at least one element");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "chunks carry operator new's default alignment");

  public:
    /** Elements one pooled chunk holds (128 for 8-byte addresses). */
    static constexpr std::size_t kChunkCap =
        LaneChunkPool::kChunkBytes / sizeof(T);

    LaneBuf() = default;
    ~LaneBuf() { release(); }

    LaneBuf(const LaneBuf &o) { copyFrom(o); }

    LaneBuf &
    operator=(const LaneBuf &o)
    {
        if (this != &o) {
            size_ = 0;
            copyFrom(o);
        }
        return *this;
    }

    LaneBuf(LaneBuf &&o) noexcept
        : data_(o.data_), size_(o.size_), cap_(o.cap_)
    {
        o.data_ = nullptr;
        o.size_ = o.cap_ = 0;
    }

    LaneBuf &
    operator=(LaneBuf &&o) noexcept
    {
        if (this != &o) {
            release();
            data_ = o.data_;
            size_ = o.size_;
            cap_ = o.cap_;
            o.data_ = nullptr;
            o.size_ = o.cap_ = 0;
        }
        return *this;
    }

    /** By value: @p v may alias an element that grow() frees. */
    void
    push_back(T v)
    {
        if (size_ == cap_)
            grow(size_ + 1);
        data_[size_++] = v;
    }

    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            grow(n);
    }

    /** Replaces the contents with @p n copies of @p v. */
    void
    assign(std::size_t n, const T &v)
    {
        size_ = 0;
        reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            data_[i] = v;
        size_ = n;
    }

    /** Empties the list and keeps its storage. */
    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }
    bool empty() const { return size_ == 0; }

    T *data() { return data_; }
    const T *data() const { return data_; }

    const T &operator[](std::size_t i) const { return data_[i]; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &back() const { return data_[size_ - 1]; }

    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }

  private:
    /** Storage for at least @p need elements, keeping the contents. */
    void
    grow(std::size_t need)
    {
        if (cap_ == 0 && need <= kChunkCap) {
            data_ = static_cast<T *>(LaneChunkPool::acquire());
            cap_ = kChunkCap;
            return;
        }
        std::size_t cap = cap_ ? cap_ * 2 : kChunkCap;
        while (cap < need)
            cap *= 2;
        T *block = static_cast<T *>(::operator new(cap * sizeof(T)));
        if (size_)
            std::memcpy(block, data_, size_ * sizeof(T));
        release();
        data_ = block;
        cap_ = cap;
    }

    void
    release() noexcept
    {
        if (cap_ == kChunkCap)
            LaneChunkPool::release(data_);
        else if (cap_ != 0)
            ::operator delete(data_);
    }

    void
    copyFrom(const LaneBuf &o)
    {
        reserve(o.size_);
        if (o.size_)
            std::memcpy(data_, o.data_, o.size_ * sizeof(T));
        size_ = o.size_;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

/** Per-lane addresses of one warp memory operation. */
using LaneVec = LaneBuf<VAddr>;

} // namespace bauvm

#endif // BAUVM_GPU_LANE_VEC_H_
