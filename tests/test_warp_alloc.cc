/**
 * @file
 * Proves the warp-op path allocates nothing per memory operation: a
 * counting global operator new/delete is switched on for the kernel
 * phase of whole tiny cells, and each launched warp may allocate only
 * its coroutine frame, plus a fixed constant per kernel launch. That
 * constant covers the kernel's name and program factory and the
 * cell's own structures (block slots, ready queue, event heap, UVM
 * scratch) growing to their steady-state size. Address lists and
 * kernel scratch live on pooled LaneBuf chunks, which a warm-up cell
 * primes. Lives in its own binary so the global hook cannot perturb
 * the main test suite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/workloads/workload_registry.h"

namespace
{
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// std::stable_sort's scratch buffer comes from the nothrow form; route
// it through the same malloc so every delete here matches its new.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return operator new(n);
    } catch (...) {
        return nullptr;
    }
}

// Out of line: inlined next to a `new` expression, GCC would flag the
// free() as mismatched (-Wmismatched-new-delete) though it pairs with
// the malloc() above.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace bauvm
{
namespace
{

/**
 * Forwards to a registered workload and counts allocations from its
 * first kernel launch to its last, along with the launches and the
 * warps the SMs instantiate.
 */
class CountedWorkload : public Workload
{
  public:
    explicit CountedWorkload(const std::string &name)
        : inner_(WorkloadRegistry::instance().create(name))
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        inner_->build(scale, seed);
        alloc_ = inner_->allocator();
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (launches_ == 0)
            begin_ = g_allocs.load();
        g_counting.store(true);
        if (!inner_->nextKernel(out)) {
            g_counting.store(false);
            allocs_ = g_allocs.load() - begin_;
            return false;
        }
        ++launches_;
        out->make_program = [this, make = std::move(out->make_program)](
                                WarpCtx ctx) {
            ++warps_;
            return make(ctx);
        };
        return true;
    }

    void validate() const override { inner_->validate(); }

    std::uint64_t launches() const { return launches_; }
    std::uint64_t warps() const { return warps_; }
    std::uint64_t allocs() const { return allocs_; }

  private:
    std::unique_ptr<Workload> inner_;
    std::uint64_t launches_ = 0;
    std::uint64_t warps_ = 0;
    std::uint64_t begin_ = 0;
    std::uint64_t allocs_ = 0;
};

/** Allocations one kernel launch may make beyond its warps' frames. */
constexpr std::uint64_t kPerLaunch = 64;

class WarpAlloc : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WarpAlloc, EachWarpAllocatesOnlyItsFrame)
{
    const SimConfig config = applyPolicy(paperConfig(0.5), Policy::ToUe);
    {
        // Warm-up: fills this thread's LaneBuf pool.
        CountedWorkload warm(GetParam());
        GpuUvmSystem system(config);
        system.run(warm, WorkloadScale::Tiny);
    }
    CountedWorkload workload(GetParam());
    GpuUvmSystem system(config);
    const RunResult r = system.run(workload, WorkloadScale::Tiny);
    workload.validate();

    ASSERT_GT(workload.launches(), 0u);
    ASSERT_GT(workload.warps(), 0u);
    // Memory ops outnumber warps, so a per-op allocation would show.
    ASSERT_GT(r.instructions, 2 * workload.warps());
    std::printf("%s: %llu allocations, %llu warps, %llu launches, "
                "%llu warp instructions\n",
                GetParam(),
                static_cast<unsigned long long>(workload.allocs()),
                static_cast<unsigned long long>(workload.warps()),
                static_cast<unsigned long long>(workload.launches()),
                static_cast<unsigned long long>(r.instructions));
    EXPECT_LE(workload.allocs(),
              workload.warps() + kPerLaunch * workload.launches());
}

INSTANTIATE_TEST_SUITE_P(Kernels, WarpAlloc,
                         ::testing::Values("GC-TTC", "BFS-TTC", "PR",
                                           "SSSP-TWC"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return n;
                         });

} // namespace
} // namespace bauvm
