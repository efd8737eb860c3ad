/**
 * @file
 * Example: writing a custom workload against the public API.
 *
 * A workload is (1) unified-memory arrays allocated from its
 * DeviceAllocator, (2) a sequence of kernels whose warps are C++20
 * generator coroutines yielding WarpOps, and (3) a validate() check.
 * This one implements a strided "pointer-chase" histogram: each thread
 * hashes into a table — an intentionally irregular access pattern —
 * then the host checks the histogram sums.
 */

#include <cstdio>

#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/sim/log.h"
#include "src/workloads/device_array.h"
#include "src/workloads/workload.h"

namespace
{

using namespace bauvm;

class HistogramWorkload : public Workload
{
  public:
    std::string name() const override { return "custom-histogram"; }

    void
    build(WorkloadScale, std::uint64_t seed) override
    {
        seed_ = seed;
        d_keys_ = DeviceArray<std::uint32_t>(alloc_, kKeys, "keys");
        d_hist_ = DeviceArray<std::uint32_t>(alloc_, kBins, "hist");
        std::uint64_t x = seed;
        for (std::size_t i = 0; i < kKeys; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            d_keys_[i] = static_cast<std::uint32_t>(x >> 33) % kBins;
        }
        d_hist_.fill(0);
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (launched_)
            return false;
        launched_ = true;
        out->name = "histogram";
        out->threads_per_block = 256;
        out->regs_per_thread = 32;
        out->num_blocks = kKeys / 256;
        HistogramWorkload *self = this;
        out->make_program = [self](WarpCtx ctx) {
            return histWarp(ctx, self);
        };
        return true;
    }

    void
    validate() const override
    {
        std::uint64_t total = 0;
        for (std::size_t b = 0; b < kBins; ++b)
            total += d_hist_[b];
        if (total != kKeys)
            panic("histogram lost updates: %llu != %zu",
                  static_cast<unsigned long long>(total), kKeys);
    }

    static WarpProgram
    histWarp(WarpCtx ctx, HistogramWorkload *self)
    {
        // Coalesced key load, then a divergent atomic scatter: the
        // canonical irregular-update idiom. Address lists and per-lane
        // scratch are LaneBufs on pooled storage, so building and
        // yielding an op never calls the allocator.
        LaneVec ka;
        LaneBuf<std::uint32_t> tids;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const std::uint32_t tid = ctx.globalThread(lane);
            tids.push_back(tid);
            ka.push_back(self->d_keys_.addr(tid));
        }
        co_yield WarpOp::load(std::move(ka));

        LaneVec ha;
        for (std::uint32_t tid : tids) {
            const std::uint32_t bin = self->d_keys_[tid];
            ++self->d_hist_[bin];
            ha.push_back(self->d_hist_.addr(bin));
        }
        co_yield WarpOp::atomic(std::move(ha));
    }

  private:
    static constexpr std::size_t kKeys = 1 << 18;
    static constexpr std::size_t kBins = 1 << 16;
    DeviceArray<std::uint32_t> d_keys_;
    DeviceArray<std::uint32_t> d_hist_;
    std::uint64_t seed_ = 0;
    bool launched_ = false;
};

} // namespace

int
main()
{
    using namespace bauvm;

    std::printf("custom workload through the full UVM stack, "
                "25%% memory:\n\n");
    for (Policy policy : {Policy::Baseline, Policy::ToUe}) {
        HistogramWorkload workload;
        GpuUvmSystem system(applyPolicy(paperConfig(0.25), policy));
        const RunResult r =
            system.run(workload, WorkloadScale::Small);
        workload.validate();
        std::printf("%-10s cycles=%-12llu batches=%-4llu "
                    "migrations=%llu\n",
                    policyName(policy).c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.batches),
                    static_cast<unsigned long long>(r.migrations));
    }
    return 0;
}
