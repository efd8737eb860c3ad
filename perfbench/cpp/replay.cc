#include "perfbench/cpp/replay.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "src/gpu/coalescer.h"
#include "src/gpu/warp_program.h"
#include "src/mem/memory_hierarchy.h"
#include "src/sim/log.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/workloads/workload_registry.h"

namespace perfbench
{

using namespace bauvm;

namespace
{

using Clock = std::chrono::steady_clock;

/** Kept ops stay between kMaxOps and 2 x kMaxOps (see file doc). */
constexpr std::size_t kMaxOps = std::size_t{1} << 16;
constexpr std::size_t kPasses = 9;
constexpr std::uint32_t kWarpSize = 32;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct MemOp {
    std::uint32_t sm = 0;
    bool write = false;
    std::size_t begin = 0;   //!< into Stream::addrs
    std::size_t lanes = 0;
};

struct Stream {
    std::vector<MemOp> ops;
    std::vector<VAddr> addrs;
    std::uint64_t stride = 1;

    /** Drops every other kept op and doubles the stride. */
    void
    halve()
    {
        std::vector<MemOp> kept;
        std::vector<VAddr> kept_addrs;
        for (std::size_t i = 0; i < ops.size(); i += 2) {
            MemOp op = ops[i];
            const auto first = addrs.begin() +
                               static_cast<std::ptrdiff_t>(op.begin);
            op.begin = kept_addrs.size();
            kept_addrs.insert(kept_addrs.end(), first,
                              first + static_cast<std::ptrdiff_t>(
                                          op.lanes));
            kept.push_back(op);
        }
        ops = std::move(kept);
        addrs = std::move(kept_addrs);
        stride *= 2;
    }
};

Stream
capture(Workload &workload, std::uint32_t num_sms)
{
    Stream s;
    std::uint64_t seen = 0;
    KernelInfo kernel;
    while (workload.nextKernel(&kernel)) {
        const std::uint32_t warps_per_block =
            kernel.warpsPerBlock(kWarpSize);
        for (std::uint32_t b = 0; b < kernel.num_blocks; ++b) {
            std::vector<WarpProgram> warps;
            std::vector<bool> alive(warps_per_block, true);
            warps.reserve(warps_per_block);
            for (std::uint32_t w = 0; w < warps_per_block; ++w) {
                WarpCtx ctx;
                ctx.block_id = b;
                ctx.warp_in_block = w;
                ctx.warp_size = kWarpSize;
                ctx.threads_per_block = kernel.threads_per_block;
                ctx.num_blocks = kernel.num_blocks;
                warps.push_back(kernel.make_program(ctx));
            }
            bool progress = true;
            while (progress) {
                progress = false;
                for (std::uint32_t w = 0; w < warps_per_block; ++w) {
                    if (!alive[w])
                        continue;
                    if (!warps[w].advance()) {
                        alive[w] = false;
                        continue;
                    }
                    progress = true;
                    const WarpOp &op = warps[w].current();
                    if (!op.isMemory() || op.addrs.size() == 0)
                        continue;
                    if (seen++ % s.stride != 0)
                        continue;
                    s.ops.push_back(MemOp{b % num_sms,
                                          op.kind != WarpOp::Kind::Load,
                                          s.addrs.size(),
                                          op.addrs.size()});
                    s.addrs.insert(s.addrs.end(), op.addrs.data(),
                                   op.addrs.data() + op.addrs.size());
                    if (s.ops.size() == 2 * kMaxOps)
                        s.halve();
                }
            }
        }
    }
    return s;
}

/** One coalesced line of a replayed op. */
struct Transaction {
    std::uint32_t sm = 0;
    bool write = false;
    VAddr line = 0;
};

} // namespace

ReplayStats
runReplay(const std::string &workload_name, WorkloadScale scale,
          std::uint64_t seed, const SimConfig &config, SpanLog &log,
          std::uint64_t cell)
{
    ScopedAbortCapture capture_aborts;
    ReplayStats stats;
    SpanScope root(log, "replay", cell);
    const std::uint32_t num_sms = config.gpu.num_sms;
    const std::uint64_t page_bytes = config.uvm.page_bytes;

    // Functional run: the time runFunctional() takes, then the
    // workload's own check of the result it computed.
    {
        auto workload = WorkloadRegistry::instance().create(workload_name);
        {
            SpanScope span(log, "workloads.build", cell, root.index());
            workload->build(scale, seed);
        }
        const auto t0 = Clock::now();
        {
            SpanScope span(log, "workloads.functional", cell,
                           root.index());
            runFunctional(*workload, page_bytes);
        }
        stats.functional_s = secondsSince(t0);
        SpanScope span(log, "workloads.validate", cell, root.index());
        workload->validate();
    }

    Stream stream;
    {
        auto workload = WorkloadRegistry::instance().create(workload_name);
        workload->build(scale, seed);
        SpanScope span(log, "replay.capture", cell, root.index());
        stream = capture(*workload, num_sms);
    }
    stats.ops = stream.ops.size();
    stats.stride = stream.stride;
    if (stream.ops.empty())
        fatal("replay: %s issued no memory ops", workload_name.c_str());

    // Coalesce once to materialize the transactions and the count.
    const std::uint32_t line_bytes = config.mem.l1.line_bytes;
    std::vector<Transaction> txns;
    std::vector<VAddr> lines;
    {
        Coalescer coalescer(line_bytes);
        for (const MemOp &op : stream.ops) {
            coalescer.coalesceInto(stream.addrs.data() + op.begin,
                                   op.lanes, &lines);
            for (VAddr line : lines)
                txns.push_back(Transaction{op.sm, op.write, line});
        }
        stats.transactions_per_op = coalescer.transactionsPerInstruction();
    }
    stats.transactions = txns.size();

    std::vector<double> coalesce_ns;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        Coalescer coalescer(line_bytes);
        std::uint64_t produced = 0;
        const auto t0 = Clock::now();
        {
            SpanScope span(log, "gpu.coalesce", cell, root.index());
            for (const MemOp &op : stream.ops) {
                coalescer.coalesceInto(stream.addrs.data() + op.begin,
                                       op.lanes, &lines);
                produced += lines.size();
            }
        }
        coalesce_ns.push_back(secondsSince(t0) * 1e9 /
                              static_cast<double>(stream.ops.size()));
        if (produced != txns.size())
            panic("replay: coalescer pass %zu produced %llu lines, "
                  "expected %zu",
                  pass, static_cast<unsigned long long>(produced),
                  txns.size());
    }
    stats.coalesce_ns_per_op = median(coalesce_ns);

    std::vector<PageNum> pages;
    for (const Transaction &t : txns)
        pages.push_back(t.line / page_bytes);
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

    std::vector<double> access_ns;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        GpuMemoryManager manager(config.uvm, /*unlimited*/ 0);
        for (PageNum vpn : pages) {
            manager.reserveFrame();
            manager.commitPage(vpn, 0);
        }
        MemoryHierarchy hierarchy(config.mem, num_sms, page_bytes,
                                  manager.pageTable());
        std::vector<Cycle> clock(num_sms, 0);
        std::uint64_t faults = 0;
        const auto t0 = Clock::now();
        {
            SpanScope span(log, "mem.access", cell, root.index());
            for (const Transaction &t : txns) {
                const MemResult r = hierarchy.access(
                    t.sm, t.line, t.write, clock[t.sm]++);
                faults += r.fault ? 1 : 0;
            }
        }
        access_ns.push_back(secondsSince(t0) * 1e9 /
                            static_cast<double>(txns.size()));
        stats.faults += faults;
    }
    stats.ns_per_access = median(access_ns);
    stats.passes = kPasses;
    return stats;
}

} // namespace perfbench
