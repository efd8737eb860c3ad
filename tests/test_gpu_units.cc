/**
 * @file
 * Unit tests for the GPU-side building blocks: coalescer, occupancy,
 * warp coroutines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/gpu/coalescer.h"
#include "src/gpu/lane_vec.h"
#include "src/gpu/occupancy.h"
#include "src/gpu/warp_program.h"
#include "src/sim/rng.h"

namespace bauvm
{
namespace
{

TEST(Coalescer, FullyCoalescedWarpIsOneTransaction)
{
    Coalescer c(128);
    std::vector<VAddr> addrs;
    for (int lane = 0; lane < 32; ++lane)
        addrs.push_back(0x1000 + lane * 4);
    const auto lines = c.coalesce(addrs);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x1000u);
}

TEST(Coalescer, StridedAccessSplits)
{
    Coalescer c(128);
    std::vector<VAddr> addrs;
    for (int lane = 0; lane < 32; ++lane)
        addrs.push_back(lane * 128);
    EXPECT_EQ(c.coalesce(addrs).size(), 32u);
}

TEST(Coalescer, DuplicateAddressesMerge)
{
    Coalescer c(128);
    std::vector<VAddr> addrs(32, 0x2000);
    EXPECT_EQ(c.coalesce(addrs).size(), 1u);
}

TEST(Coalescer, OutputSortedLineBases)
{
    Coalescer c(128);
    const auto lines = c.coalesce({1000, 5, 300});
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], 0u);
    EXPECT_EQ(lines[1], 256u);
    EXPECT_EQ(lines[2], 896u);
}

TEST(Coalescer, DivergenceStatistic)
{
    Coalescer c(128);
    c.coalesce({0, 4, 8});       // 1 transaction
    c.coalesce({0, 128, 256});   // 3 transactions
    EXPECT_EQ(c.memoryInstructions(), 2u);
    EXPECT_EQ(c.transactions(), 4u);
    EXPECT_DOUBLE_EQ(c.transactionsPerInstruction(), 2.0);
}

/** Reference coalescing: every lane's line base, sorted, deduplicated. */
std::vector<VAddr>
referenceLines(const LaneVec &lanes, std::uint32_t line_bytes)
{
    std::vector<VAddr> lines;
    for (const VAddr a : lanes)
        lines.push_back(a - a % line_bytes);
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
}

/** @p n lanes at @p start + i * @p step (unsigned wrap, like hardware). */
LaneVec
stridedLanes(VAddr start, std::int64_t step, std::size_t n)
{
    LaneVec lanes;
    for (std::size_t i = 0; i < n; ++i)
        lanes.push_back(start + static_cast<VAddr>(step) * i);
    return lanes;
}

TEST(Coalescer, MatchesSortUniqueReferenceOnEveryLanePattern)
{
    for (const std::uint32_t line : {128u, 96u}) {
        const std::int64_t l = line;
        std::vector<LaneVec> cases;
        for (const std::size_t n : {0, 1, 2, 32, 96, 200}) {
            for (const VAddr start : {VAddr{0x10000}, VAddr{0x10000 + 68},
                                      VAddr{0x7ffff3}}) {
                // Unit stride at 4 and 8 bytes, broadcast, strides that
                // cross a line per lane or skip lines, both directions.
                for (const std::int64_t step :
                     {std::int64_t{4}, std::int64_t{8}, std::int64_t{0},
                      l - 4, l, l + 4, 3 * l, std::int64_t{-4},
                      std::int64_t{-8}, -l, -(l + 4)}) {
                    // Descending runs start high enough not to wrap.
                    const VAddr base =
                        step < 0 ? start + (l + 4) * 256 : start;
                    cases.push_back(stridedLanes(base, step, n));
                }
            }
        }
        // Constant-stride runs that wrap the address space either way.
        cases.push_back(stridedLanes(~VAddr{0} - 40, 8, 32));
        cases.push_back(stridedLanes(40, -8, 32));

        Rng rng(0xc0a1e5ce + line);
        for (int rep = 0; rep < 400; ++rep) {
            const std::size_t n = 1 + rng.nextBelow(rep < 380 ? 96 : 300);
            // Random gathers over spans from a few lines to 1 GiB.
            const VAddr spans[] = {4 * line, 4096 * line, VAddr{1} << 30};
            LaneVec gather;
            const VAddr span = spans[rng.nextBelow(3)];
            for (std::size_t i = 0; i < n; ++i)
                gather.push_back(0x40000 + rng.nextBelow(span));
            cases.push_back(gather);
            // Unit stride with one stray lane.
            LaneVec stray = stridedLanes(0x90000, 4, n);
            stray[rng.nextBelow(n)] = 0x90000 + rng.nextBelow(1u << 16);
            cases.push_back(stray);
            // Interleaved streams (x[v], row[v], row[v+1] per lane).
            LaneVec mixed;
            for (std::size_t i = 0; i < n; ++i) {
                mixed.push_back(0x200000 + 8 * i);
                mixed.push_back(0x300000 + 4 * i);
                mixed.push_back(0x300000 + 4 * (i + 1));
            }
            cases.push_back(mixed);
        }

        Coalescer c(line);
        std::uint64_t expected_transactions = 0;
        std::vector<VAddr> lines;
        for (std::size_t k = 0; k < cases.size(); ++k) {
            const std::vector<VAddr> want = referenceLines(cases[k], line);
            c.coalesceInto(cases[k], &lines);
            ASSERT_EQ(lines, want) << "line " << line << " case " << k;
            expected_transactions += want.size();
        }
        EXPECT_EQ(c.memoryInstructions(), cases.size());
        EXPECT_EQ(c.transactions(), expected_transactions);
    }
}

/**
 * An out-of-order op of @p n lanes whose lines span exactly
 * [@p lo_line, @p hi_line]: the first lane sits on the highest line,
 * the second on the lowest (so the one-pass dedup breaks at once),
 * the rest at random in between.
 */
LaneVec
spanLanes(VAddr lo_line, VAddr hi_line, std::size_t n,
          std::uint32_t line_bytes, Rng &rng)
{
    LaneVec lanes;
    lanes.push_back(hi_line * line_bytes + line_bytes - 1);
    lanes.push_back(lo_line * line_bytes);
    for (std::size_t i = 2; i < n; ++i) {
        const VAddr line = lo_line + rng.nextBelow(hi_line - lo_line + 1);
        lanes.push_back(line * line_bytes + rng.nextBelow(line_bytes));
    }
    return lanes;
}

TEST(Coalescer, BitmapEdgesMatchSortUniqueReference)
{
    const std::size_t kWords = Coalescer::kBitmapWords;
    // The cutoffs the cases below straddle.
    EXPECT_TRUE(Coalescer::bitmapWins(kWords, 32));
    EXPECT_FALSE(Coalescer::bitmapWins(kWords + 1, 128));
    for (const std::size_t n : {4, 8, 12, 16, 20}) {
        const std::size_t words = n * n / 8;
        EXPECT_TRUE(Coalescer::bitmapWins(words, n)) << n;
        EXPECT_FALSE(Coalescer::bitmapWins(words + 1, n)) << n;
    }

    // 64 and 128 take the bitmap; 96 must keep the exact sort path.
    for (const std::uint32_t line : {128u, 64u, 96u}) {
        Rng rng(0xb17a9 + line);
        const VAddr lo = 0x4000;
        std::vector<LaneVec> cases;
        // A span of exactly the word cutoff, and one line past it.
        for (const std::size_t n : {32, 64}) {
            cases.push_back(spanLanes(lo, lo + kWords * 64 - 1, n, line, rng));
            cases.push_back(spanLanes(lo, lo + kWords * 64, n, line, rng));
        }
        // Both sides of the words <= f(n) boundary.
        for (const std::size_t n : {4, 8, 12, 16, 20}) {
            const std::size_t words = n * n / 8;
            cases.push_back(spanLanes(lo, lo + words * 64 - 1, n, line, rng));
            cases.push_back(spanLanes(lo, lo + words * 64, n, line, rng));
        }
        // Duplicate-heavy interleaved streams: every run revisits each
        // of its lines four times, runs close together and far apart.
        for (const std::size_t runs : {2, 3, 8}) {
            for (const VAddr gap : {VAddr{16} * line, VAddr{1} << 24}) {
                LaneVec mixed;
                for (std::size_t i = 0; i < 32; ++i) {
                    for (std::size_t r = 0; r < runs; ++r)
                        mixed.push_back(0x100000 + r * gap + 8 * (i / 4));
                }
                cases.push_back(mixed);
            }
        }
        // A full 128-lane op and a heap-grown one past 128 lanes.
        for (const std::size_t n : {std::size_t{128}, std::size_t{300}}) {
            cases.push_back(spanLanes(lo, lo + 10 * 64, n, line, rng));
            LaneVec reversed;
            for (std::size_t i = 0; i < n; ++i)
                reversed.push_back(0x800000 - 8 * i);
            cases.push_back(reversed);
        }
        EXPECT_GT(cases.back().capacity(), LaneVec::kChunkCap);

        Coalescer c(line);
        std::uint64_t expected_transactions = 0;
        std::vector<VAddr> lines;
        for (std::size_t k = 0; k < cases.size(); ++k) {
            const std::vector<VAddr> want = referenceLines(cases[k], line);
            c.coalesceInto(cases[k], &lines);
            ASSERT_EQ(lines, want) << "line " << line << " case " << k;
            expected_transactions += want.size();
        }
        EXPECT_EQ(c.memoryInstructions(), cases.size());
        EXPECT_EQ(c.transactions(), expected_transactions);
    }
}

TEST(LaneBuf, MoveLeavesSourceEmpty)
{
    LaneVec a;
    a.push_back(1);
    a.push_back(2);
    const VAddr *storage = a.data();
    LaneVec b = std::move(a);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.capacity(), 0u);
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(b.data(), storage); // the chunk moved, not the elements
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[1], 2u);

    LaneVec c;
    c.push_back(9);
    c = std::move(b);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(c.data(), storage);
    // A moved-from buffer is usable again.
    b.push_back(5);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b.back(), 5u);
}

TEST(LaneBuf, ReleasedChunksAreReusedLifo)
{
    const VAddr *first = nullptr;
    const VAddr *second = nullptr;
    {
        LaneVec a;
        a.push_back(1);
        LaneVec b;
        b.push_back(2);
        first = a.data();
        second = b.data();
        EXPECT_NE(first, second);
    } // b is released first, then a: a's chunk is on top
    LaneVec c;
    c.push_back(3);
    EXPECT_EQ(c.data(), first);
    LaneBuf<std::uint32_t> d; // other element types share the pool
    d.push_back(4);
    EXPECT_EQ(static_cast<const void *>(d.data()),
              static_cast<const void *>(second));
    EXPECT_EQ(d.capacity(), LaneChunkPool::kChunkBytes / 4);
}

TEST(LaneBuf, GrowsPastOneChunkOnTheHeap)
{
    LaneVec v;
    for (VAddr i = 0; i < LaneVec::kChunkCap; ++i)
        v.push_back(i);
    EXPECT_EQ(v.capacity(), LaneVec::kChunkCap);
    const VAddr *chunk = v.data();
    v.push_back(LaneVec::kChunkCap); // the chunk goes back to the pool
    EXPECT_GT(v.capacity(), LaneVec::kChunkCap);
    LaneVec next;
    next.push_back(0);
    EXPECT_EQ(next.data(), chunk);
    v.push_back(v[3]); // aliases an element that the next growth moves
    for (VAddr i = 0; i <= LaneVec::kChunkCap; ++i)
        ASSERT_EQ(v[i], i);
    EXPECT_EQ(v.back(), 3u);

    LaneVec big;
    big.reserve(1000);
    EXPECT_GE(big.capacity(), 1000u);
    big.assign(1000, 7);
    EXPECT_EQ(big.size(), 1000u);
    EXPECT_EQ(big[999], 7u);
}

TEST(LaneBuf, CopiesAreDeep)
{
    LaneVec a;
    for (VAddr i = 0; i < 10; ++i)
        a.push_back(i);
    LaneVec b(a);
    ASSERT_EQ(b.size(), 10u);
    EXPECT_NE(b.data(), a.data());
    b[0] = 42;
    EXPECT_EQ(a[0], 0u);

    LaneVec big;
    big.assign(500, 1);
    LaneVec c;
    c.push_back(9);
    c = big;
    EXPECT_EQ(c.size(), 500u);
    EXPECT_NE(c.data(), big.data());
    c = a; // shrinking copy keeps c's heap block
    EXPECT_EQ(c.size(), 10u);
    EXPECT_EQ(c[9], 9u);
    c = c;
    EXPECT_EQ(c.size(), 10u);
}

TEST(LaneBuf, ChunkReleasedOnAnotherThreadJoinsThatThreadsPool)
{
    LaneVec v;
    v.push_back(7);
    const VAddr *chunk = v.data();
    std::thread t([&] {
        {
            LaneVec mine = std::move(v);
            EXPECT_EQ(mine[0], 7u);
        }
        LaneVec w;
        w.push_back(1);
        EXPECT_EQ(w.data(), chunk);
    });
    t.join();
    EXPECT_TRUE(v.empty());
}

TEST(LaneBuf, ChunkReleasedAfterThreadExitIsDeleted)
{
    // `late` is constructed before the pool's thread-exit reaper is
    // armed, so it is destroyed after the pool is gone; its chunk must
    // be freed directly (the sanitizer jobs catch a leak or a push
    // onto a dead list).
    std::thread t([] {
        thread_local LaneVec late;
        late.push_back(1);
        LaneVec early;
        early.push_back(2);
    });
    t.join();
    SUCCEED();
}

KernelInfo
kernelWith(std::uint32_t tpb, std::uint32_t regs, std::uint32_t smem = 0)
{
    KernelInfo k;
    k.name = "test";
    k.threads_per_block = tpb;
    k.regs_per_thread = regs;
    k.smem_bytes_per_block = smem;
    return k;
}

TEST(Occupancy, ThreadLimited)
{
    GpuConfig g;
    const Occupancy occ = computeOccupancy(g, kernelWith(256, 8));
    EXPECT_EQ(occ.thread_limit, 4u);
    EXPECT_EQ(occ.blocks_per_sm, 4u);
    EXPECT_TRUE(occ.sparseCapacityForExtraBlock());
}

TEST(Occupancy, RegisterLimited)
{
    GpuConfig g; // 256 KB regfile
    // 128 threads x 200 regs x 4B = 100 KB per block -> 2 blocks.
    const Occupancy occ = computeOccupancy(g, kernelWith(128, 200));
    EXPECT_EQ(occ.register_limit, 2u);
    EXPECT_EQ(occ.blocks_per_sm, 2u);
}

TEST(Occupancy, GraphKernelHasNoSpareCapacity)
{
    // The paper's argument: at 256 threads x 56 regs, thread and
    // register limits are both ~4: baseline VT cannot host an extra
    // block for free.
    GpuConfig g;
    const Occupancy occ = computeOccupancy(g, kernelWith(256, 56));
    EXPECT_EQ(occ.blocks_per_sm, 4u);
    EXPECT_FALSE(occ.sparseCapacityForExtraBlock());
}

TEST(Occupancy, SharedMemoryLimited)
{
    GpuConfig g;
    const Occupancy occ = computeOccupancy(g, kernelWith(64, 8, 40000));
    EXPECT_EQ(occ.smem_limit, 1u);
    EXPECT_EQ(occ.blocks_per_sm, 1u);
}

TEST(Occupancy, ContextBytesCountRegistersPlusState)
{
    const KernelInfo k = kernelWith(256, 56);
    EXPECT_EQ(contextBytes(k, 5 * 1024), 256u * 56 * 4 + 5 * 1024);
}

WarpProgram
threeOps(WarpCtx)
{
    co_yield WarpOp::compute(5);
    co_yield loadOf(VAddr{0x100}, VAddr{0x200});
    co_yield WarpOp::sync();
}

TEST(WarpProgram, GeneratorYieldsOpsInOrder)
{
    WarpProgram p = threeOps(WarpCtx{});
    ASSERT_TRUE(p.advance());
    EXPECT_EQ(p.current().kind, WarpOp::Kind::Compute);
    EXPECT_EQ(p.current().cycles, 5u);
    ASSERT_TRUE(p.advance());
    EXPECT_EQ(p.current().kind, WarpOp::Kind::Load);
    EXPECT_EQ(p.current().addrs.size(), 2u);
    ASSERT_TRUE(p.advance());
    EXPECT_EQ(p.current().kind, WarpOp::Kind::Sync);
    EXPECT_FALSE(p.advance());
}

TEST(WarpProgram, MoveTransfersOwnership)
{
    WarpProgram p = threeOps(WarpCtx{});
    WarpProgram q = std::move(p);
    EXPECT_FALSE(p.valid());
    EXPECT_TRUE(q.valid());
    EXPECT_TRUE(q.advance());
}

TEST(WarpProgram, LaneHelpers)
{
    WarpCtx ctx;
    ctx.block_id = 3;
    ctx.warp_in_block = 2;
    ctx.threads_per_block = 96; // 3 warps of 32
    ctx.num_blocks = 8;
    EXPECT_EQ(ctx.laneCount(), 32u);
    EXPECT_EQ(ctx.globalThread(5), 3u * 96 + 2 * 32 + 5);
    EXPECT_EQ(ctx.totalThreads(), 768u);

    ctx.threads_per_block = 80; // warp 2 covers threads 64..79
    EXPECT_EQ(ctx.laneCount(), 16u);
    ctx.warp_in_block = 3; // past the end
    EXPECT_EQ(ctx.laneCount(), 0u);
}

TEST(WarpOp, KindPredicates)
{
    EXPECT_TRUE(WarpOp::load(LaneVec{}).isMemory());
    EXPECT_TRUE(WarpOp::store(LaneVec{}).isMemory());
    EXPECT_TRUE(WarpOp::atomic(LaneVec{}).isMemory());
    EXPECT_FALSE(WarpOp::compute(1).isMemory());
    EXPECT_FALSE(WarpOp::sync().isMemory());
}

} // namespace
} // namespace bauvm
