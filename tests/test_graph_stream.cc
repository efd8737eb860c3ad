/**
 * @file
 * The R-MAT graph build (buildRmatCsr) against its oracles: the legacy
 * block stream and floating-point quadrant draw (tests/oracles), the
 * pinned graph digests, relabelByDegree over a raw build; parameter
 * validation, build-cache keying, and the build's peak RSS at
 * WorkloadScale::Large and WorkloadScale::Huge.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generator.h"
#include "src/graph/graph_cache.h"
#include "src/graph/rmat_draw.h"
#include "src/graph/stream/csr_stream_builder.h"
#include "src/sim/log.h"
#include "tests/oracles/legacy_rmat_stream.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BAUVM_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BAUVM_SANITIZED 1
#endif
#endif

namespace bauvm
{
namespace
{

RmatParams
smallParams(std::uint64_t seed = 3, bool weighted = false)
{
    RmatParams p;
    p.num_vertices = 1 << 10;
    p.num_edges = 1 << 13;
    p.weighted = weighted;
    p.seed = seed;
    return p;
}

void
expectGraphsEqual(const CsrGraph &got, const CsrGraph &want)
{
    EXPECT_EQ(got.rowOffsets(), want.rowOffsets());
    EXPECT_EQ(got.colIndices(), want.colIndices());
    EXPECT_EQ(got.weights(), want.weights());
}

// ---- the legacy block stream as oracle ------------------------------

TEST(RmatStream, BlocksAreOrderIndependent)
{
    const StreamedRmatGenerator gen(smallParams(), /*edges_per_block=*/512);
    ASSERT_GT(gen.numBlocks(), 3u);

    // Regenerate out of order, then in order; contents must agree.
    std::vector<RmatStreamBlock> shuffled(gen.numBlocks());
    for (std::uint64_t b = gen.numBlocks(); b-- > 0;)
        gen.block(b, &shuffled[b]);
    for (std::uint64_t b = 0; b < gen.numBlocks(); ++b) {
        RmatStreamBlock ordered;
        gen.block(b, &ordered);
        EXPECT_EQ(ordered.edges, shuffled[b].edges) << "block " << b;
        EXPECT_EQ(ordered.weights, shuffled[b].weights) << "block " << b;
    }
}

TEST(RmatStream, GranularityDoesNotChangeTheStream)
{
    auto concat = [](const RmatParams &p, std::uint32_t epb) {
        const StreamedRmatGenerator gen(p, epb);
        RmatStreamBlock all, block;
        for (std::uint64_t b = 0; b < gen.numBlocks(); ++b) {
            gen.block(b, &block);
            all.edges.insert(all.edges.end(), block.edges.begin(),
                             block.edges.end());
            all.weights.insert(all.weights.end(), block.weights.begin(),
                               block.weights.end());
        }
        return all;
    };
    const RmatParams weighted = smallParams(/*seed=*/9, /*weighted=*/true);
    const RmatStreamBlock coarse = concat(weighted, 1u << 12);
    const RmatStreamBlock fine = concat(weighted, 1u << 7);
    EXPECT_EQ(coarse.edges, fine.edges);
    EXPECT_EQ(coarse.weights, fine.weights);

    // And CsrGraph::fromEdges() over the concatenation is exactly what
    // generateRmat() builds, on any thread count. A real differential:
    // generateRmat() never calls fromEdges(), draws on integer
    // thresholds in chunks that start by jump (or, if weighted, at
    // states its own serial pass found), and writes each edge and its
    // reverse itself; the blocks replay the floating-point draw from
    // captured RNG states.
    const RmatParams undirected = smallParams(/*seed=*/9);
    RmatParams directed = undirected;
    directed.undirected = false;
    for (const RmatParams &p : {undirected, directed, weighted}) {
        const RmatStreamBlock all = concat(p, 1u << 7);
        const CsrGraph from_stream = CsrGraph::fromEdges(
            rmatVertexCount(p), all.edges, all.weights);
        for (const std::size_t threads : {1, 2, 7}) {
            SCOPED_TRACE(std::string(p.weighted     ? "weighted"
                                     : p.undirected ? "undirected"
                                                    : "directed") +
                         " on " + std::to_string(threads) + " threads");
            const BuildThreads bt{threads, /*min_chunk_edges=*/1};
            expectGraphsEqual(generateRmat(p, bt), from_stream);
        }
    }
}

TEST(RmatStream, TailBlockHoldsTheRemainder)
{
    RmatParams p = smallParams();
    p.num_edges = 1000; // 3 blocks of 400: 400 + 400 + 200
    const StreamedRmatGenerator gen(p, 400);
    ASSERT_EQ(gen.numBlocks(), 3u);
    EXPECT_EQ(gen.rawEdgesInBlock(0), 400u);
    EXPECT_EQ(gen.rawEdgesInBlock(1), 400u);
    EXPECT_EQ(gen.rawEdgesInBlock(2), 200u);
}

// ---- the integer-threshold draw against the oracle draw -------------

/** A generator whose next Rng::next() returns @p out: xoshiro256**
 *  outputs rotl(s[1] * 5, 7) * 9, so s[1] follows from @p out (5 and 9
 *  are odd, so invertible mod 2^64); the other words come from
 *  @p seed. */
Rng
rngYielding(std::uint64_t out, std::uint64_t seed)
{
    const auto inverse = [](std::uint64_t odd) {
        std::uint64_t inv = odd; // Newton: each step doubles the bits
        for (int i = 0; i < 6; ++i)
            inv *= 2 - odd * inv;
        return inv;
    };
    const std::uint64_t rotated = out * inverse(9);
    Rng::State state = Rng(seed).state();
    state[1] = ((rotated >> 7) | (rotated << 57)) * inverse(5);
    Rng rng(state);
    EXPECT_EQ(Rng(state).next(), out);
    return rng;
}

TEST(RmatDrawDifferential, MatchesTheOracleDrawEdgeByEdge)
{
    struct Case {
        const char *name;
        double a, b, c;
        VertexId n;
        bool weighted;
    };
    const double just_under_one = std::nextafter(1.0, 0.0);
    const Case cases[] = {
        {"default", 0.57, 0.19, 0.19, 4096, false},
        {"default-weighted", 0.57, 0.19, 0.19, 4096, true},
        {"all-zero", 0.0, 0.0, 0.0, 1000, true},
        // (a + b) + c is exactly the largest double below 1.
        {"sum-just-under-one", 0.5, 0.25, just_under_one - 0.75, 1000,
         true},
        // t * 2^53 integral at every threshold (0.5, 0.75, 0.875 and
        // 0.25, 0.5, 0.75) ...
        {"dyadic", 0.5, 0.25, 0.125, 1000, false},
        {"quarters", 0.25, 0.25, 0.25, 1000, false},
        // ... and not: 1/3 * 2^53, like 0.1 * 2^53 below, has a
        // fraction.
        {"third", 1.0 / 3, 0.25, 1.0 / 3, 1000, true},
        {"skewed", 0.9, 0.04, 0.04, 4096, false},
        {"asymmetric", 0.1, 0.2, 0.3, 4096, true},
        {"n2", 0.57, 0.19, 0.19, 2, true},
        {"n3", 0.57, 0.19, 0.19, 3, false},
        {"n1000", 0.57, 0.19, 0.19, 1000, true},
        {"n2^31", 0.45, 0.22, 0.22, kMaxRmatVertices, true},
    };
    ASSERT_EQ(0.5 + 0.25 + (just_under_one - 0.75), just_under_one);
    ASSERT_NE(std::ldexp(1.0 / 3, 53), std::floor(std::ldexp(1.0 / 3, 53)));
    ASSERT_NE(std::ldexp(0.1, 53), std::floor(std::ldexp(0.1, 53)));
    for (const Case &k : cases) {
        SCOPED_TRACE(k.name);
        RmatParams p;
        p.num_vertices = k.n;
        p.a = k.a;
        p.b = k.b;
        p.c = k.c;
        p.weighted = k.weighted;
        validateRmatParams(p);
        const QuadrantDraw oracle(p, rmatVertexCount(p));
        const RmatDraw draw(p);
        Rng want_rng(k.n), got_rng(k.n);
        std::uint64_t kept = 0;
        for (int e = 0; e < 20000; ++e) {
            VertexId want_src = 0, want_dst = 0, got_src = 0, got_dst = 0;
            std::uint32_t want_w = 0, got_w = 0;
            const bool want =
                oracle(want_rng, &want_src, &want_dst, &want_w);
            const bool got = draw(got_rng, &got_src, &got_dst, &got_w);
            ASSERT_EQ(got, want) << "edge " << e;
            ASSERT_EQ(got_rng.state(), want_rng.state()) << "edge " << e;
            if (!want)
                continue;
            ++kept;
            ASSERT_EQ(got_src, want_src) << "edge " << e;
            ASSERT_EQ(got_dst, want_dst) << "edge " << e;
            ASSERT_EQ(got_w, want_w) << "edge " << e;
        }
        // Quadrant d alone draws only self loops; every other case
        // must draw real edges for the comparison to mean anything.
        EXPECT_EQ(kept == 0, k.a + k.b + k.c == 0.0);

        // Random draws almost never land next to a threshold, so start
        // an edge's first quadrant draw on each side of each one: the
        // top 53 bits of the output at ceil(t * 2^53) and one below,
        // with the low 11 bits, which both draws drop, clear and set.
        for (const double t : {k.a, k.a + k.b, k.a + k.b + k.c}) {
            const auto at = static_cast<std::uint64_t>(
                std::ceil(std::ldexp(t, 53)));
            for (const std::uint64_t x : {at - 1, at}) {
                if (x >= std::uint64_t{1} << 53)
                    continue; // at == 0: nothing lies below
                for (const std::uint64_t low : {0x000ull, 0x7ffull}) {
                    SCOPED_TRACE(testing::Message()
                                 << "threshold " << t << ", x " << x);
                    Rng want_rng = rngYielding(x << 11 | low, k.n);
                    Rng got_rng = want_rng;
                    VertexId want_src = 0, want_dst = 0, got_src = 0,
                             got_dst = 0;
                    std::uint32_t want_w = 0, got_w = 0;
                    ASSERT_EQ(draw(got_rng, &got_src, &got_dst, &got_w),
                              oracle(want_rng, &want_src, &want_dst,
                                     &want_w));
                    EXPECT_EQ(got_rng.state(), want_rng.state());
                    EXPECT_EQ(got_src, want_src);
                    EXPECT_EQ(got_dst, want_dst);
                    EXPECT_EQ(got_w, want_w);
                }
            }
        }
    }
}

// ---- pinned graph digests -------------------------------------------

/** FNV-style digest of rowOffsets, then colIndices, then weights, each
 *  element widened to u64. */
std::uint64_t
graphDigest(const CsrGraph &g)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](const auto &values) {
        for (const auto x : values)
            h = (h ^ static_cast<std::uint64_t>(x)) * 1099511628211ull;
    };
    mix(g.rowOffsets());
    mix(g.colIndices());
    mix(g.weights());
    return h;
}

RmatParams
rmat(VertexId n, std::uint64_t edges, std::uint64_t seed)
{
    RmatParams p;
    p.num_vertices = n;
    p.num_edges = edges;
    p.seed = seed;
    return p;
}

// Fixed digests, recorded from the original generator, pin the draw
// itself and the order within every row. Every build path must
// reproduce them: the raw build, relabelByDegree over it, and the
// direct relabeled build through the buildCsrStreamed shim. One test
// case per row, so ctest runs the rows in parallel.
struct PinnedRow {
    const char *name;
    RmatParams params;
    std::uint64_t raw;       //!< generateRmat
    std::uint64_t relabeled; //!< relabelByDegree, buildCsrStreamed
};

void
PrintTo(const PinnedRow &row, std::ostream *os)
{
    *os << row.name;
}

std::vector<PinnedRow>
pinnedRows()
{
    RmatParams sssp = rmat(4096, 32768, 2);
    sssp.weighted = true;
    RmatParams directed = rmat(4096, 32768, 3);
    directed.undirected = false;
    RmatParams self_loops = rmat(1024, 4096, 7);
    self_loops.a = self_loops.b = self_loops.c = 0.0;
    self_loops.weighted = true;
    RmatParams skewed = rmat(4096, 32768, 8);
    skewed.a = 0.9;
    skewed.b = 0.04;
    skewed.c = 0.04;
    RmatParams asymmetric = rmat(4096, 32768, 9); // b != c
    asymmetric.a = 0.1;
    asymmetric.b = 0.2;
    asymmetric.c = 0.3;
    asymmetric.weighted = true;
    return {
        {"bfs-tiny", rmat(4096, 32768, 1),
         0x3c85a30de3392fadull, 0x59a3e864886bcd37ull},
        {"bfs-small", rmat(32768, 524288, 1),
         0x9e057e5648144cb9ull, 0x814bb3bb7cebd6a1ull},
        {"bfs-large", rmat(262144, 4 << 20, 12345),
         0x04f03ccdb4ada9ddull, 0x62e455b7dd7d84e5ull},
        {"sssp-weighted", sssp, 0xe29ae324b714028dull, 0x8ce30ba79a2f7b6dull},
        {"directed", directed, 0xbde48369a9177a1cull, 0x67fc4344c47c423eull},
        {"n3", rmat(3, 64, 5), 0x94ad4d0eec55c525ull, 0x94ad4d0eec55c525ull},
        {"n1000", rmat(1000, 8192, 6),
         0x0b721d158f21980bull, 0x90faf377fc623ba9ull},
        {"all-self-loops", self_loops,
         0x93856c9d96ea8799ull, 0x93856c9d96ea8799ull},
        {"skewed", skewed, 0x07738ab28706be27ull, 0x3c832e8997014fa1ull},
        {"asymmetric", asymmetric,
         0x84f1b632fd8194b5ull, 0x86fa666f527861dfull},
    };
}

class GraphDigest : public testing::TestWithParam<PinnedRow>
{
};

TEST_P(GraphDigest, PinnedAcrossEveryBuildPath)
{
    const PinnedRow &row = GetParam();
    // Every thread count, with chunks down to one edge so that even
    // the smallest rows split: the bytes must not depend on either.
    for (const std::size_t threads : {1, 2, 3, 4, 7}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        const BuildThreads bt{threads, /*min_chunk_edges=*/1};
        const CsrGraph raw = generateRmat(row.params, bt);
        StreamCsrOptions opt;
        opt.threads = bt;
        const std::uint64_t got[] = {
            graphDigest(raw), graphDigest(relabelByDegree(raw, bt)),
            graphDigest(buildCsrStreamed(row.params, opt))};
        EXPECT_EQ(got[0], row.raw) << std::hex << got[0];
        EXPECT_EQ(got[1], row.relabeled) << std::hex << got[1];
        EXPECT_EQ(got[2], row.relabeled) << std::hex << got[2];
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, GraphDigest, testing::ValuesIn(pinnedRows()),
    [](const testing::TestParamInfo<PinnedRow> &info) {
        std::string name = info.param.name;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(GraphBuildThreads, ChunksAreOnePerThreadAndNeverTooSmall)
{
    EXPECT_EQ((BuildThreads{4, 1000}.chunksFor(999)), 1u);
    EXPECT_EQ((BuildThreads{4, 1000}.chunksFor(2999)), 2u);
    EXPECT_EQ((BuildThreads{4, 1000}.chunksFor(1u << 20)), 4u);
    EXPECT_EQ((BuildThreads{1, 1}.chunksFor(1u << 20)), 1u);
    EXPECT_GE((BuildThreads{0, 1}.chunksFor(1u << 20)), 1u);
    EXPECT_EQ((BuildThreads{7, 1}.chunksFor(3)), 3u);
}

TEST(GraphBuildThreads, UnweightedSelfLoopsOnlyBuildAnEmptyGraph)
{
    // Every draw lands in quadrant d, so every edge is the self loop
    // (n - 1, n - 1) and is dropped, in every chunk.
    RmatParams p = rmat(1000, 1u << 12, 4);
    p.a = p.b = p.c = 0.0;
    for (const std::size_t threads : {1, 2, 3, 4, 7}) {
        SCOPED_TRACE(threads);
        const BuildThreads bt{threads, /*min_chunk_edges=*/1};
        const CsrGraph raw = generateRmat(p, bt);
        EXPECT_EQ(raw.numVertices(), 1024u);
        EXPECT_EQ(raw.numEdges(), 0u);
        expectGraphsEqual(relabelByDegree(raw, bt), raw);
        StreamCsrOptions opt;
        opt.threads = bt;
        expectGraphsEqual(buildCsrStreamed(p, opt), raw);
    }
}

// ---- parameter validation -------------------------------------------

void
expectRmatFatal(const RmatParams &p, const std::string &needle)
{
    ScopedAbortCapture capture;
    try {
        validateRmatParams(p);
        ADD_FAILURE() << "params must be rejected: " << needle;
    } catch (const SimAbort &e) {
        EXPECT_FALSE(e.isPanic()); // fatal(), not a model panic
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(RmatParamValidation, RejectsNegativeProbability)
{
    RmatParams p = smallParams();
    p.b = -0.1;
    expectRmatFatal(p, "negative partition probability");
}

TEST(RmatParamValidation, RejectsProbabilitiesReachingOne)
{
    RmatParams p = smallParams();
    p.a = 0.5;
    p.b = 0.3;
    p.c = 0.2; // exactly 1: quadrant d would have probability zero
    expectRmatFatal(p, "a + b + c < 1");
    p.c = 0.4; // above 1
    expectRmatFatal(p, "a + b + c < 1");
}

TEST(RmatParamValidation, RejectsZeroEdges)
{
    RmatParams p = smallParams();
    p.num_edges = 0;
    expectRmatFatal(p, "num_edges");
}

TEST(RmatParamValidation, RejectsVertexCountsPastTheRoundUpLimit)
{
    // Past 2^31 the power-of-two round-up would wrap a 32-bit id.
    RmatParams p = smallParams();
    p.num_edges = 1;
    for (const VertexId n : {kMaxRmatVertices + 1, ~VertexId{0}}) {
        p.num_vertices = n;
        expectRmatFatal(p, "2^31 limit");
        ScopedAbortCapture capture;
        EXPECT_THROW(StreamedRmatGenerator{p}, SimAbort);
        EXPECT_THROW(generateRmat(p), SimAbort);
    }
    p.num_vertices = kMaxRmatVertices; // the boundary itself is valid
    validateRmatParams(p);             // must not throw; builds nothing
}

TEST(RmatParamValidation, RejectsEdgeCountsPastTheInRowCounters)
{
    // generateRmat counts a row's edges in 32 bits, so a graph must
    // have fewer than 2^32 directed edges (validation builds nothing).
    RmatParams p = smallParams();
    p.num_edges = std::uint64_t{1} << 31; // 2^32 directed edges
    expectRmatFatal(p, "2^32 or more directed edges");
    p.num_edges = ~std::uint64_t{0}; // doubling would wrap 64 bits
    expectRmatFatal(p, "2^32 or more directed edges");
    p.num_edges = std::uint64_t{1} << 32;
    p.undirected = false;
    expectRmatFatal(p, "2^32 or more directed edges");

    p.num_edges = UINT32_MAX; // the boundaries themselves are valid
    validateRmatParams(p);
    p.undirected = true;
    p.num_edges = UINT32_MAX / 2;
    validateRmatParams(p);
}

TEST(RmatParamValidation, AcceptsBoundaryProbabilities)
{
    RmatParams p = smallParams();
    p.a = 0.5;
    p.b = 0.3;
    p.c = 0.19999; // just under the a + b + c < 1 boundary
    validateRmatParams(p); // must not throw
    const CsrGraph g = generateRmat(p);
    EXPECT_GT(g.numEdges(), 0u);
}

TEST(RmatParamValidation, GenerateRmatRejectsThroughTheSamePath)
{
    RmatParams p = smallParams();
    p.num_edges = 0;
    ScopedAbortCapture capture;
    EXPECT_THROW(generateRmat(p), SimAbort);
}

// ---- direct relabeled build vs relabelByDegree over a raw build -----

TEST(StreamCsrBuilder, MatchesInCoreRelabeledBuild)
{
    for (const std::uint64_t scale_edges :
         {1ull << 13, 1ull << 15, 1ull << 17}) {
        RmatParams p = smallParams(/*seed=*/11);
        p.num_vertices = static_cast<VertexId>(scale_edges >> 3);
        p.num_edges = scale_edges;
        const CsrGraph in_core = relabelByDegree(generateRmat(p));
        expectGraphsEqual(buildCsrStreamed(p), in_core);
    }
}

TEST(StreamCsrBuilder, MatchesInCoreRawBuildWithoutRelabel)
{
    const RmatParams p = smallParams(/*seed=*/13);
    StreamCsrOptions opt;
    opt.relabel_by_degree = false;
    expectGraphsEqual(buildCsrStreamed(p, opt), generateRmat(p));
}

TEST(StreamCsrBuilder, WeightedMatchesInCore)
{
    const RmatParams p = smallParams(/*seed=*/17, /*weighted=*/true);
    const CsrGraph streamed = buildCsrStreamed(p);
    ASSERT_TRUE(streamed.weighted());
    expectGraphsEqual(streamed, relabelByDegree(generateRmat(p)));
}

// ---- build cache keying ---------------------------------------------

TEST(GraphStreamCache, StreamedBuildsShareOneGraphPerKey)
{
    GraphBuildCache &cache = GraphBuildCache::instance();
    GraphBuildCache::Scope scope;
    const RmatParams p = smallParams(/*seed=*/5);
    GraphBuildCache::Key key;
    key.vertices = p.num_vertices;
    key.edges = p.num_edges;
    key.seed = p.seed;
    key.streamed = true;
    key.edges_per_block = kDefaultEdgesPerBlock;

    const std::uint64_t builds0 = cache.builds();
    const auto build = [&] { return buildCsrStreamed(p); };
    const auto g1 = cache.getOrBuild(key, build);
    const auto g2 = cache.getOrBuild(key, build);
    EXPECT_EQ(g1.get(), g2.get()) << "one shared build per key";
    EXPECT_EQ(cache.builds() - builds0, 1u);

    // Cache transparency: the shared graph is the fresh raw build,
    // relabeled.
    expectGraphsEqual(*g1, relabelByDegree(generateRmat(p)));

    // The stream fields are part of the key: a different block size is
    // a distinct entry (same bits, built separately).
    GraphBuildCache::Key key2 = key;
    key2.edges_per_block = 1u << 8;
    const auto g3 = cache.getOrBuild(key2, [&] {
        StreamCsrOptions opt;
        opt.edges_per_block = 1u << 8;
        return buildCsrStreamed(p, opt);
    });
    EXPECT_EQ(cache.builds() - builds0, 2u);
    EXPECT_NE(g3.get(), g1.get());
    expectGraphsEqual(*g3, *g1);
}

// ---- peak RSS of a build --------------------------------------------

/** Runs @p build in a forked child and returns the child's peak RSS
 *  in bytes; fails the test if @p build returns false. */
std::uint64_t
forkedPeakRssBytes(const std::function<bool()> &build)
{
    const pid_t pid = fork();
    if (pid < 0) {
        ADD_FAILURE() << "fork failed";
        return 0;
    }
    if (pid == 0) {
        // Child: report via exit status (no gtest machinery here).
        _exit(build() ? 0 : 1);
    }
    int status = 0;
    struct rusage ru = {};
    EXPECT_EQ(wait4(pid, &status, 0, &ru), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child build failed";
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024; // KiB
}

/** Builds the WorkloadScale::Huge graph on @p threads in a forked
 *  child, the way a Huge graph workload does, and expects its peak RSS
 *  under the size of its edge list. */
void
expectHugeBuildUnderTheEdgeList(const BuildThreads &threads)
{
    // WorkloadScale::Huge graph parameters (src/workloads/workload.cc).
    RmatParams p;
    p.num_vertices = 2097152;
    p.num_edges = 20971520;
    p.seed = 1;

    // The materialized undirected edge list, both directions of every
    // raw edge as 8-byte (src, dst) pairs (what CsrGraph::fromEdges
    // takes), is 2 * num_edges * 8 bytes: 320 MiB. The build of the
    // whole graph must stay under that. Peaks measured on a 4-CPU host:
    // 218 MiB at the default threads, 267 MiB on 64 threads (10 chunks,
    // the cap at Huge: their row counters take 80 MiB).
    const std::uint64_t edge_list_bytes = 2 * p.num_edges * 8;

    const std::uint64_t maxrss_bytes = forkedPeakRssBytes([&] {
        const CsrGraph g = buildRmatCsr(p, RmatOrder::ByDegree, threads);
        return g.numVertices() == p.num_vertices &&
               g.numEdges() > p.num_edges &&
               g.numEdges() <= 2 * p.num_edges;
    });
    EXPECT_LT(maxrss_bytes, edge_list_bytes)
        << "peak RSS " << (maxrss_bytes >> 20) << " MiB reaches the "
        << (edge_list_bytes >> 20) << " MiB edge-list footprint";
}

TEST(HugeBuildRss, StaysUnderTheEdgeList)
{
#ifdef BAUVM_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory distorts RSS accounting";
#endif
    expectHugeBuildUnderTheEdgeList({});
}

TEST(HugeBuildRss, On64ThreadsStaysUnderTheEdgeList)
{
#ifdef BAUVM_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory distorts RSS accounting";
#endif
    expectHugeBuildUnderTheEdgeList(BuildThreads{64});
}

// At Large the CSR columns take 32 MiB (4 B per directed edge), the row
// offsets 2 MiB, and each chunk's row counters 1 MiB. Peaks measured
// on a 4-CPU host, each test in a process of its own: 41 MiB at the
// default threads, 54 MiB on 64 threads (16 chunks, the cap at Large,
// which any host with 16 or more cores also reaches by default).
// Building the raw graph and then relabeling it, which holds two CSR
// copies, peaks at 73 MiB. The bound leaves 10 MiB over the 64-thread
// build and 9 MiB under the two copies.
constexpr std::uint64_t kLargeInCoreBuildBoundMiB = 64;

/** Builds the WorkloadScale::Large graph the way a Large graph
 *  workload does (buildRmatCsr in RmatOrder::ByDegree) on @p threads
 *  in a forked child and expects its peak RSS under
 *  kLargeInCoreBuildBoundMiB. */
void
expectLargeInCoreBuildUnder(const BuildThreads &threads)
{
    RmatParams p;
    p.num_vertices = 262144;
    p.num_edges = 4 << 20;
    p.seed = 2;
    const std::uint64_t maxrss_bytes = forkedPeakRssBytes([&] {
        const CsrGraph g = buildRmatCsr(p, RmatOrder::ByDegree, threads);
        return g.numVertices() == p.num_vertices &&
               g.numEdges() > p.num_edges &&
               g.numEdges() <= 2 * p.num_edges;
    });
    EXPECT_LT(maxrss_bytes, kLargeInCoreBuildBoundMiB << 20)
        << "peak RSS " << (maxrss_bytes >> 20) << " MiB";
}

TEST(InCoreBuildRss, LargeBuildHoldsOneCsrAndTheRowCounters)
{
#ifdef BAUVM_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory distorts RSS accounting";
#endif
    expectLargeInCoreBuildUnder({});
}

TEST(InCoreBuildRss, LargeBuildOn64ThreadsCapsItsChunks)
{
#ifdef BAUVM_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory distorts RSS accounting";
#endif
    // Each chunk counts its rows into its own n-entry 32-bit array:
    // 1 MiB at this n, 64 MiB on 64 uncapped chunks.
    expectLargeInCoreBuildUnder(BuildThreads{64});
}

} // namespace
} // namespace bauvm
