/**
 * @file
 * The streamed graph pipeline: seed-addressable R-MAT block stream,
 * external-memory CSR builder, parameter validation, build-cache
 * keying, the bounded-RSS guarantee that makes WorkloadScale::Huge
 * viable, and the in-core build's peak RSS at WorkloadScale::Large.
 * The differential tests pin the central contract: a streamed build
 * is bit-identical to the in-core build it replaces.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generator.h"
#include "src/graph/graph_cache.h"
#include "src/graph/stream/csr_stream_builder.h"
#include "src/graph/stream/rmat_stream.h"
#include "src/sim/log.h"
#include "src/workloads/workload.h"
#include "src/workloads/workload_registry.h"

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

/** Restores the process-wide stream policy on scope exit. */
struct ScopedStreamConfig {
    GraphStreamConfig saved = graphStreamConfig();
    ~ScopedStreamConfig() { graphStreamConfig() = saved; }
};

// ---- block stream ---------------------------------------------------

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
    // generateRmat() never calls fromEdges(), draws in chunks that
    // start by jump and writes each reverse edge itself; the blocks
    // replay the sequence from captured RNG states.
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

TEST(GraphDigest, PinnedAcrossEveryBuildPath)
{
    // The in-core and streamed paths share the quadrant draw, so the
    // differential tests cannot see a change to the draw itself; these
    // fixed digests can. Every build path must reproduce them.
    struct Row {
        const char *name;
        RmatParams params;
        std::uint32_t edges_per_block; //!< streamed build
        std::uint64_t scratch_bytes;   //!< streamed build
        std::uint64_t raw;             //!< generateRmat
        std::uint64_t relabeled;       //!< relabelByDegree, streamed
    };
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
    const Row rows[] = {
        {"bfs-tiny", rmat(4096, 32768, 1), 1000, 16 << 10,
         0x3c85a30de3392fadull, 0x59a3e864886bcd37ull},
        {"bfs-small", rmat(32768, 524288, 1), 1u << 14, 1 << 20,
         0x9e057e5648144cb9ull, 0x814bb3bb7cebd6a1ull},
        {"bfs-large", rmat(262144, 4 << 20, 12345), 1u << 16, 16 << 20,
         0x04f03ccdb4ada9ddull, 0x62e455b7dd7d84e5ull},
        {"sssp-weighted", sssp, 1000, 16 << 10, 0xe29ae324b714028dull,
         0x8ce30ba79a2f7b6dull},
        {"directed", directed, 1000, 16 << 10, 0xbde48369a9177a1cull,
         0x67fc4344c47c423eull},
        {"n3", rmat(3, 64, 5), 10, 64, 0x94ad4d0eec55c525ull,
         0x94ad4d0eec55c525ull},
        {"n1000", rmat(1000, 8192, 6), 1000, 4 << 10, 0x0b721d158f21980bull,
         0x90faf377fc623ba9ull},
        {"all-self-loops", self_loops, 1000, 4 << 10, 0x93856c9d96ea8799ull,
         0x93856c9d96ea8799ull},
        {"skewed", skewed, 1000, 16 << 10, 0x07738ab28706be27ull,
         0x3c832e8997014fa1ull},
        {"asymmetric", asymmetric, 1000, 16 << 10, 0x84f1b632fd8194b5ull,
         0x86fa666f527861dfull},
    };
    // Every thread count, with chunks down to one edge so that even
    // the smallest rows split: the bytes must not depend on either.
    for (const Row &row : rows) {
        for (const std::size_t threads : {1, 2, 3, 4, 7}) {
            SCOPED_TRACE(std::string(row.name) + " on " +
                         std::to_string(threads) + " threads");
            const BuildThreads bt{threads, /*min_chunk_edges=*/1};
            const CsrGraph raw = generateRmat(row.params, bt);
            StreamCsrOptions opt;
            opt.edges_per_block = row.edges_per_block;
            opt.scratch_bytes = row.scratch_bytes;
            opt.threads = bt;
            const std::uint64_t got[] = {
                graphDigest(raw), graphDigest(relabelByDegree(raw, bt)),
                graphDigest(buildCsrStreamed(row.params, opt))};
            EXPECT_EQ(got[0], row.raw) << std::hex << got[0];
            EXPECT_EQ(got[1], row.relabeled) << std::hex << got[1];
            EXPECT_EQ(got[2], row.relabeled) << std::hex << got[2];
        }
    }
}

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
        opt.edges_per_block = 100;
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

// ---- streamed CSR builder: differential vs in-core ------------------

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

TEST(StreamCsrBuilder, TinyScratchBudgetIsEquivalent)
{
    const RmatParams p = smallParams(/*seed=*/19);
    StreamCsrOptions tiny;
    tiny.scratch_bytes = 1u << 12; // forces many partition passes
    tiny.edges_per_block = 1u << 8;
    expectGraphsEqual(buildCsrStreamed(p, tiny), buildCsrStreamed(p));
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

    // Cache transparency: the shared graph is the fresh in-core build.
    expectGraphsEqual(*g1, relabelByDegree(generateRmat(p)));

    // The stream layout is part of the key: a different block size is
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

// ---- workload build path --------------------------------------------

TEST(GraphStreamWorkloadPath, ThresholdZeroStreamsEveryGraphWorkload)
{
    // Force every graph build through the external-memory path and
    // check the full frontier suite still validates against its host
    // references — end-to-end proof the streamed graph is the graph.
    ScopedStreamConfig guard;
    graphStreamConfig().stream_threshold_edges = 0;
    for (const std::string &name :
         WorkloadRegistry::instance().enumerate(WorkloadKind::Frontier)) {
        auto streamed = WorkloadRegistry::instance().create(name);
        streamed->build(WorkloadScale::Tiny, /*seed=*/1);
        runFunctional(*streamed);
        streamed->validate();

        graphStreamConfig() = guard.saved; // in-core control build
        auto in_core = WorkloadRegistry::instance().create(name);
        in_core->build(WorkloadScale::Tiny, /*seed=*/1);
        EXPECT_EQ(streamed->footprintBytes(), in_core->footprintBytes())
            << name;
        graphStreamConfig().stream_threshold_edges = 0;
    }
}

// ---- bounded-RSS guarantee ------------------------------------------

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

/** Builds the WorkloadScale::Huge graph with @p opt in a forked child
 *  and expects its peak RSS under the size of its edge list. */
void
expectHugeStreamedBuildUnderTheEdgeList(const StreamCsrOptions &opt)
{
    // WorkloadScale::Huge graph parameters (src/workloads/workload.cc).
    RmatParams p;
    p.num_vertices = 2097152;
    p.num_edges = 20971520;
    p.seed = 1;

    // The materialized undirected edge list, both directions of every
    // raw edge as 8-byte (src, dst) pairs (what CsrGraph::fromEdges
    // takes), is 2 * num_edges * 8 bytes. The streamed build of the
    // *whole graph* must stay under that.
    const std::uint64_t edge_list_bytes = 2 * p.num_edges * 8;

    const std::uint64_t maxrss_bytes = forkedPeakRssBytes([&] {
        const CsrGraph g = buildCsrStreamed(p, opt);
        return g.numVertices() == p.num_vertices &&
               g.numEdges() > p.num_edges &&
               g.numEdges() <= 2 * p.num_edges;
    });
    EXPECT_LT(maxrss_bytes, edge_list_bytes)
        << "peak RSS " << (maxrss_bytes >> 20) << " MiB reaches the "
        << (edge_list_bytes >> 20) << " MiB edge-list footprint";
}

TEST(StreamCsrBuilderRss, HugeBuildNeverMaterializesTheEdgeList)
{
#ifdef BAUVM_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory distorts RSS accounting";
#endif
    expectHugeStreamedBuildUnderTheEdgeList({});
}

TEST(StreamCsrBuilderRss, HugeBuildOn64ThreadsStaysUnderTheEdgeList)
{
#ifdef BAUVM_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory distorts RSS accounting";
#endif
    // Each capture thread past the first counts degrees into its own
    // 16 MiB array at this n: uncapped, 64 threads would add ~1 GiB.
    StreamCsrOptions opt;
    opt.threads = BuildThreads{64};
    expectHugeStreamedBuildUnderTheEdgeList(opt);
}

// At Large the raw draws (8 B each) and the CSR columns (4 B per
// directed edge) take 32 MiB each, and the relabel holds two CSR
// copies of 34 MiB each. Peaks measured on a 4-CPU host, each test in
// a process of its own: 74 MiB at the default threads, 85 MiB on 64
// threads (16 chunks, the cap at Large, which any host with 16 or more
// cores also reaches by default). Chunk lists that hold both
// directions of every draw peak at 105 and 165 MiB; uncapped chunks
// peak at 133 MiB on 64 threads. The bound leaves 9 MiB
// over the capped build and 11 MiB under the doubled lists.
constexpr std::uint64_t kLargeInCoreBuildBoundMiB = 94;

/** Builds the WorkloadScale::Large graph in core, the way a Large
 *  graph workload does (generateRmat, then relabelByDegree), on
 *  @p threads in a forked child and expects its peak RSS under
 *  kLargeInCoreBuildBoundMiB. */
void
expectLargeInCoreBuildUnder(const BuildThreads &threads)
{
    RmatParams p;
    p.num_vertices = 262144;
    p.num_edges = 4 << 20;
    p.seed = 2;
    const std::uint64_t maxrss_bytes = forkedPeakRssBytes([&] {
        const CsrGraph g = relabelByDegree(generateRmat(p, threads),
                                           threads);
        return g.numVertices() == p.num_vertices &&
               g.numEdges() > p.num_edges &&
               g.numEdges() <= 2 * p.num_edges;
    });
    EXPECT_LT(maxrss_bytes, kLargeInCoreBuildBoundMiB << 20)
        << "peak RSS " << (maxrss_bytes >> 20) << " MiB";
}

TEST(InCoreBuildRss, LargeBuildKeepsOnlyTheRawDraws)
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
