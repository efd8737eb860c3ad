/**
 * @file
 * Tests for the graph substrate: CSR construction, generators and the
 * reference algorithms (checked against hand-computed small cases).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "src/graph/csr_graph.h"
#include "src/graph/generator.h"
#include "src/graph/reference_algorithms.h"
#include "src/sim/log.h"

namespace bauvm
{
namespace
{

CsrGraph
pathGraph(VertexId n)
{
    // 0 - 1 - 2 - ... - (n-1), undirected.
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 0; v + 1 < n; ++v) {
        edges.emplace_back(v, v + 1);
        edges.emplace_back(v + 1, v);
    }
    return CsrGraph::fromEdges(n, edges);
}

TEST(CsrGraph, FromEdgesBasics)
{
    const CsrGraph g = CsrGraph::fromEdges(
        3, {{0, 1}, {0, 2}, {2, 0}});
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 1u);
    const auto n0 = g.neighbors(0);
    EXPECT_EQ(n0[0], 1u);
    EXPECT_EQ(n0[1], 2u);
    g.validate();
}

TEST(CsrGraph, WeightsParallelToEdges)
{
    const CsrGraph g = CsrGraph::fromEdges(
        2, {{0, 1}, {1, 0}}, {7, 9});
    EXPECT_TRUE(g.weighted());
    EXPECT_EQ(g.edgeWeights(0)[0], 7u);
    EXPECT_EQ(g.edgeWeights(1)[0], 9u);
}

TEST(CsrGraph, SplitColumnCheckPanicsOnTheCallingThread)
{
    // A ring of 64 vertices: row v holds the single column v + 1.
    const VertexId n = 64;
    std::vector<std::uint64_t> row(n + 1);
    std::iota(row.begin(), row.end(), std::uint64_t{0});
    std::vector<VertexId> cols(n);
    for (VertexId v = 0; v < n; ++v)
        cols[v] = (v + 1) % n;

    ScopedAbortCapture capture;
    for (std::size_t parts : {1, 2, 3, 4, 7}) {
        EXPECT_EQ(CsrGraph::fromCsrArrays(row, cols, {}, parts).numEdges(),
                  n);
        // A bad column first, in the middle and last: whichever part
        // holds it, the panic reaches this thread's capture.
        for (std::size_t at : {std::size_t{0}, std::size_t{n / 2},
                               std::size_t{n - 1}}) {
            std::vector<VertexId> bad = cols;
            bad[at] = n;
            try {
                CsrGraph::fromCsrArrays(row, bad, {}, parts);
                ADD_FAILURE() << "column " << at << " out of range, "
                              << parts << " parts";
            } catch (const SimAbort &e) {
                EXPECT_TRUE(e.isPanic());
                EXPECT_NE(std::string(e.what()).find(
                              "CsrGraph: column index out of range"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(Generator, RmatIsDeterministic)
{
    RmatParams p;
    p.num_vertices = 256;
    p.num_edges = 1024;
    p.seed = 5;
    const CsrGraph a = generateRmat(p);
    const CsrGraph b = generateRmat(p);
    EXPECT_EQ(a.rowOffsets(), b.rowOffsets());
    EXPECT_EQ(a.colIndices(), b.colIndices());
}

TEST(Generator, RmatUndirectedIsSymmetric)
{
    RmatParams p;
    p.num_vertices = 128;
    p.num_edges = 512;
    const CsrGraph g = generateRmat(p);
    // Build a directed multiset and check symmetry by counting.
    std::map<std::pair<VertexId, VertexId>, int> count;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (VertexId nb : g.neighbors(v))
            ++count[{v, nb}];
    }
    for (const auto &[e, c] : count) {
        const auto reverse = std::make_pair(e.second, e.first);
        EXPECT_EQ(c, count[reverse]);
    }
}

TEST(Generator, RmatIsSkewed)
{
    RmatParams p;
    p.num_vertices = 4096;
    p.num_edges = 32768;
    const CsrGraph g = generateRmat(p);
    std::uint64_t max_deg = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        max_deg = std::max(max_deg, g.degree(v));
    const double avg = static_cast<double>(g.numEdges()) /
                       g.numVertices();
    // Power-law-ish: the hub dwarfs the average degree.
    EXPECT_GT(static_cast<double>(max_deg), 10.0 * avg);
}

TEST(Generator, UniformHasNoComparableSkew)
{
    const CsrGraph g = generateUniform(4096, 32768, true, false, 3);
    std::uint64_t max_deg = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        max_deg = std::max(max_deg, g.degree(v));
    const double avg = static_cast<double>(g.numEdges()) /
                       g.numVertices();
    EXPECT_LT(static_cast<double>(max_deg), 5.0 * avg);
}

TEST(Generator, GridHasBoundedDegree)
{
    const CsrGraph g = generateGrid(8, false, 1);
    EXPECT_EQ(g.numVertices(), 64u);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_LE(g.degree(v), 4u);
}

TEST(Reference, BfsOnPath)
{
    const CsrGraph g = pathGraph(5);
    const auto levels = reference::bfsLevels(g, 0);
    for (VertexId v = 0; v < 5; ++v)
        EXPECT_EQ(levels[v], v);
}

TEST(Reference, BfsUnreachableIsInfinity)
{
    const CsrGraph g =
        CsrGraph::fromEdges(3, {{0, 1}, {1, 0}}); // 2 isolated
    const auto levels = reference::bfsLevels(g, 0);
    EXPECT_EQ(levels[2], reference::kInfinity);
}

TEST(Reference, SsspPrefersLighterDetour)
{
    // 0->1 weight 10; 0->2 weight 1, 2->1 weight 2: best 0->2->1 = 3.
    const CsrGraph g = CsrGraph::fromEdges(
        3, {{0, 1}, {0, 2}, {2, 1}}, {10, 1, 2});
    const auto dist = reference::ssspDistances(g, 0);
    EXPECT_EQ(dist[1], 3u);
    EXPECT_EQ(dist[2], 1u);
}

TEST(Reference, PageRankSumsToOneOnConnectedGraph)
{
    const CsrGraph g = pathGraph(16);
    const auto pr = reference::pageRank(g, 20);
    const double sum = std::accumulate(pr.begin(), pr.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-6);
    // Ends of a path rank lower than the middle.
    EXPECT_LT(pr[0], pr[8]);
}

TEST(Reference, KcoreOfTriangleWithTail)
{
    // Triangle 0-1-2 plus tail 2-3.
    const CsrGraph g = CsrGraph::fromEdges(
        4, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0},
            {2, 3}, {3, 2}});
    const auto core = reference::kcore(g);
    EXPECT_EQ(core[0], 2u);
    EXPECT_EQ(core[1], 2u);
    EXPECT_EQ(core[2], 2u);
    EXPECT_EQ(core[3], 1u);
}

TEST(Reference, BcOnPathCountsInteriorVertices)
{
    // Path of 5 from source 0: delta[v] = number of shortest paths from
    // 0 passing through v = (#vertices beyond v).
    const CsrGraph g = pathGraph(5);
    const auto bc = reference::bcFromSource(g, 0);
    EXPECT_DOUBLE_EQ(bc[1], 3.0);
    EXPECT_DOUBLE_EQ(bc[2], 2.0);
    EXPECT_DOUBLE_EQ(bc[3], 1.0);
    EXPECT_DOUBLE_EQ(bc[4], 0.0);
}

TEST(Reference, ProperColoringCheck)
{
    const CsrGraph g = pathGraph(4);
    EXPECT_TRUE(reference::isProperColoring(g, {0, 1, 0, 1}));
    EXPECT_FALSE(reference::isProperColoring(g, {0, 0, 1, 0}));
    EXPECT_FALSE(reference::isProperColoring(g, {0, 1})); // wrong size
}

} // namespace
} // namespace bauvm
