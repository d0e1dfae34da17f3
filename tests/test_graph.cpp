/**
 * @file
 * Unit tests for the generic graph library: container invariants, BFS
 * distances, connected components, coloring, and matchings.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/coupling_graph.h"
#include "common/error.h"
#include "common/rng.h"
#include "graph/coloring.h"
#include "graph/components.h"
#include "graph/distance.h"
#include "graph/graph.h"
#include "graph/matching.h"

namespace permuq::graph {
namespace {

Graph
path_graph(std::int32_t n)
{
    Graph g(n);
    for (std::int32_t i = 0; i + 1 < n; ++i)
        g.add_edge(i, i + 1);
    return g;
}

TEST(GraphTest, BasicInvariants)
{
    Graph g(4);
    g.add_edge(0, 1);
    g.add_edge(2, 1);
    EXPECT_EQ(g.num_vertices(), 4);
    EXPECT_EQ(g.num_edges(), 2);
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_TRUE(g.has_edge(1, 2));
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_EQ(g.degree(1), 2);
    EXPECT_EQ(g.degree(3), 0);
}

TEST(GraphTest, RejectsBadEdges)
{
    Graph g(3);
    g.add_edge(0, 1);
    EXPECT_THROW(g.add_edge(0, 1), FatalError); // duplicate
    EXPECT_THROW(g.add_edge(1, 0), FatalError); // duplicate reversed
    EXPECT_THROW(g.add_edge(1, 1), FatalError); // self loop
    EXPECT_THROW(g.add_edge(0, 3), FatalError); // out of range
}

TEST(GraphTest, NeighborsAreSorted)
{
    Graph g(5);
    g.add_edge(2, 4);
    g.add_edge(2, 0);
    g.add_edge(2, 3);
    auto nbrs = g.neighbors(2);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphTest, CliqueAndDensity)
{
    auto k5 = Graph::clique(5);
    EXPECT_EQ(k5.num_edges(), 10);
    EXPECT_DOUBLE_EQ(k5.density(), 1.0);
    EXPECT_DOUBLE_EQ(Graph(3).density(), 0.0);
    EXPECT_DOUBLE_EQ(path_graph(5).density(), 0.4);
}

/**
 * Every row of the dense table, decoded, must equal the independent
 * on-demand BFS of BfsOracle from the same source.
 */
void
expect_rows_match_oracle(const Graph& g, const std::string& label)
{
    DistanceMatrix m(g);
    ASSERT_EQ(m.num_vertices(), g.num_vertices()) << label;
    FlatAdjacency adjacency(g);
    BfsOracle oracle(adjacency);
    for (std::int32_t s = 0; s < g.num_vertices(); ++s) {
        const auto& expected = oracle.distances_from(s);
        const std::uint16_t* row = m.row(s);
        for (std::int32_t v = 0; v < g.num_vertices(); ++v) {
            ASSERT_EQ(DistanceMatrix::decode(row[v]),
                      expected[static_cast<std::size_t>(v)])
                << label << ": distance " << s << " -> " << v;
        }
    }
}

TEST(DistanceTest, PathDistances)
{
    auto g = path_graph(6);
    FlatAdjacency adjacency(g);
    BfsOracle oracle(adjacency);
    const auto& d = oracle.distances_from(0);
    DistanceMatrix m(g);
    for (std::int32_t v = 0; v < 6; ++v) {
        EXPECT_EQ(d[static_cast<std::size_t>(v)], v);
        EXPECT_EQ(m.at(0, v), v);
        EXPECT_EQ(m.at(v, 0), v);
    }
}

TEST(DistanceTest, DisconnectedIsUnreachable)
{
    Graph g(4);
    g.add_edge(0, 1);
    FlatAdjacency adjacency(g);
    BfsOracle oracle(adjacency);
    EXPECT_EQ(oracle.distances_from(0)[2], kUnreachable);
    DistanceMatrix m(g);
    EXPECT_EQ(m.at(0, 2), kUnreachable);
    EXPECT_EQ(m.row(0)[2], DistanceMatrix::kRawUnreachable);
    EXPECT_EQ(m.at(0, 1), 1);
}

TEST(DistanceTest, MatrixMatchesBfs)
{
    Xoshiro256 rng(17);
    Graph g(20);
    for (int k = 0; k < 40; ++k) {
        auto u = static_cast<std::int32_t>(rng.next_below(20));
        auto v = static_cast<std::int32_t>(rng.next_below(20));
        if (u != v && !g.has_edge(u, v))
            g.add_edge(u, v);
    }
    expect_rows_match_oracle(g, "random 20-vertex graph");
}

TEST(DistanceTest, EveryNamedDeviceMatchesBfsOracle)
{
    for (const std::string& name : arch::named_devices()) {
        for (std::int32_t qubits : {64, 300}) {
            const auto device = arch::named_device(name, qubits);
            expect_rows_match_oracle(device.connectivity(),
                                     name + " @ " +
                                         std::to_string(qubits));
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(DistanceTest, InterleavedComponentsAndIsolatedVertices)
{
    // A 4-path, a 5-cycle and a triangle, interleaved in vertex order
    // so every component spans the id range, plus isolated vertices
    // at both ends of the table (0 and 13).
    const std::int32_t n = 14;
    Graph g(n);
    const std::vector<std::int32_t> path = {1, 4, 7, 10};
    const std::vector<std::int32_t> cycle = {2, 5, 8, 11, 12};
    const std::vector<std::int32_t> triangle = {3, 6, 9};
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        g.add_edge(path[i], path[i + 1]);
    for (std::size_t i = 0; i < cycle.size(); ++i)
        g.add_edge(cycle[i], cycle[(i + 1) % cycle.size()]);
    for (std::size_t i = 0; i < triangle.size(); ++i)
        g.add_edge(triangle[i], triangle[(i + 1) % triangle.size()]);
    expect_rows_match_oracle(g, "interleaved components");

    DistanceMatrix m(g);
    EXPECT_EQ(m.at(1, 10), 3);
    EXPECT_EQ(m.at(2, 8), 2);
    EXPECT_EQ(m.at(2, 11), 2);
    EXPECT_EQ(m.at(3, 9), 1);
    for (std::int32_t u : path)
        for (std::int32_t v : cycle)
            EXPECT_EQ(m.at(u, v), kUnreachable);
    for (std::int32_t isolated : {0, n - 1}) {
        for (std::int32_t v = 0; v < n; ++v) {
            const std::int32_t want = v == isolated ? 0 : kUnreachable;
            EXPECT_EQ(m.at(isolated, v), want);
            EXPECT_EQ(m.at(v, isolated), want);
        }
    }
    EXPECT_EQ(m.diameter(), 3);
}

TEST(DistanceTest, DiameterOfPath)
{
    DistanceMatrix m(path_graph(9));
    EXPECT_EQ(m.diameter(), 8);
}

TEST(ComponentsTest, SplitsCorrectly)
{
    Graph g(7);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(4, 5);
    auto c = connected_components(g);
    // 0-1-2 | 3 | 4-5 | 6 -> 4 components including isolated ones.
    EXPECT_EQ(c.members.size(), 4u);
    EXPECT_EQ(c.component_of[0], c.component_of[2]);
    EXPECT_NE(c.component_of[0], c.component_of[4]);
}

TEST(ComponentsTest, SkipIsolated)
{
    Graph g(7);
    g.add_edge(0, 1);
    g.add_edge(4, 5);
    auto c = connected_components(g, /*skip_isolated=*/true);
    EXPECT_EQ(c.members.size(), 2u);
    EXPECT_EQ(c.component_of[3], -1);
    EXPECT_EQ(c.component_of[6], -1);
}

TEST(ComponentsTest, EdgeSubset)
{
    std::vector<VertexPair> edges = {{0, 1}, {2, 3}, {3, 4}};
    auto c = edge_subset_components(8, edges);
    EXPECT_EQ(c.members.size(), 2u);
    EXPECT_EQ(c.component_of[5], -1);
    EXPECT_EQ(c.component_of[2], c.component_of[4]);
}

TEST(ColoringTest, ProperOnRandomGraphs)
{
    Xoshiro256 rng(23);
    for (int trial = 0; trial < 10; ++trial) {
        Graph g(30);
        for (int k = 0; k < 100; ++k) {
            auto u = static_cast<std::int32_t>(rng.next_below(30));
            auto v = static_cast<std::int32_t>(rng.next_below(30));
            if (u != v && !g.has_edge(u, v))
                g.add_edge(u, v);
        }
        auto coloring = greedy_coloring(g);
        for (const auto& e : g.edges())
            EXPECT_NE(coloring.color_of[static_cast<std::size_t>(e.a)],
                      coloring.color_of[static_cast<std::size_t>(e.b)]);
        // Welsh-Powell bound: colors <= max degree + 1.
        std::int32_t max_deg = 0;
        for (std::int32_t v = 0; v < 30; ++v)
            max_deg = std::max(max_deg, g.degree(v));
        EXPECT_LE(coloring.num_colors, max_deg + 1);
    }
}

TEST(ColoringTest, BipartiteUsesTwoColors)
{
    // Even cycle is 2-colorable and Welsh-Powell finds it.
    Graph g(6);
    for (std::int32_t i = 0; i < 6; ++i)
        g.add_edge(i, (i + 1) % 6);
    auto coloring = greedy_coloring(g);
    EXPECT_EQ(coloring.num_colors, 2);
    EXPECT_EQ(largest_class(coloring), 0);
    EXPECT_EQ(coloring.classes[0].size(), 3u);
}

TEST(MatchingTest, GreedyIsAMatching)
{
    std::vector<WeightedEdge> edges = {
        {0, 1, 5.0}, {1, 2, 4.0}, {2, 3, 3.0}, {3, 0, 2.0}, {0, 2, 1.0}};
    auto picks = greedy_max_weight_matching(4, edges);
    std::vector<bool> used(4, false);
    for (auto i : picks) {
        const auto& e = edges[static_cast<std::size_t>(i)];
        EXPECT_FALSE(used[static_cast<std::size_t>(e.u)]);
        EXPECT_FALSE(used[static_cast<std::size_t>(e.v)]);
        used[static_cast<std::size_t>(e.u)] = true;
        used[static_cast<std::size_t>(e.v)] = true;
    }
    // Greedy takes (0,1) then (2,3).
    EXPECT_NEAR(matching_weight(edges, picks), 8.0, 1e-12);
}

TEST(MatchingTest, ExactBeatsOrTiesGreedy)
{
    Xoshiro256 rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        std::int32_t n = 8;
        std::vector<WeightedEdge> edges;
        for (std::int32_t u = 0; u < n; ++u)
            for (std::int32_t v = u + 1; v < n; ++v)
                if (rng.next_double() < 0.4)
                    edges.push_back({u, v, rng.next_double()});
        auto greedy = greedy_max_weight_matching(n, edges);
        auto exact = exact_max_weight_matching(n, edges);
        EXPECT_GE(matching_weight(edges, exact) + 1e-12,
                  matching_weight(edges, greedy));
        // Greedy maximal matching is a 1/2 approximation.
        EXPECT_GE(matching_weight(edges, greedy) * 2 + 1e-12,
                  matching_weight(edges, exact));
    }
}

TEST(MatchingTest, EqualWeightTieBreakIsInputOrderInvariant)
{
    // All-equal weights: the sort key falls through to (u asc, v asc),
    // which is total over distinct couplers, so the chosen endpoint
    // pairs must not depend on the order candidates were accumulated.
    std::vector<WeightedEdge> edges = {
        {2, 3, 1.0}, {0, 1, 1.0}, {4, 5, 1.0}, {1, 2, 1.0}, {3, 4, 1.0},
        {0, 5, 1.0}};
    auto pairs_of = [&](const std::vector<WeightedEdge>& e) {
        auto picks = greedy_max_weight_matching(6, e);
        std::vector<std::pair<std::int32_t, std::int32_t>> out;
        for (auto i : picks)
            out.emplace_back(e[static_cast<std::size_t>(i)].u,
                             e[static_cast<std::size_t>(i)].v);
        std::sort(out.begin(), out.end());
        return out;
    };
    auto reference = pairs_of(edges);
    EXPECT_EQ(reference.size(), 3u); // perfect matching on the 6-cycle
    std::vector<WeightedEdge> permuted = edges;
    Xoshiro256 rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        for (std::size_t i = permuted.size(); i > 1; --i)
            std::swap(permuted[i - 1],
                      permuted[static_cast<std::size_t>(
                          rng.next_below(i))]);
        EXPECT_EQ(pairs_of(permuted), reference);
    }
}

TEST(DistanceTest, UnreachablePropagatesAcrossComponents)
{
    // Three components; every cross-component query must decode to
    // kUnreachable through both the checked and the raw row access.
    Graph g(8);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(3, 4);
    // 5, 6, 7 isolated except 6-7.
    g.add_edge(6, 7);
    expect_rows_match_oracle(g, "four components");
    DistanceMatrix m(g);
    std::vector<std::int32_t> comp = {0, 0, 0, 1, 1, 2, 3, 3};
    for (std::int32_t u = 0; u < 8; ++u) {
        const std::uint16_t* row = m.row(u);
        for (std::int32_t v = 0; v < 8; ++v) {
            std::int32_t via_raw = DistanceMatrix::decode(
                row[static_cast<std::size_t>(v)]);
            EXPECT_EQ(via_raw, m.at(u, v));
            if (comp[static_cast<std::size_t>(u)] !=
                comp[static_cast<std::size_t>(v)]) {
                EXPECT_EQ(m.at(u, v), kUnreachable);
                EXPECT_EQ(row[static_cast<std::size_t>(v)],
                          DistanceMatrix::kRawUnreachable);
            } else {
                EXPECT_LT(m.at(u, v), kUnreachable);
            }
        }
    }
}

TEST(MatchingTest, ExactKnownOptimum)
{
    // Triangle chain where greedy's first pick blocks the optimum.
    std::vector<WeightedEdge> edges = {
        {0, 1, 3.0}, {1, 2, 5.0}, {2, 3, 3.0}};
    auto exact = exact_max_weight_matching(4, edges);
    EXPECT_NEAR(matching_weight(edges, exact), 6.0, 1e-12);
    EXPECT_EQ(exact.size(), 2u);
}

} // namespace
} // namespace permuq::graph
