/**
 * @file
 * The one request -> compile-inputs path (core/plan.h) that permuqc,
 * permuqd and permuq-fuzz share: the problem a PlanRequest names, the
 * compiler options it sets, and the edge-list reader behind
 * `permuqc --input` / `--arch-file` and `permuq-client --input`.
 */
#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "problem/generators.h"

namespace permuq::core {
namespace {

std::vector<VertexPair>
pairs(std::initializer_list<std::pair<std::int32_t, std::int32_t>> list)
{
    std::vector<VertexPair> out;
    for (const auto& [u, v] : list)
        out.emplace_back(u, v);
    return out;
}

TEST(PlanProblemTest, ExplicitEdgesDropSelfLoopsAndRepeatsInInputOrder)
{
    PlanRequest request;
    request.has_edges = true;
    request.problem_n = 5;
    request.edges = pairs({{3, 4}, {0, 1}, {2, 2}, {1, 0}, {2, 1}, {3, 4}});
    const graph::Graph g = plan_problem(request);
    EXPECT_EQ(g.num_vertices(), 5);
    EXPECT_EQ(g.edges(), pairs({{3, 4}, {0, 1}, {1, 2}}));
}

TEST(PlanProblemTest, SizeComesFromProblemN)
{
    // Vertices past the largest endpoint stay, isolated; the random
    // spec fields are ignored once explicit edges are given.
    PlanRequest request;
    request.has_edges = true;
    request.problem_n = 12;
    request.edges = pairs({{0, 1}});
    request.density = 1.0;
    const graph::Graph g = plan_problem(request);
    EXPECT_EQ(g.num_vertices(), 12);
    EXPECT_EQ(g.num_edges(), 1);

    request.edges.clear();
    EXPECT_EQ(plan_problem(request).num_vertices(), 12);
    EXPECT_EQ(plan_problem(request).num_edges(), 0);
}

TEST(PlanProblemTest, RandomSpecIsRandomGraph)
{
    PlanRequest request;
    request.problem_n = 40;
    request.density = 0.25;
    request.seed = 9;
    request.edges = pairs({{0, 1}}); // ignored without has_edges
    const graph::Graph g = plan_problem(request);
    const graph::Graph want = problem::random_graph(40, 0.25, 9);
    EXPECT_EQ(g.num_vertices(), 40);
    EXPECT_EQ(g.edges(), want.edges());
    EXPECT_EQ(g.num_edges(), problem::random_graph_edges(40, 0.25));
}

TEST(PlanOptionsTest, MapsTheRequestFields)
{
    PlanRequest request;
    request.tier = "balanced";
    request.alpha = 0.125;
    request.crosstalk = true;
    request.shard = 3;
    request.shard_margin = 2;
    request.full_qaoa = true; // a QASM flag, not a compiler option
    const CompilerOptions options = plan_options(request);
    const CompilerOptions defaults;
    EXPECT_EQ(options.tier, CompileTier::Balanced);
    EXPECT_EQ(options.alpha, 0.125);
    EXPECT_TRUE(options.crosstalk_aware);
    EXPECT_EQ(options.shard_regions, 3);
    EXPECT_EQ(options.shard_margin, 2);
    EXPECT_EQ(options.use_ata_prediction, defaults.use_ata_prediction);
    EXPECT_EQ(options.noise, nullptr);
    EXPECT_EQ(options.num_placement_trials, defaults.num_placement_trials);

    // The defaults map onto the defaults, and "auto" stays Auto for
    // compile() to resolve from PERMUQ_TIER.
    const CompilerOptions plain = plan_options(PlanRequest{});
    EXPECT_EQ(plain.tier, CompileTier::Auto);
    EXPECT_EQ(plain.alpha, defaults.alpha);
    EXPECT_EQ(plain.crosstalk_aware, defaults.crosstalk_aware);
    EXPECT_EQ(plain.shard_regions, defaults.shard_regions);
    EXPECT_EQ(plain.shard_margin, defaults.shard_margin);

    request.tier = "warp";
    EXPECT_THROW(plan_options(request), std::invalid_argument);
}

TEST(EdgeListReaderTest, CommentsBlankLinesSelfLoopsAndRepeats)
{
    std::istringstream in("# a problem\n"
                          "0 1\n"
                          "\n"
                          "1 2   # trailing comment\n"
                          "2 2\n"
                          "   \t\n"
                          "2 3\n"
                          "1 0\n"
                          "not an edge\n"
                          "7\n"
                          "3 4 99\n");
    PlanRequest request;
    request.problem_n = 64;
    read_edge_list(in, request);
    EXPECT_TRUE(request.has_edges);
    EXPECT_EQ(request.problem_n, 5); // 1 + the largest id
    EXPECT_EQ(request.edges,
              pairs({{0, 1}, {1, 2}, {2, 2}, {2, 3}, {1, 0}, {3, 4}}));
    // plan_problem() is what drops the self-loop and the repeat.
    EXPECT_EQ(plan_problem(request).edges(),
              pairs({{0, 1}, {1, 2}, {2, 3}, {3, 4}}));
}

TEST(EdgeListReaderTest, EmptyInputHasNoVertices)
{
    for (const char* text : {"", "# only a comment\n\n", "x y\n"}) {
        std::istringstream in(text);
        PlanRequest request;
        request.problem_n = 64;
        request.edges = pairs({{0, 1}});
        read_edge_list(in, request);
        EXPECT_TRUE(request.has_edges) << text;
        EXPECT_TRUE(request.edges.empty()) << text;
        EXPECT_EQ(request.problem_n, 0) << text;
    }
}

} // namespace
} // namespace permuq::core
