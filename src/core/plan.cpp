#include "core/plan.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "problem/generators.h"

namespace permuq::core {

graph::Graph
plan_problem(const PlanRequest& request)
{
    if (!request.has_edges)
        return problem::random_graph(request.problem_n, request.density,
                                     request.seed);
    graph::Graph g(request.problem_n);
    for (const auto& edge : request.edges)
        if (edge.a != edge.b && !g.has_edge(edge.a, edge.b))
            g.add_edge(edge.a, edge.b);
    return g;
}

CompilerOptions
plan_options(const PlanRequest& request)
{
    CompilerOptions options;
    if (!parse_tier(request.tier, options.tier))
        throw std::invalid_argument("unknown tier \"" + request.tier +
                                    "\"");
    options.alpha = request.alpha;
    options.crosstalk_aware = request.crosstalk;
    options.shard_regions = request.shard;
    options.shard_margin = request.shard_margin;
    return options;
}

void
read_edge_list(std::istream& in, PlanRequest& request)
{
    request.edges.clear();
    request.has_edges = true;
    std::int32_t max_vertex = -1;
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::int32_t u, v;
        if (fields >> u >> v) {
            request.edges.emplace_back(u, v);
            max_vertex = std::max({max_vertex, u, v});
        }
    }
    request.problem_n = max_vertex + 1;
}

} // namespace permuq::core
