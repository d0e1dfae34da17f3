#include "generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/error.h"
#include "common/rng.h"
#include "common/types.h"

namespace permuq::problem {

graph::Graph
random_graph(std::int32_t n, double density, std::uint64_t seed)
{
    fatal_unless(n >= 0, "vertex count must be non-negative");
    fatal_unless(density >= 0.0 && density <= 1.0,
                 "density must lie in [0, 1]");
    graph::Graph g(n);
    if (n < 2)
        return g;
    const std::int64_t target = random_graph_edges(n, density);
    Xoshiro256 rng(seed);
    std::unordered_set<VertexPair, VertexPairHash> chosen;
    while (static_cast<std::int64_t>(chosen.size()) < target) {
        std::int32_t u =
            static_cast<std::int32_t>(rng.next_below(
                static_cast<std::uint64_t>(n)));
        std::int32_t v =
            static_cast<std::int32_t>(rng.next_below(
                static_cast<std::uint64_t>(n)));
        if (u == v)
            continue;
        chosen.insert(VertexPair(u, v));
    }
    // Insert in deterministic (sorted) order so the graph is a pure
    // function of (n, density, seed) regardless of hash iteration.
    std::vector<VertexPair> edges(chosen.begin(), chosen.end());
    std::sort(edges.begin(), edges.end());
    for (const auto& e : edges)
        g.add_edge(e.a, e.b);
    return g;
}

std::int64_t
random_graph_edges(std::int32_t n, double density)
{
    const std::int64_t pairs = static_cast<std::int64_t>(n) * (n - 1) / 2;
    return static_cast<std::int64_t>(
        std::llround(density * static_cast<double>(pairs)));
}

graph::Graph
random_regular_graph(std::int32_t n, std::int32_t degree,
                     std::uint64_t seed)
{
    fatal_unless(n >= 1 && degree >= 0 && degree < n,
                 "regular graph requires 0 <= degree < n");
    fatal_unless((static_cast<std::int64_t>(n) * degree) % 2 == 0,
                 "n * degree must be even");
    Xoshiro256 rng(seed);

    // Configuration model with edge-swap repair: pair the degree stubs
    // once, then fix self-loops and duplicate edges by 2-swapping with
    // random good pairs (dense regular graphs almost never survive a
    // restart-only strategy, so repair is required).
    if (degree == 0)
        return graph::Graph(n);
    std::vector<std::int32_t> stubs;
    stubs.reserve(static_cast<std::size_t>(n) *
                  static_cast<std::size_t>(degree));
    for (std::int32_t v = 0; v < n; ++v)
        for (std::int32_t k = 0; k < degree; ++k)
            stubs.push_back(v);
    rng.shuffle(stubs);

    std::size_t num_pairs = stubs.size() / 2;
    auto pair_at = [&](std::size_t i) {
        return VertexPair(stubs[2 * i], stubs[2 * i + 1]);
    };
    auto is_bad = [&](std::size_t i,
                      const std::unordered_multiset<
                          VertexPair, VertexPairHash>& counts) {
        auto p = pair_at(i);
        return p.a == p.b || counts.count(p) > 1;
    };

    std::unordered_multiset<VertexPair, VertexPairHash> counts;
    for (std::size_t i = 0; i < num_pairs; ++i)
        if (stubs[2 * i] != stubs[2 * i + 1])
            counts.insert(pair_at(i));

    // Work queue of pairs that are (or may have become) invalid, so
    // repair is near-linear instead of rescanning all pairs each time.
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < num_pairs; ++i)
        if (is_bad(i, counts))
            queue.push_back(i);

    std::int64_t guard = 200000 + 64 * static_cast<std::int64_t>(num_pairs);
    while (!queue.empty() && guard-- > 0) {
        std::size_t bad = queue.back();
        if (!is_bad(bad, counts)) {
            queue.pop_back();
            continue;
        }
        // 2-swap with a random other pair.
        std::size_t other = static_cast<std::size_t>(
            rng.next_below(num_pairs));
        if (other == bad)
            continue;
        auto erase_one = [&](const VertexPair& p) {
            auto it = counts.find(p);
            if (it != counts.end())
                counts.erase(it);
        };
        VertexPair pb = pair_at(bad), po = pair_at(other);
        VertexPair nb(stubs[2 * bad], stubs[2 * other]);
        VertexPair no(stubs[2 * bad + 1], stubs[2 * other + 1]);
        if (nb.a == nb.b || no.a == no.b || counts.count(nb) > 0 ||
            counts.count(no) > 0 || nb == no)
            continue;
        if (pb.a != pb.b)
            erase_one(pb);
        if (po.a != po.b)
            erase_one(po);
        std::swap(stubs[2 * bad + 1], stubs[2 * other]);
        counts.insert(nb);
        counts.insert(no);
        queue.pop_back();
        // `other` now holds a fresh pair; requeue if it became bad
        // (it cannot, by construction, but duplicates elsewhere can
        // only have decreased).
    }

    graph::Graph g(n);
    std::vector<VertexPair> edges;
    for (std::size_t i = 0; i < num_pairs; ++i) {
        auto p = pair_at(i);
        fatal_unless(p.a != p.b, "random_regular_graph failed to converge");
        edges.push_back(p);
    }
    std::sort(edges.begin(), edges.end());
    for (std::size_t i = 1; i < edges.size(); ++i)
        fatal_unless(edges[i] != edges[i - 1],
                     "random_regular_graph failed to converge");
    for (const auto& e : edges)
        g.add_edge(e.a, e.b);
    return g;
}

graph::Graph
regular_graph_with_density(std::int32_t n, double density,
                           std::uint64_t seed)
{
    fatal_unless(n >= 2, "need at least two vertices");
    // density d corresponds to degree d * (n - 1); round to the nearest
    // feasible (even-sum) degree.
    std::int32_t degree = static_cast<std::int32_t>(
        std::llround(density * static_cast<double>(n - 1)));
    degree = std::clamp(degree, 1, n - 1);
    if ((static_cast<std::int64_t>(n) * degree) % 2 != 0) {
        // Adjust by one to make n * degree even.
        if (degree + 1 < n)
            ++degree;
        else
            --degree;
    }
    return random_regular_graph(n, degree, seed);
}

graph::Graph
clique(std::int32_t n)
{
    return graph::Graph::clique(n);
}

graph::Graph
fabric_local_graph(std::int32_t rows, std::int32_t cols, double density,
                   std::int32_t reach, std::uint64_t seed)
{
    fatal_unless(rows >= 1 && cols >= 1,
                 "fabric needs positive dimensions");
    fatal_unless(density >= 0.0 && density <= 1.0,
                 "density must lie in [0, 1]");
    fatal_unless(reach >= 1, "reach must be positive");
    const std::int32_t n = rows * cols;
    graph::Graph g(n);
    Xoshiro256 rng(seed);
    auto id = [cols](std::int32_t r, std::int32_t c) {
        return r * cols + c;
    };
    // Candidate pairs in ascending (vertex, partner) order, each drawn
    // once: the graph is a pure function of the parameters.
    for (std::int32_t r = 0; r < rows; ++r) {
        for (std::int32_t c = 0; c < cols; ++c) {
            const std::int32_t v = id(r, c);
            for (std::int32_t r2 = r; r2 <= std::min(rows - 1, r + reach);
                 ++r2) {
                const std::int32_t c_lo =
                    r2 == r ? c + 1 : std::max(0, c - reach);
                for (std::int32_t c2 = c_lo;
                     c2 <= std::min(cols - 1, c + reach); ++c2) {
                    if (rng.next_double() < density)
                        g.add_edge(v, id(r2, c2));
                }
            }
        }
    }
    return g;
}

} // namespace permuq::problem
