/**
 * @file
 * Input problem-graph generators (paper §7.1).
 *
 * A problem graph has one vertex per program qubit and one edge per
 * permutable two-qubit operator: for QAOA-MaxCut an edge is a CPHASE,
 * for 2-local Hamiltonian simulation an edge is one interaction term.
 * The evaluation uses Erdős–Rényi random graphs parameterized by
 * density and random regular graphs with matched density.
 */
#ifndef PERMUQ_PROBLEM_GENERATORS_H
#define PERMUQ_PROBLEM_GENERATORS_H

#include <cstdint>

#include "graph/graph.h"

namespace permuq::problem {

/**
 * Erdős–Rényi G(n, m) with m = round(density * C(n,2)) distinct edges
 * drawn uniformly (the paper reports "random graphs with density d").
 */
graph::Graph random_graph(std::int32_t n, double density,
                          std::uint64_t seed);

/** The edge count m random_graph(n, density, ...) draws. */
std::int64_t random_graph_edges(std::int32_t n, double density);

/**
 * Random d-regular graph via the configuration model with restarts;
 * n * degree must be even and degree < n.
 */
graph::Graph random_regular_graph(std::int32_t n, std::int32_t degree,
                                  std::uint64_t seed);

/**
 * Random regular graph whose density is as close as possible to
 * @p density (the paper "sets the density of regular graph close to
 * 0.3 or 0.5 by varying the degree of each vertex").
 */
graph::Graph regular_graph_with_density(std::int32_t n, double density,
                                        std::uint64_t seed);

/** Complete graph (the special case solved by the ATA patterns). */
graph::Graph clique(std::int32_t n);

/**
 * Locality-structured random problem for fabric-scale benchmarks:
 * vertices live on a rows x cols grid (row-major ids) and each vertex
 * pair within Chebyshev distance @p reach is an edge with probability
 * @p density. Models the bounded-range interactions of hardware-aware
 * ansatz/lattice workloads; unlike Erdős–Rényi (whose edge count grows
 * with n^2 at fixed density), edges grow linearly in n, which is the
 * regime where region sharding applies.
 */
graph::Graph fabric_local_graph(std::int32_t rows, std::int32_t cols,
                                double density, std::int32_t reach,
                                std::uint64_t seed);

} // namespace permuq::problem

#endif // PERMUQ_PROBLEM_GENERATORS_H
