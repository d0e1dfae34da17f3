#include "qaoa.h"

#include <algorithm>

#include "common/error.h"
#include "sim/qaoa_objective.h"
#include "sim/statevector.h"

namespace permuq::sim {

// The simulation paths (ideal fused-layer evolution, noisy
// trajectories, expectation reductions) live in QaoaObjective
// (sim/qaoa_objective.h), which amortizes the per-problem state across
// evaluations. These free functions build a one-shot context and
// delegate, so single-call users and repeated-evaluation users run the
// identical code path.

std::int32_t
cut_value(const graph::Graph& problem, std::uint64_t z)
{
    std::int32_t cut = 0;
    for (const auto& e : problem.edges())
        if (((z >> e.a) & 1) != ((z >> e.b) & 1))
            ++cut;
    return cut;
}

std::int32_t
max_cut(const graph::Graph& problem)
{
    fatal_unless(problem.num_vertices() <= kMaxSimQubits,
                 "exhaustive max cut supports up to " +
                     std::to_string(kMaxSimQubits) + " qubits");
    return static_cast<std::int32_t>(QaoaObjective(problem).max_cut());
}

std::vector<double>
ideal_distribution(const graph::Graph& problem, const QaoaAngles& angles)
{
    return QaoaObjective(problem).ideal_distribution(angles);
}

double
ideal_expectation(const graph::Graph& problem, const QaoaAngles& angles)
{
    return QaoaObjective(problem).ideal_expectation(angles);
}

double
noisy_expectation(const graph::Graph& problem,
                  const circuit::Circuit& compiled,
                  const arch::NoiseModel& noise, const QaoaAngles& angles,
                  const NoisySimOptions& options)
{
    return QaoaObjective(problem).noisy_expectation(compiled, noise,
                                                    angles, options);
}

std::vector<std::int64_t>
noisy_counts(const graph::Graph& problem, const circuit::Circuit& compiled,
             const arch::NoiseModel& noise, const QaoaAngles& angles,
             const NoisySimOptions& options)
{
    return QaoaObjective(problem).noisy_counts(compiled, noise, angles,
                                               options);
}

std::vector<double>
noisy_distribution(const graph::Graph& problem,
                   const circuit::Circuit& compiled,
                   const arch::NoiseModel& noise, const QaoaAngles& angles,
                   const NoisySimOptions& options)
{
    return QaoaObjective(problem).noisy_distribution(compiled, noise,
                                                     angles, options);
}

double
tvd(const std::vector<double>& ideal,
    const std::vector<std::int64_t>& counts)
{
    fatal_unless(ideal.size() == counts.size(),
                 "distribution sizes differ");
    std::int64_t shots = 0;
    for (std::int64_t c : counts)
        shots += c;
    fatal_unless(shots > 0, "no shots");
    double sum = 0.0;
    for (std::size_t z = 0; z < ideal.size(); ++z) {
        double q = static_cast<double>(counts[z]) /
                   static_cast<double>(shots);
        sum += std::abs(ideal[z] - q);
    }
    return 0.5 * sum;
}

double
tvd(const std::vector<double>& p, const std::vector<double>& q)
{
    fatal_unless(p.size() == q.size(), "distribution sizes differ");
    double sum = 0.0;
    for (std::size_t z = 0; z < p.size(); ++z)
        sum += std::abs(p[z] - q[z]);
    return 0.5 * sum;
}

double
cut_weight(const problem::WeightedProblem& wp, std::uint64_t z)
{
    double total = 0.0;
    const auto& edges = wp.graph.edges();
    for (std::size_t e = 0; e < edges.size(); ++e)
        if (((z >> edges[e].a) & 1) != ((z >> edges[e].b) & 1))
            total += wp.weights[e];
    return total;
}

double
max_cut_weight(const problem::WeightedProblem& wp)
{
    fatal_unless(wp.graph.num_vertices() <= kMaxSimQubits,
                 "exhaustive max cut supports up to " +
                     std::to_string(kMaxSimQubits) + " qubits");
    double best = 0.0;
    std::uint64_t states = std::uint64_t(1) << wp.graph.num_vertices();
    for (std::uint64_t z = 0; z < states; ++z)
        best = std::max(best, cut_weight(wp, z));
    return best;
}

double
ideal_expectation(const problem::WeightedProblem& wp,
                  const QaoaAngles& angles)
{
    return QaoaObjective(wp).ideal_expectation(angles);
}

double
noisy_expectation(const problem::WeightedProblem& wp,
                  const circuit::Circuit& compiled,
                  const arch::NoiseModel& noise, const QaoaAngles& angles,
                  const NoisySimOptions& options)
{
    return QaoaObjective(wp).noisy_expectation(compiled, noise, angles,
                                               options);
}

} // namespace permuq::sim
