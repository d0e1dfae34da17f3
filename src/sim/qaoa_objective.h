/**
 * @file
 * Amortized QAOA objective evaluation (paper §7.4).
 *
 * Every Nelder–Mead iteration, landscape scan, and trajectory batch
 * evaluates the same MaxCut problem at different (gamma, beta)
 * angles. The free functions in sim/qaoa.h rebuild the fused cost
 * batch, re-bake its 2^n spectrum, and re-allocate a statevector per
 * call; QaoaObjective builds them once per problem and serves
 * repeated evaluations against the cached state:
 *
 *  - the fused diagonal cost batch (keys baked once, reused by every
 *    layer of every evaluation at any gamma),
 *  - the baked cut-value spectrum, making cut(z) an O(1) lookup, the
 *    expectation one weighted-norm reduction and max_cut() one scan
 *    — no per-shot or per-state edge scan,
 *  - a scratch statevector reused across ideal evaluations,
 *  - per-circuit replay metadata (CX cost per op, edge weights) for
 *    the noisy path, cached across calls with the same compiled
 *    circuit.
 *
 * The noisy path additionally pre-draws each layer's Pauli-error
 * decisions in the exact RNG order of the gate-by-gate walk: layers
 * that draw no error collapse to one cached fused sweep plus the
 * blocked mixer, while layers with errors replay op by op with the
 * recorded decisions. The random stream, and therefore every sampled
 * shot, is identical to the unamortized walk.
 *
 * Results are a pure function of (problem, angles, options): the
 * free functions of sim/qaoa.h delegate here, and everything runs on
 * the deterministic kernels of sim/kernels.h, so values are
 * bit-identical across thread counts and SIMD tiers.
 *
 * The context borrows the problem graph (and weighted problem, when
 * given): callers keep them alive for the objective's lifetime.
 */
#ifndef PERMUQ_SIM_QAOA_OBJECTIVE_H
#define PERMUQ_SIM_QAOA_OBJECTIVE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sim/diagonal.h"
#include "sim/qaoa.h"
#include "sim/statevector.h"

namespace permuq::sim {

/** Reusable evaluation context for one (possibly weighted) MaxCut
 *  problem. Not thread-safe: one context per concurrent optimizer. */
class QaoaObjective
{
  public:
    /** Unweighted MaxCut over @p problem (borrowed). */
    explicit QaoaObjective(const graph::Graph& problem);

    /** Weighted MaxCut over @p wp (borrowed). */
    explicit QaoaObjective(const problem::WeightedProblem& wp);

    std::int32_t num_qubits() const { return sv_.num_qubits(); }

    bool weighted() const { return !weights_.empty(); }

    /** Cut value (weight) of basis state @p z — O(1) out of the baked
     *  spectrum. Exact for unweighted problems (integer halves). */
    double
    cut(std::uint64_t z) const
    {
        return cost_table_[z] + offset_;
    }

    /** The maximum cut: the largest cut(z) over all 2^n basis states,
     *  read off the baked spectrum. Exact for unweighted problems. */
    double max_cut() const;

    /** Ideal (noiseless) expected cut <C> at @p angles. */
    double ideal_expectation(const QaoaAngles& angles);

    /** The fused cost batch at unit gamma: a cost layer at gamma is
     *  cost_batch().apply(sv, -gamma). */
    const DiagonalBatch& cost_batch() const { return cost_; }

    /** Expected cut <C> of @p sv: the fixed-slice weighted-norm
     *  reduction against the baked spectrum that ends
     *  ideal_expectation(). */
    double expectation(const Statevector& sv) const;

    /** Ideal output distribution at @p angles. */
    std::vector<double> ideal_distribution(const QaoaAngles& angles);

    /** Noisy expected cut (see sim/qaoa.h for the trajectory model). */
    double noisy_expectation(const circuit::Circuit& compiled,
                             const arch::NoiseModel& noise,
                             const QaoaAngles& angles,
                             const NoisySimOptions& options);

    /** Shot histogram over basis states across all trajectories. */
    std::vector<std::int64_t> noisy_counts(
        const circuit::Circuit& compiled, const arch::NoiseModel& noise,
        const QaoaAngles& angles, const NoisySimOptions& options);

    /** Trajectory-averaged output distribution (pre-readout). */
    std::vector<double> noisy_distribution(
        const circuit::Circuit& compiled, const arch::NoiseModel& noise,
        const QaoaAngles& angles, const NoisySimOptions& options);

    /** Exact bytes of the context's cached state: the scratch
     *  statevector plus the baked cut spectrum. */
    std::size_t memory_bytes() const;

  private:
    void build(const std::vector<double>* weights);
    /** Run the ideal circuit at @p angles into the scratch state. */
    void prepare_ideal(const QaoaAngles& angles);
    /** Per-circuit replay metadata, cached across calls. */
    struct Plan
    {
        const void* circuit = nullptr;
        std::size_t num_ops = 0;
        std::uint64_t hash = 0;
        std::vector<std::int8_t> cx_cost;
    };
    const Plan& plan_for(const circuit::Circuit& compiled);

    template <typename Sink>
    void for_each_trajectory(const circuit::Circuit& compiled,
                             const arch::NoiseModel& noise,
                             const QaoaAngles& angles,
                             const NoisySimOptions& options, Sink&& sink,
                             bool parallel);

    const graph::Graph& problem_;
    std::vector<double> weights_; ///< empty = unweighted
    /** Edge -> weight for the noisy replay (weighted problems). */
    std::unordered_map<VertexPair, double, VertexPairHash> weight_map_;
    DiagonalBatch cost_;              ///< unit/weighted edge batch
    std::vector<double> cost_table_;  ///< baked spectrum: cut(z) - offset_
    double offset_ = 0.0;             ///< |E|/2 (or total weight / 2)
    Statevector sv_;                  ///< ideal-path scratch state
    Plan plan_;                       ///< last compiled circuit's metadata
};

} // namespace permuq::sim

#endif // PERMUQ_SIM_QAOA_OBJECTIVE_H
