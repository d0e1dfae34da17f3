/**
 * @file
 * QAOA-MaxCut evaluation on top of the statevector simulator
 * (paper §7.4): ideal expectation, noisy expectation/sampling driven
 * by a compiled circuit plus a device noise model, and TVD.
 *
 * The noisy simulation runs in the *logical* space: SWAPs are tracked
 * as relabelings, while stochastic Pauli errors are injected per
 * physical CX of the compiled circuit (using its per-link error rate,
 * with CPHASE+SWAP merging already applied), onto the logical qubits
 * that CX touches. This keeps 20-logical-qubit experiments tractable
 * on a 27-qubit device while preserving what the experiment measures:
 * circuits with fewer/better-placed CXs accumulate fewer errors.
 * Errors on transiently empty positions are folded onto the involved
 * logical qubit (documented substitution, see DESIGN.md).
 */
#ifndef PERMUQ_SIM_QAOA_H
#define PERMUQ_SIM_QAOA_H

#include <cstdint>
#include <vector>

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "circuit/circuit.h"
#include "graph/graph.h"
#include "problem/weighted.h"

namespace permuq::sim {

/** QAOA angles; gamma/beta per layer. */
struct QaoaAngles
{
    std::vector<double> gamma;
    std::vector<double> beta;
};

/** Number of cut edges of basis state @p z. */
std::int32_t cut_value(const graph::Graph& problem, std::uint64_t z);

/** The maximum cut over all 2^n states (n <= 26), read off the cut
 *  spectrum that QaoaObjective bakes. */
std::int32_t max_cut(const graph::Graph& problem);

/** Ideal (noiseless) expected cut value <C>. */
double ideal_expectation(const graph::Graph& problem,
                         const QaoaAngles& angles);

/** Ideal output distribution over the 2^n logical basis states. */
std::vector<double> ideal_distribution(const graph::Graph& problem,
                                       const QaoaAngles& angles);

/**
 * Knobs of the noisy simulation.
 *
 * Trajectory t draws its randomness from the t-times-jumped
 * Xoshiro256 substream of @p seed, so results are a pure function of
 * (seed, trajectories, shots) — independent of thread count and of
 * how trajectories are scheduled. Expectations are assembled from
 * per-trajectory partial sums combined in trajectory order, making
 * them bit-reproducible at any parallelism level.
 */
struct NoisySimOptions
{
    std::int32_t trajectories = 16;
    std::int32_t shots = 8000;
    std::uint64_t seed = 7;
    bool readout_error = true;
    /** Accumulate each run of commuting diagonal gates (an entire
     *  QAOA cost layer when no Pauli error interposes) into a single
     *  fused sweep. Off only for benchmarking the unfused path. */
    bool fuse_diagonals = true;
};

/**
 * Expected cut value when the compiled circuit executes under the
 * noise model (Monte-Carlo over Pauli-error trajectories, cut averaged
 * over sampled, readout-flipped shots).
 */
double noisy_expectation(const graph::Graph& problem,
                         const circuit::Circuit& compiled,
                         const arch::NoiseModel& noise,
                         const QaoaAngles& angles,
                         const NoisySimOptions& options = {});

/**
 * Trajectory-averaged output distribution of the noisy execution
 * (exact per-trajectory probabilities, no shot sampling, no readout
 * flips). Preferred for TVD at larger qubit counts, where finite-shot
 * histograms over 2^n bins saturate from sparsity alone.
 */
std::vector<double> noisy_distribution(const graph::Graph& problem,
                                       const circuit::Circuit& compiled,
                                       const arch::NoiseModel& noise,
                                       const QaoaAngles& angles,
                                       const NoisySimOptions& options = {});

/**
 * Shot histogram (counts per logical basis state) of the noisy
 * execution; used for TVD against the ideal distribution.
 */
std::vector<std::int64_t> noisy_counts(const graph::Graph& problem,
                                       const circuit::Circuit& compiled,
                                       const arch::NoiseModel& noise,
                                       const QaoaAngles& angles,
                                       const NoisySimOptions& options = {});

/** @name Weighted MaxCut
 *  Weights scale both the phase angle of each edge's ZZ interaction
 *  (gamma_e = w_e * gamma) and the objective; routing is unaffected.
 *  @{ */

/** Total weight of edges cut by basis state @p z. */
double cut_weight(const problem::WeightedProblem& wp, std::uint64_t z);

/** The maximum weighted cut (exhaustive; n <= 26). */
double max_cut_weight(const problem::WeightedProblem& wp);

/** Ideal expected weighted cut. */
double ideal_expectation(const problem::WeightedProblem& wp,
                         const QaoaAngles& angles);

/** Noisy expected weighted cut of a compiled circuit. */
double noisy_expectation(const problem::WeightedProblem& wp,
                         const circuit::Circuit& compiled,
                         const arch::NoiseModel& noise,
                         const QaoaAngles& angles,
                         const NoisySimOptions& options = {});
/** @} */

/** Total variation distance between a distribution and counts. */
double tvd(const std::vector<double>& ideal,
           const std::vector<std::int64_t>& counts);

/** Total variation distance between two distributions. */
double tvd(const std::vector<double>& p, const std::vector<double>& q);

} // namespace permuq::sim

#endif // PERMUQ_SIM_QAOA_H
