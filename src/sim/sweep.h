/**
 * @file
 * QAOA angle sweeps (landscape scans, grid searches, multi-start
 * optimizer seeding): one problem evaluated at many (gamma, beta)
 * points, and several problems swept concurrently.
 *
 * SweepEvaluator evaluates its points one at a time through the
 * borrowed QaoaObjective, whose cost spectrum, scratch state and
 * replay plan every point reuses. A sweep's values, optimum and
 * sampled shots are therefore those of a per-point QaoaObjective loop
 * by construction, bit for bit on every SIMD tier and thread count.
 * DESIGN.md §4i records why sweeps run point by point.
 *
 * sweep_problems runs independent objectives concurrently on the
 * common/parallel pool, one task per problem; each objective owns its
 * scratch state, so there is no shared buffer to budget.
 */
#ifndef PERMUQ_SIM_SWEEP_H
#define PERMUQ_SIM_SWEEP_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/noise_model.h"
#include "circuit/circuit.h"
#include "sim/qaoa.h"
#include "sim/qaoa_objective.h"

namespace permuq::sim {

/** Result of one sweep over a point list. */
struct SweepResult
{
    /** Expected cut per point, in input order. */
    std::vector<double> values;
    /** Index of the best (maximum) value; first on ties. */
    std::size_t best_index = 0;
    double best_value = 0.0;
    std::size_t points = 0;
    /** Points per statevector pass: always 1, one point at a time. */
    std::size_t batch = 1;
    double seconds = 0.0;
    double points_per_sec = 0.0;
    /** Buffer bytes the sweep owns (see SweepEvaluator::memory_bytes). */
    std::size_t memory_bytes = 0;
};

/**
 * Per-point sweep over one QaoaObjective. Borrows the objective; keep
 * it alive for the evaluator's lifetime. Not thread-safe —
 * sweep_problems() gives each concurrent problem its own objective.
 */
class SweepEvaluator
{
  public:
    explicit SweepEvaluator(QaoaObjective& objective);

    /** Buffer bytes the evaluator owns beyond its objective: none,
     *  since every point runs in the objective's scratch state. */
    std::size_t memory_bytes() const { return 0; }

    /** Ideal (noiseless) expectation at every point:
     *  QaoaObjective::ideal_expectation per point. */
    SweepResult ideal_sweep(const std::vector<QaoaAngles>& points);

    /** Noisy expectation at every point (see sim/qaoa.h for the
     *  trajectory model): QaoaObjective::noisy_expectation per point,
     *  sampled shots included. */
    SweepResult noisy_sweep(const circuit::Circuit& compiled,
                            const arch::NoiseModel& noise,
                            const std::vector<QaoaAngles>& points,
                            const NoisySimOptions& options);

    /** Per-point shot histograms of the noisy execution:
     *  counts[p] is QaoaObjective::noisy_counts at point p. */
    std::vector<std::vector<std::int64_t>> noisy_sweep_counts(
        const circuit::Circuit& compiled, const arch::NoiseModel& noise,
        const std::vector<QaoaAngles>& points,
        const NoisySimOptions& options);

  private:
    QaoaObjective& obj_;
};

/** Result of a multi-problem sweep. */
struct MultiSweepResult
{
    /** One per objective, in input order; each equal to a standalone
     *  SweepEvaluator over that objective. */
    std::vector<SweepResult> problems;
    /** Problems evaluated concurrently: min(problems, threads). */
    std::size_t problems_in_flight = 0;
    double seconds = 0.0;
    /** Aggregate throughput: problems * points / seconds. */
    double points_per_sec = 0.0;
};

/**
 * Ideal-sweep @p points over every objective, one pool task per
 * problem (a lone problem keeps the pool for its kernels). Results
 * are a pure function of (objectives, points) — identical at any
 * thread count.
 */
MultiSweepResult sweep_problems(
    const std::vector<QaoaObjective*>& objectives,
    const std::vector<QaoaAngles>& points);

/**
 * A gammas x betas angle grid with @p layers layers (all layers share
 * a point's angles): gamma_i = (i+1) * pi / (gammas+1), beta_j =
 * (j+1) * (pi/2) / (betas+1), row-major over (i, j).
 */
std::vector<QaoaAngles> sweep_grid(std::size_t gammas, std::size_t betas,
                                   std::int32_t layers);

} // namespace permuq::sim

#endif // PERMUQ_SIM_SWEEP_H
