#include "sweep.h"

#include <algorithm>
#include <chrono>
#include <numbers>

#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "sim/simd.h"

namespace permuq::sim {

namespace {

double
elapsed_seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void
count_points(std::size_t points)
{
    if (!telemetry::enabled())
        return;
    static telemetry::Counter& swept =
        telemetry::counter("permuq.sim.sweep.points");
    swept.add(static_cast<std::int64_t>(points));
}

/** Tag the sweep's span and count its points. */
void
describe(telemetry::ScopedSpan& span, const char* mode,
         std::int32_t qubits, const std::vector<QaoaAngles>& points)
{
    span.arg("tier", simd_tier_name(active_simd_tier()));
    span.arg("mode", mode);
    span.arg("qubits", qubits);
    span.arg("layers",
             static_cast<std::int64_t>(points[0].gamma.size()));
    span.arg("points", static_cast<std::int64_t>(points.size()));
    count_points(points.size());
}

void
finalize(SweepResult& res, std::chrono::steady_clock::time_point t0)
{
    res.seconds = elapsed_seconds(t0);
    res.points_per_sec =
        res.seconds > 0.0
            ? static_cast<double>(res.points) / res.seconds
            : 0.0;
    res.best_index = 0;
    res.best_value = res.values.empty() ? 0.0 : res.values[0];
    for (std::size_t i = 1; i < res.values.size(); ++i) {
        if (res.values[i] > res.best_value) {
            res.best_value = res.values[i];
            res.best_index = i;
        }
    }
}

} // namespace

SweepEvaluator::SweepEvaluator(QaoaObjective& objective) : obj_(objective)
{
}

SweepResult
SweepEvaluator::ideal_sweep(const std::vector<QaoaAngles>& points)
{
    SweepResult res;
    res.points = points.size();
    if (points.empty())
        return res;
    telemetry::ScopedSpan span("sim.sweep.eval");
    describe(span, "ideal", obj_.num_qubits(), points);
    const auto t0 = std::chrono::steady_clock::now();
    res.values.reserve(points.size());
    for (const QaoaAngles& angles : points)
        res.values.push_back(obj_.ideal_expectation(angles));
    finalize(res, t0);
    return res;
}

SweepResult
SweepEvaluator::noisy_sweep(const circuit::Circuit& compiled,
                            const arch::NoiseModel& noise,
                            const std::vector<QaoaAngles>& points,
                            const NoisySimOptions& options)
{
    SweepResult res;
    res.points = points.size();
    if (points.empty())
        return res;
    telemetry::ScopedSpan span("sim.sweep.eval");
    describe(span, "noisy", obj_.num_qubits(), points);
    const auto t0 = std::chrono::steady_clock::now();
    res.values.reserve(points.size());
    for (const QaoaAngles& angles : points)
        res.values.push_back(
            obj_.noisy_expectation(compiled, noise, angles, options));
    finalize(res, t0);
    return res;
}

std::vector<std::vector<std::int64_t>>
SweepEvaluator::noisy_sweep_counts(const circuit::Circuit& compiled,
                                   const arch::NoiseModel& noise,
                                   const std::vector<QaoaAngles>& points,
                                   const NoisySimOptions& options)
{
    std::vector<std::vector<std::int64_t>> counts;
    if (points.empty())
        return counts;
    telemetry::ScopedSpan span("sim.sweep.eval");
    describe(span, "noisy-counts", obj_.num_qubits(), points);
    counts.reserve(points.size());
    for (const QaoaAngles& angles : points)
        counts.push_back(
            obj_.noisy_counts(compiled, noise, angles, options));
    return counts;
}

MultiSweepResult
sweep_problems(const std::vector<QaoaObjective*>& objectives,
               const std::vector<QaoaAngles>& points)
{
    MultiSweepResult out;
    const std::size_t count = objectives.size();
    out.problems.resize(count);
    if (count == 0)
        return out;
    const auto t0 = std::chrono::steady_clock::now();
    auto run = [&](std::size_t j) {
        out.problems[j] = SweepEvaluator(*objectives[j]).ideal_sweep(points);
    };
    if (count == 1) {
        // A pool task would run its kernels inline; called directly,
        // a lone problem keeps the pool for its kernels.
        run(0);
        out.problems_in_flight = 1;
    } else {
        common::parallel_tasks(static_cast<std::int64_t>(count),
                               [&](std::int64_t j) {
                                   run(static_cast<std::size_t>(j));
                               });
        out.problems_in_flight = std::min(
            count, static_cast<std::size_t>(common::num_threads()));
    }
    out.seconds = elapsed_seconds(t0);
    out.points_per_sec =
        out.seconds > 0.0
            ? static_cast<double>(count * points.size()) / out.seconds
            : 0.0;
    return out;
}

std::vector<QaoaAngles>
sweep_grid(std::size_t gammas, std::size_t betas, std::int32_t layers)
{
    std::vector<QaoaAngles> pts;
    pts.reserve(gammas * betas);
    for (std::size_t i = 0; i < gammas; ++i) {
        const double gamma = static_cast<double>(i + 1) *
                             std::numbers::pi /
                             static_cast<double>(gammas + 1);
        for (std::size_t j = 0; j < betas; ++j) {
            const double beta = static_cast<double>(j + 1) *
                                (std::numbers::pi / 2.0) /
                                static_cast<double>(betas + 1);
            QaoaAngles p;
            p.gamma.assign(static_cast<std::size_t>(layers), gamma);
            p.beta.assign(static_cast<std::size_t>(layers), beta);
            pts.push_back(std::move(p));
        }
    }
    return pts;
}

} // namespace permuq::sim
