/**
 * @file
 * Simulator engine scaling benchmark: times a 2-layer QAOA expectation
 * evaluation (default 20 qubits) through the fused engine at the full
 * thread pool and at one thread, against the same circuit as per-gate
 * RZZ sweeps with fusion off, and 8192-shot sampling by linear scan
 * against the CDF sampler. The fused and unfused expectations must
 * agree to 1e-6. Emits BENCH_sim.json in the working directory.
 *
 * Always records the per-stage ledger (JSON "stages"), at one thread
 * and fixed sizes: the fused spectrum's key build at 20 qubits and one
 * 15-qubit noisy objective evaluation as permuqc runs it, each against
 * a budget; one 20-qubit ideal evaluation split into its passes (fill,
 * phase LUT, mixer, reduction); and the 15-qubit mixer. Each mixer row
 * is gated on an in-process ratio, apply_rx_all against n single-qubit
 * apply_rx passes on the same state, which host drift cannot move.
 *
 * Knobs: PERMUQ_SIM_N (qubits, default 20), PERMUQ_SIM_REPS
 * (timing repetitions, best-of, default 3).
 */
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "sim/diagonal.h"
#include "sim/qaoa.h"
#include "sim/qaoa_objective.h"
#include "sim/simd.h"
#include "sim/statevector.h"
#include "sim/sweep.h"

using namespace permuq;

namespace {

/** The same evaluation with fusion off: per-gate RZZ sweeps on the
 *  compact-block kernels, and the reference the fused <C> must match. */
double
unfused_ideal_expectation(const graph::Graph& problem,
                          const sim::QaoaAngles& angles)
{
    std::int32_t n = problem.num_vertices();
    sim::Statevector sv(n);
    for (std::int32_t q = 0; q < n; ++q)
        sv.apply_h(q);
    for (std::size_t layer = 0; layer < angles.gamma.size(); ++layer) {
        for (const auto& e : problem.edges())
            sv.apply_rzz(e.a, e.b, -angles.gamma[layer]);
        for (std::int32_t q = 0; q < n; ++q)
            sv.apply_rx(q, 2.0 * angles.beta[layer]);
    }
    const auto& amp = sv.amplitudes();
    return common::parallel_reduce_sum<double>(
        0, amp.size(), std::size_t(1) << 12,
        [&](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t z = b; z < e; ++z)
                s += std::norm(amp[z]) *
                     sim::cut_value(problem, static_cast<std::uint64_t>(z));
            return s;
        });
}

bool
bits_equal(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::int32_t
env_int(const char* name, std::int32_t fallback)
{
    const char* v = std::getenv(name);
    if (v != nullptr && std::atoi(v) >= 1)
        return std::atoi(v);
    return fallback;
}

/** Best-of-reps wall time of @p body; returns (seconds, last result).
 *  Timing goes through bench::timed_call so each rep also lands in the
 *  permuq.bench.run_ms histogram. */
template <typename Fn>
std::pair<double, double>
time_best(std::int32_t reps, Fn&& body)
{
    double best = 1e30, result = 0.0;
    for (std::int32_t r = 0; r < reps; ++r) {
        auto [value, seconds] = bench::timed_call(body);
        result = value;
        best = std::min(best, seconds);
    }
    return {best, result};
}

/** apply_rx_all against n single-qubit apply_rx passes on one state
 *  (JSON "<row>_ms", "<row>_sequential_ms", "<row>_ratio"). */
struct MixerRow
{
    std::int32_t n = 0;
    double blocked_ms = 0.0;
    double sequential_ms = 0.0;
    /** sequential_ms / blocked_ms; gated against a floor. */
    double ratio = 0.0;
    double ratio_min = 0.0;
};

/** The per-stage ledger (JSON "stages"): the simulator stages the
 *  QAOA jobs spend their time on, each against a budget or a ratio
 *  floor that this bench's exit status and tools/diff_bench.py
 *  enforce. Fixed sizes at one thread, so a smoke run and a full run
 *  time the same work. */
struct StageBench
{
    /** Key build of the fused cost batch: one RZZ per edge of the
     *  n=20, 57-edge problem, baked from scratch. */
    std::int32_t spectrum_n = 20;
    std::int32_t spectrum_terms = 0;
    double spectrum_build_ms = 0.0;
    double spectrum_build_budget_ms = 30.0;
    /** One noisy objective evaluation as permuqc runs it: 15 qubits
     *  compiled for Mumbai at the best tier, calibration seed 7,
     *  8 trajectories, 2000 shots; mean over a 4x4 angle grid. */
    std::int32_t noisy_n = 15;
    std::int32_t noisy_trajectories = 8;
    std::int32_t noisy_shots = 2000;
    std::int32_t noisy_evals = 0;
    double noisy_eval_ms = 0.0;
    double noisy_eval_budget_ms = 15.0;
    /** One ideal objective evaluation, p=1, on the spectrum problem,
     *  split by pass; the split must reproduce
     *  QaoaObjective::ideal_expectation bit for bit. */
    std::int32_t ideal_n = 20;
    double ideal_fill_ms = 0.0;
    double ideal_phase_ms = 0.0;
    double ideal_reduce_ms = 0.0;
    bool ideal_split_identical = false;
    /** The evaluation's mixer pass, and the 15-qubit mixer. Each floor
     *  sits below every ratio measured on one 4-vCPU AVX-512 host on
     *  both vector tiers (20q: 2.29x, 15q: 1.67x at the lowest, both
     *  AVX2) and above the 1.0-1.7x of the mixer before its register
     *  blocks (EXPERIMENTS.md). The AVX2 runs forced PERMUQ_SIMD=avx2
     *  on that host; no AVX2-only machine has measured them yet. */
    MixerRow ideal_mixer{20, 0.0, 0.0, 0.0, 2.0};
    MixerRow mixer15{15, 0.0, 0.0, 0.0, 1.4};
    /** The floors bind on the vector tiers; the scalar tier has no
     *  register blocks, so there the ratios are informational. */
    bool mixer_gated = false;

    bool
    pass() const
    {
        return spectrum_build_ms <= spectrum_build_budget_ms &&
               noisy_eval_ms <= noisy_eval_budget_ms &&
               ideal_split_identical &&
               (!mixer_gated ||
                (ideal_mixer.ratio >= ideal_mixer.ratio_min &&
                 mixer15.ratio >= mixer15.ratio_min));
    }
};

/** Best-of-@p reps wall time of @p body in milliseconds, measured
 *  again up to twice while over @p budget_ms: an unlucky timeslice
 *  passes on a retry, a real regression fails all three. */
template <typename Fn>
double
budgeted_ms(std::int32_t reps, double budget_ms, Fn&& body)
{
    double ms = time_best(reps, body).first * 1e3;
    for (int attempt = 0; attempt < 2 && ms > budget_ms; ++attempt)
        ms = time_best(reps, body).first * 1e3;
    return ms;
}

/** Lower @p best_ms to the wall time of one call of @p body. */
template <typename Fn>
void
keep_best_ms(double& best_ms, Fn&& body)
{
    Timer timer;
    body();
    best_ms = std::min(best_ms, timer.elapsed_seconds() * 1e3);
}

/** Time the mixer layer on @p sv and the same layer as n apply_rx
 *  passes alternately, best of @p reps each, into @p row; measured
 *  again up to twice while under the floor, like budgeted_ms. */
void
time_mixer(MixerRow& row, bool gated, std::int32_t reps,
           sim::Statevector& sv, double theta)
{
    for (int attempt = 0; attempt < 3; ++attempt) {
        row.blocked_ms = row.sequential_ms = 1e30;
        for (std::int32_t r = 0; r < reps; ++r) {
            keep_best_ms(row.blocked_ms, [&] { sv.apply_rx_all(theta); });
            keep_best_ms(row.sequential_ms, [&] {
                for (std::int32_t q = 0; q < row.n; ++q)
                    sv.apply_rx(q, theta);
            });
        }
        row.ratio = row.sequential_ms / row.blocked_ms;
        if (!gated || row.ratio >= row.ratio_min)
            break;
    }
}

StageBench
run_stage_bench(std::int32_t reps, std::int32_t hw_threads)
{
    StageBench out;
    common::set_num_threads(1);

    auto spectrum_problem = problem::random_graph(out.spectrum_n, 0.3, 5);
    out.spectrum_terms =
        static_cast<std::int32_t>(spectrum_problem.edges().size());
    out.spectrum_build_ms =
        budgeted_ms(reps, out.spectrum_build_budget_ms, [&] {
            sim::DiagonalBatch cost;
            for (const auto& e : spectrum_problem.edges())
                cost.add_rzz(e.a, e.b, 1.0);
            return cost.baked_view(out.spectrum_n).keys[0];
        });

    auto device = arch::make_mumbai();
    auto noise = arch::NoiseModel::calibrated(device, 7);
    auto noisy_problem = problem::random_graph(out.noisy_n, 0.3, 5);
    core::CompilerOptions compile_options;
    compile_options.tier = core::CompileTier::Best;
    auto compiled = core::compile(device, noisy_problem, compile_options);
    const auto points = sim::sweep_grid(4, 4, 1);
    out.noisy_evals = static_cast<std::int32_t>(points.size());
    sim::QaoaObjective context(noisy_problem);
    double noisy_sum = 0.0;
    out.noisy_eval_ms =
        budgeted_ms(reps, out.noisy_eval_budget_ms * out.noisy_evals, [&] {
            noisy_sum = 0.0;
            for (std::size_t i = 0; i < points.size(); ++i) {
                sim::NoisySimOptions options;
                options.trajectories = out.noisy_trajectories;
                options.shots = out.noisy_shots;
                options.seed = 1000 + i;
                noisy_sum += context.noisy_expectation(
                    compiled.circuit, noise, points[i], options);
            }
            return noisy_sum;
        }) /
        out.noisy_evals;

    // One ideal p=1 evaluation, pass by pass, through the objective's
    // own cost batch and reduction: fill, cost phase, mixer, <C>.
    out.mixer_gated = sim::active_simd_tier() != sim::SimdTier::Scalar;
    const sim::QaoaAngles ideal_angles{{0.4}, {0.35}};
    sim::QaoaObjective ideal(spectrum_problem);
    sim::Statevector sv(out.ideal_n);
    const double beta2 = 2.0 * ideal_angles.beta[0];
    double expectation = 0.0;
    // Five repetitions at least: the fill and reduction take about a
    // millisecond, where one timeslice shows.
    const std::int32_t split_reps = std::max(reps, 5);
    out.ideal_fill_ms = out.ideal_phase_ms = out.ideal_reduce_ms = 1e30;
    for (std::int32_t r = 0; r < split_reps; ++r) {
        keep_best_ms(out.ideal_fill_ms, [&] { sv.reset_to_plus(); });
        keep_best_ms(out.ideal_phase_ms, [&] {
            ideal.cost_batch().apply(sv, -ideal_angles.gamma[0]);
        });
        sv.apply_rx_all(beta2);
        keep_best_ms(out.ideal_reduce_ms,
                     [&] { expectation = ideal.expectation(sv); });
    }
    out.ideal_split_identical =
        bits_equal(expectation, ideal.ideal_expectation(ideal_angles));
    // The mixer row times the layer on the evaluation's output state;
    // its cost does not depend on the amplitudes.
    time_mixer(out.ideal_mixer, out.mixer_gated, split_reps, sv, beta2);

    sim::Statevector sv15(out.mixer15.n);
    sv15.reset_to_plus();
    time_mixer(out.mixer15, out.mixer_gated, 25, sv15, beta2);
    common::set_num_threads(hw_threads);

    std::printf("\nstage ledger (1 thread):\n");
    std::printf("spectrum build n=%d terms=%d:  %8.3f ms  (budget %.1f ms)\n",
                out.spectrum_n, out.spectrum_terms, out.spectrum_build_ms,
                out.spectrum_build_budget_ms);
    std::printf("noisy eval n=%d mumbai %d traj %d shots:  %8.3f ms  "
                "(budget %.1f ms, mean <C>=%.4f)\n",
                out.noisy_n, out.noisy_trajectories, out.noisy_shots,
                out.noisy_eval_ms, out.noisy_eval_budget_ms,
                noisy_sum / out.noisy_evals);
    std::printf("ideal eval n=%d p=1:  fill %.3f  phase LUT %.3f  mixer "
                "%.3f  reduction %.3f ms  (<C>=%.6f, %s QaoaObjective)\n",
                out.ideal_n, out.ideal_fill_ms, out.ideal_phase_ms,
                out.ideal_mixer.blocked_ms, out.ideal_reduce_ms,
                expectation,
                out.ideal_split_identical ? "bitwise equal to"
                                          : "DIFFERS from");
    for (const MixerRow* row : {&out.ideal_mixer, &out.mixer15})
        std::printf("mixer n=%d %s:  %.3f ms vs %.3f ms as %d apply_rx "
                    "passes = %.2fx  (floor %.2fx%s)\n",
                    row->n, sim::simd_tier_name(sim::active_simd_tier()),
                    row->blocked_ms, row->sequential_ms, row->n,
                    row->ratio, row->ratio_min,
                    out.mixer_gated ? "" : ", off on the scalar tier");
    return out;
}

} // namespace

int
main()
{
    bench::banner("statevector engine scaling", "engine rewrite");
    const std::int32_t n = env_int("PERMUQ_SIM_N", 20);
    const std::int32_t reps = env_int("PERMUQ_SIM_REPS", 3);
    const std::int32_t hw_threads = common::num_threads();
    const std::int32_t shots = 8192;
    auto problem = problem::random_graph(n, 0.3, 5);
    const auto edges =
        static_cast<std::int32_t>(problem.edges().size());
    sim::QaoaAngles angles{{0.4, 0.7}, {0.35, 0.2}};
    std::printf("n=%d edges=%d layers=%zu threads=%d reps=%d\n\n", n,
                edges, angles.gamma.size(), hw_threads, reps);

    // 1. Fused engine, all threads.
    common::set_num_threads(hw_threads);
    auto [fused_s, fused_e] = time_best(
        reps, [&] { return sim::ideal_expectation(problem, angles); });
    std::printf("engine fused  (%2d thr):  %7.3f s  <C>=%.6f\n",
                hw_threads, fused_s, fused_e);

    // 2. Fused engine, one thread.
    common::set_num_threads(1);
    auto [serial_s, serial_e] = time_best(
        reps, [&] { return sim::ideal_expectation(problem, angles); });
    common::set_num_threads(hw_threads);
    std::printf("engine fused  ( 1 thr):  %7.3f s  <C>=%.6f\n", serial_s,
                serial_e);

    // 3. Fusion off (per-gate compact-block sweeps).
    auto [unfused_s, unfused_e] = time_best(
        reps, [&] { return unfused_ideal_expectation(problem, angles); });
    std::printf("engine unfused (%2d thr): %7.3f s  <C>=%.6f\n",
                hw_threads, unfused_s, unfused_e);

    // 4. Sampling: linear scan per shot vs one-time CDF + binary search.
    sim::Statevector sv(n);
    for (std::int32_t q = 0; q < n; ++q)
        sv.apply_h(q);
    sim::DiagonalBatch cost;
    for (const auto& e : problem.edges())
        cost.add_rzz(e.a, e.b, 1.0);
    cost.apply(sv, -angles.gamma[0]);
    for (std::int32_t q = 0; q < n; ++q)
        sv.apply_rx(q, 2.0 * angles.beta[0]);
    auto [linear_s, linear_chk] = time_best(reps, [&] {
        Xoshiro256 rng(3);
        std::uint64_t acc = 0;
        for (std::int32_t s = 0; s < shots; ++s)
            acc ^= sv.sample(rng);
        return static_cast<double>(acc);
    });
    auto [cdf_s, cdf_chk] = time_best(reps, [&] {
        Xoshiro256 rng(3);
        sim::CdfSampler sampler(sv);
        std::uint64_t acc = 0;
        for (std::int32_t s = 0; s < shots; ++s)
            acc ^= sampler.sample(rng);
        return static_cast<double>(acc);
    });
    std::printf("%d shots linear scan:  %7.3f s\n", shots, linear_s);
    std::printf("%d shots CDF sampler:  %7.3f s\n\n", shots, cdf_s);

    const double fusion_speedup = unfused_s / fused_s;
    const double thread_speedup = serial_s / fused_s;
    const double sample_speedup = linear_s / cdf_s;
    const double max_err = std::max(std::abs(fused_e - unfused_e),
                                    std::abs(serial_e - unfused_e));
    std::printf("fusion speedup:          %6.2fx\n", fusion_speedup);
    std::printf("thread speedup:          %6.2fx\n", thread_speedup);
    std::printf("sampling speedup:        %6.2fx\n", sample_speedup);
    std::printf("max |<C> - unfused <C>|: %.2e  (need < 1e-6, samplers "
                "agree: %s)\n",
                max_err, linear_chk == cdf_chk ? "yes" : "NO");

    // 5. Per-stage ledger.
    const StageBench stages = run_stage_bench(reps, hw_threads);

    std::FILE* json = std::fopen("BENCH_sim.json", "w");
    if (json != nullptr) {
        std::fprintf(
            json,
            "{\n"
            "  \"n\": %d,\n"
            "  \"edges\": %d,\n"
            "  \"layers\": %zu,\n"
            "  \"threads\": %d,\n"
            "  \"shots\": %d,\n"
            "  \"fused_parallel_seconds\": %.6f,\n"
            "  \"fused_serial_seconds\": %.6f,\n"
            "  \"unfused_parallel_seconds\": %.6f,\n"
            "  \"linear_sampling_seconds\": %.6f,\n"
            "  \"cdf_sampling_seconds\": %.6f,\n"
            "  \"fusion_speedup\": %.3f,\n"
            "  \"thread_speedup\": %.3f,\n"
            "  \"sampling_speedup\": %.3f,\n"
            "  \"expectation_max_abs_err\": %.3e,\n"
            "  \"samplers_agree\": %s,\n"
            "  \"simd_tier\": \"%s\",\n"
            "  \"stages\": {\n"
            "    \"threads\": 1,\n"
            "    \"spectrum_n\": %d,\n"
            "    \"spectrum_terms\": %d,\n"
            "    \"spectrum_build_ms\": %.4f,\n"
            "    \"spectrum_build_budget_ms\": %.2f,\n"
            "    \"noisy_n\": %d,\n"
            "    \"noisy_trajectories\": %d,\n"
            "    \"noisy_shots\": %d,\n"
            "    \"noisy_evals\": %d,\n"
            "    \"noisy_eval_ms\": %.4f,\n"
            "    \"noisy_eval_budget_ms\": %.2f,\n"
            "    \"ideal_n\": %d,\n"
            "    \"ideal_fill_ms\": %.4f,\n"
            "    \"ideal_phase_ms\": %.4f,\n"
            "    \"ideal_mixer_ms\": %.4f,\n"
            "    \"ideal_reduce_ms\": %.4f,\n"
            "    \"ideal_split_identical\": %s,\n"
            "    \"mixer_gated\": %s,\n"
            "    \"ideal_mixer_sequential_ms\": %.4f,\n"
            "    \"ideal_mixer_ratio\": %.3f,\n"
            "    \"ideal_mixer_ratio_min\": %.2f,\n"
            "    \"mixer15_n\": %d,\n"
            "    \"mixer15_ms\": %.4f,\n"
            "    \"mixer15_sequential_ms\": %.4f,\n"
            "    \"mixer15_ratio\": %.3f,\n"
            "    \"mixer15_ratio_min\": %.2f\n"
            "  }\n"
            "}\n",
            n, edges, angles.gamma.size(), hw_threads, shots, fused_s,
            serial_s, unfused_s, linear_s, cdf_s, fusion_speedup,
            thread_speedup, sample_speedup, max_err,
            linear_chk == cdf_chk ? "true" : "false",
            sim::simd_tier_name(sim::active_simd_tier()),
            stages.spectrum_n, stages.spectrum_terms,
            stages.spectrum_build_ms, stages.spectrum_build_budget_ms,
            stages.noisy_n, stages.noisy_trajectories, stages.noisy_shots,
            stages.noisy_evals, stages.noisy_eval_ms,
            stages.noisy_eval_budget_ms, stages.ideal_n,
            stages.ideal_fill_ms, stages.ideal_phase_ms,
            stages.ideal_mixer.blocked_ms, stages.ideal_reduce_ms,
            stages.ideal_split_identical ? "true" : "false",
            stages.mixer_gated ? "true" : "false",
            stages.ideal_mixer.sequential_ms, stages.ideal_mixer.ratio,
            stages.ideal_mixer.ratio_min, stages.mixer15.n,
            stages.mixer15.blocked_ms, stages.mixer15.sequential_ms,
            stages.mixer15.ratio, stages.mixer15.ratio_min);
        std::fclose(json);
        std::printf("wrote BENCH_sim.json\n");
    }
    bench::write_metrics_sidecar("sim_scaling");
    std::printf("stage gates: %s\n", stages.pass() ? "PASS" : "FAIL");
    return max_err < 1e-6 && stages.pass() ? 0 : 1;
}
