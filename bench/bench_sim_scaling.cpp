/**
 * @file
 * Simulator engine scaling benchmark: compares the rewritten
 * statevector engine (compact block iteration + diagonal-gate fusion +
 * thread pool + CDF sampling) against a faithful replica of the seed's
 * scalar skip-scan kernels on a >=20-qubit QAOA expectation
 * evaluation, and reports serial-vs-parallel and fused-vs-unfused
 * throughput. Emits BENCH_sim.json next to the binary's working
 * directory for the driver to pick up.
 *
 * Also runs the objective-loop mode: a p=2 Nelder–Mead run whose
 * objective is evaluated (a) the pre-amortization mainline way — cost
 * batch, cut spectrum, and state rebuilt per call, per-qubit mixer
 * sweeps, scalar kernel tier — and (b) through one reused
 * QaoaObjective on the active SIMD tier with the blocked mixer. The
 * ratio is the headline amortization+SIMD win, and the mode
 * cross-checks that expectation values are bit-identical across SIMD
 * tiers and thread counts.
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
 * (timing repetitions, best-of, default 3), PERMUQ_SIM_OBJ_N
 * (objective-loop qubits, default 22), PERMUQ_SIM_OBJ_ITERS
 * (objective evaluations per run, default 200).
 */
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "sim/diagonal.h"
#include "sim/nelder_mead.h"
#include "sim/qaoa.h"
#include "sim/qaoa_objective.h"
#include "sim/simd.h"
#include "sim/statevector.h"
#include "sim/sweep.h"

using namespace permuq;

namespace {

/**
 * Replica of the seed's scalar statevector path: every kernel
 * skip-scans the full 2^n index range, sampling is a linear scan per
 * shot. Kept verbatim (modulo the class name) so the speedup below is
 * measured against exactly what the engine replaced.
 */
class SeedScalarSim
{
  public:
    using Amplitude = std::complex<double>;

    explicit SeedScalarSim(std::int32_t num_qubits)
    {
        amp_.assign(std::size_t(1) << num_qubits, Amplitude(0.0, 0.0));
        amp_[0] = Amplitude(1.0, 0.0);
    }

    void
    apply_h(std::int32_t q)
    {
        const std::size_t bit = std::size_t(1) << q;
        const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
        for (std::size_t i = 0; i < amp_.size(); ++i) {
            if (i & bit)
                continue;
            Amplitude a0 = amp_[i];
            Amplitude a1 = amp_[i | bit];
            amp_[i] = inv_sqrt2 * (a0 + a1);
            amp_[i | bit] = inv_sqrt2 * (a0 - a1);
        }
    }

    void
    apply_rx(std::int32_t q, double theta)
    {
        const std::size_t bit = std::size_t(1) << q;
        const double c = std::cos(theta / 2.0);
        const Amplitude ms(0.0, -std::sin(theta / 2.0));
        for (std::size_t i = 0; i < amp_.size(); ++i) {
            if (i & bit)
                continue;
            Amplitude a0 = amp_[i];
            Amplitude a1 = amp_[i | bit];
            amp_[i] = c * a0 + ms * a1;
            amp_[i | bit] = ms * a0 + c * a1;
        }
    }

    void
    apply_rzz(std::int32_t a, std::int32_t b, double theta)
    {
        const std::size_t abit = std::size_t(1) << a;
        const std::size_t bbit = std::size_t(1) << b;
        const Amplitude same = std::polar(1.0, -theta / 2.0);
        const Amplitude diff = std::polar(1.0, theta / 2.0);
        for (std::size_t i = 0; i < amp_.size(); ++i) {
            bool za = (i & abit) != 0;
            bool zb = (i & bbit) != 0;
            amp_[i] *= (za == zb) ? same : diff;
        }
    }

    std::vector<double>
    probabilities() const
    {
        std::vector<double> p(amp_.size());
        for (std::size_t i = 0; i < amp_.size(); ++i)
            p[i] = std::norm(amp_[i]);
        return p;
    }

    /** Seed sampler: O(2^n) linear scan per shot. */
    std::uint64_t
    sample(Xoshiro256& rng) const
    {
        double r = rng.next_double();
        double acc = 0.0;
        for (std::size_t i = 0; i < amp_.size(); ++i) {
            acc += std::norm(amp_[i]);
            if (r < acc)
                return i;
        }
        return amp_.size() - 1;
    }

  private:
    std::vector<Amplitude> amp_;
};

/** The seed's ideal_expectation, on the scalar replica. */
double
seed_ideal_expectation(const graph::Graph& problem,
                       const sim::QaoaAngles& angles)
{
    std::int32_t n = problem.num_vertices();
    SeedScalarSim sv(n);
    for (std::int32_t q = 0; q < n; ++q)
        sv.apply_h(q);
    for (std::size_t layer = 0; layer < angles.gamma.size(); ++layer) {
        for (const auto& e : problem.edges())
            sv.apply_rzz(e.a, e.b, -angles.gamma[layer]);
        for (std::int32_t q = 0; q < n; ++q)
            sv.apply_rx(q, 2.0 * angles.beta[layer]);
    }
    auto p = sv.probabilities();
    double sum = 0.0;
    for (std::size_t z = 0; z < p.size(); ++z)
        if (p[z] > 0.0)
            sum += p[z] * sim::cut_value(problem, z);
    return sum;
}

/** New engine, fusion off: per-gate RZZ sweeps on the compact-block
 *  kernels. Isolates the fusion win from the iteration-space win. */
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

/**
 * Replica of the mainline (pre-amortization) objective evaluation:
 * every call reallocates the state, rebuilds the cost batch, re-bakes
 * the 2^n cut spectrum, and sweeps the mixer one qubit at a time. The
 * caller forces the scalar kernel tier for the duration, standing in
 * for the scalar std::complex kernels this PR replaced.
 */
double
mainline_ideal_expectation(const graph::Graph& problem,
                           const sim::QaoaAngles& angles)
{
    const std::int32_t n = problem.num_vertices();
    sim::Statevector sv(n);
    for (std::int32_t q = 0; q < n; ++q)
        sv.apply_h(q);
    sim::DiagonalBatch cost;
    for (const auto& e : problem.edges())
        cost.add_rzz(e.a, e.b, 1.0);
    auto spectrum = cost.bake(n);
    const double offset =
        static_cast<double>(problem.edges().size()) / 2.0;
    for (std::size_t layer = 0; layer < angles.gamma.size(); ++layer) {
        cost.apply(sv, -angles.gamma[layer]);
        for (std::int32_t q = 0; q < n; ++q)
            sv.apply_rx(q, 2.0 * angles.beta[layer]);
    }
    const auto& amp = sv.amplitudes();
    const double* table = spectrum.data();
    return common::parallel_reduce_sum<double>(
        0, amp.size(), std::size_t(1) << 12,
        [&](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t z = b; z < e; ++z)
                s += std::norm(amp[z]) * (table[z] + offset);
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

    // 1. Seed scalar path (the baseline every speedup is against).
    auto [seed_s, seed_e] = time_best(
        reps, [&] { return seed_ideal_expectation(problem, angles); });
    std::printf("seed scalar path:        %7.3f s  <C>=%.6f\n", seed_s,
                seed_e);

    // 2. New engine, fused, all threads.
    common::set_num_threads(hw_threads);
    auto [fused_s, fused_e] = time_best(
        reps, [&] { return sim::ideal_expectation(problem, angles); });
    std::printf("engine fused  (%2d thr):  %7.3f s  <C>=%.6f\n",
                hw_threads, fused_s, fused_e);

    // 3. New engine, fused, one thread (isolates algorithmic wins).
    common::set_num_threads(1);
    auto [serial_s, serial_e] = time_best(
        reps, [&] { return sim::ideal_expectation(problem, angles); });
    common::set_num_threads(hw_threads);
    std::printf("engine fused  ( 1 thr):  %7.3f s  <C>=%.6f\n", serial_s,
                serial_e);

    // 4. New engine, fusion off (per-gate compact-block sweeps).
    auto [unfused_s, unfused_e] = time_best(
        reps, [&] { return unfused_ideal_expectation(problem, angles); });
    std::printf("engine unfused (%2d thr): %7.3f s  <C>=%.6f\n",
                hw_threads, unfused_s, unfused_e);

    // 5. Sampling: linear scan per shot vs one-time CDF + binary search.
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

    const double speedup = seed_s / fused_s;
    const double fusion_speedup = unfused_s / fused_s;
    const double thread_speedup = serial_s / fused_s;
    const double sample_speedup = linear_s / cdf_s;
    const double max_err = std::max(
        {std::abs(seed_e - fused_e), std::abs(seed_e - serial_e),
         std::abs(seed_e - unfused_e)});
    std::printf("speedup vs seed scalar:  %6.2fx  (need >= 2x)\n",
                speedup);
    std::printf("fusion speedup:          %6.2fx\n", fusion_speedup);
    std::printf("thread speedup:          %6.2fx\n", thread_speedup);
    std::printf("sampling speedup:        %6.2fx\n", sample_speedup);
    std::printf("max |<C> - seed <C>|:    %.2e  (samplers agree: %s)\n",
                max_err, linear_chk == cdf_chk ? "yes" : "NO");

    // 6. Objective-loop mode: a p=2 Nelder–Mead run, mainline per-eval
    // rebuild on the scalar tier vs one reused QaoaObjective on the
    // active tier.
    const std::int32_t obj_n = env_int("PERMUQ_SIM_OBJ_N", 22);
    const std::int32_t obj_iters = env_int("PERMUQ_SIM_OBJ_ITERS", 200);
    auto obj_problem = problem::random_graph(obj_n, 0.3, 5);
    const sim::SimdTier best_tier = sim::active_simd_tier();
    std::printf("\nobjective loop: n=%d p=2 evals=%d tier=%s\n", obj_n,
                obj_iters, sim::simd_tier_name(best_tier));

    auto run_loop = [&](const std::function<
                        double(const sim::QaoaAngles&)>& expectation) {
        auto f = [&](const std::vector<double>& x) {
            sim::QaoaAngles a{{x[0], x[1]}, {x[2], x[3]}};
            return -expectation(a);
        };
        return sim::nelder_mead(f, {0.3, 0.5, 0.2, 0.1}, 0.4,
                                obj_iters);
    };

    sim::set_simd_tier(sim::SimdTier::Scalar);
    auto [main_best, main_s] = bench::timed_call([&] {
        return run_loop([&](const sim::QaoaAngles& a) {
            return mainline_ideal_expectation(obj_problem, a);
        }).best_f;
    });
    sim::set_simd_tier(best_tier);
    std::printf("mainline per-eval rebuild: %7.3f s  best -E=%.6f\n",
                main_s, main_best);

    sim::QaoaObjective context(obj_problem);
    auto [amort_best, amort_s] = bench::timed_call([&] {
        return run_loop([&](const sim::QaoaAngles& a) {
            return context.ideal_expectation(a);
        }).best_f;
    });
    std::printf("amortized objective:       %7.3f s  best -E=%.6f\n",
                amort_s, amort_best);

    // Bit-identity across SIMD tiers and thread counts, and reused
    // context vs a fresh one; plus mainline-vs-amortized agreement at
    // fixed angles (different reduction shapes, so tolerance not bits).
    bool bit_identical = true;
    double cross_err = 0.0;
    const sim::QaoaAngles probes[] = {
        {{0.4, 0.7}, {0.35, 0.2}},
        {{1.1, -0.3}, {0.9, 0.45}},
    };
    for (const auto& a : probes) {
        double ref = 0.0;
        bool first = true;
        for (sim::SimdTier tier :
             {sim::SimdTier::Scalar, best_tier}) {
            sim::set_simd_tier(tier);
            for (std::int32_t threads : {1, hw_threads}) {
                common::set_num_threads(threads);
                double v = context.ideal_expectation(a);
                if (first) {
                    ref = v;
                    first = false;
                } else {
                    bit_identical =
                        bit_identical && bits_equal(ref, v);
                }
            }
        }
        sim::set_simd_tier(best_tier);
        common::set_num_threads(hw_threads);
        bit_identical =
            bit_identical &&
            bits_equal(ref, sim::QaoaObjective(obj_problem)
                                .ideal_expectation(a));
        sim::set_simd_tier(sim::SimdTier::Scalar);
        double main_v = mainline_ideal_expectation(obj_problem, a);
        sim::set_simd_tier(best_tier);
        cross_err = std::max(cross_err, std::abs(main_v - ref));
    }

    const double obj_speedup = main_s / amort_s;
    std::printf("objective speedup:       %6.2fx  (need >= 1.8x)\n",
                obj_speedup);
    std::printf("bit-identical across tiers/threads: %s  "
                "(mainline cross-check err %.2e)\n",
                bit_identical ? "yes" : "NO", cross_err);

    // 7. Per-stage ledger.
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
            "  \"seed_scalar_seconds\": %.6f,\n"
            "  \"fused_parallel_seconds\": %.6f,\n"
            "  \"fused_serial_seconds\": %.6f,\n"
            "  \"unfused_parallel_seconds\": %.6f,\n"
            "  \"linear_sampling_seconds\": %.6f,\n"
            "  \"cdf_sampling_seconds\": %.6f,\n"
            "  \"speedup_vs_seed\": %.3f,\n"
            "  \"fusion_speedup\": %.3f,\n"
            "  \"thread_speedup\": %.3f,\n"
            "  \"sampling_speedup\": %.3f,\n"
            "  \"expectation_max_abs_err\": %.3e,\n"
            "  \"samplers_agree\": %s,\n"
            "  \"simd_tier\": \"%s\",\n"
            "  \"objective_n\": %d,\n"
            "  \"objective_layers\": 2,\n"
            "  \"objective_evals\": %d,\n"
            "  \"objective_mainline_seconds\": %.6f,\n"
            "  \"objective_amortized_seconds\": %.6f,\n"
            "  \"objective_speedup\": %.3f,\n"
            "  \"objective_bit_identical\": %s,\n"
            "  \"objective_cross_check_err\": %.3e,\n"
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
            n, edges, angles.gamma.size(), hw_threads, shots, seed_s,
            fused_s, serial_s, unfused_s, linear_s, cdf_s, speedup,
            fusion_speedup, thread_speedup, sample_speedup, max_err,
            linear_chk == cdf_chk ? "true" : "false",
            sim::simd_tier_name(best_tier), obj_n, obj_iters, main_s,
            amort_s, obj_speedup, bit_identical ? "true" : "false",
            cross_err, stages.spectrum_n, stages.spectrum_terms,
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
    const bool pass = speedup >= 2.0 && max_err < 1e-6 &&
                      obj_speedup >= 1.8 && bit_identical &&
                      cross_err < 1e-6 && stages.pass();
    return pass ? 0 : 1;
}
