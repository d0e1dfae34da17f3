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
 * Always records the per-stage ledger (JSON "stages"): the fused
 * spectrum's key build at 20 qubits and one 15-qubit noisy objective
 * evaluation as permuqc runs it, each at one thread against a budget.
 *
 * With --sweep, also runs the batched-sweep mode: a gammas x betas
 * angle grid evaluated (a) sequentially through one QaoaObjective and
 * (b) through the batched SweepEvaluator, gating >= 2x points/sec on
 * the single-problem sweep (armed only when the sequential
 * statevector spills the detected last-level cache — a cache-resident
 * sequential loop makes the ratio measure cache vs DRAM bandwidth,
 * not the engine), bitwise-equal expectation values AND sampled shot
 * histograms against the sequential loop on every SIMD tier and
 * thread count, and (when the machine has >= 8 hardware threads)
 * >= 3x aggregate scaling from 1 to 8 concurrently swept problems
 * under the multi-problem memory budget.
 *
 * Knobs: PERMUQ_SIM_N (qubits, default 20), PERMUQ_SIM_REPS
 * (timing repetitions, best-of, default 3), PERMUQ_SIM_OBJ_N
 * (objective-loop qubits, default 22), PERMUQ_SIM_OBJ_ITERS
 * (objective evaluations per run, default 200), PERMUQ_SIM_SWEEP_N
 * (sweep qubits, default 22), PERMUQ_SIM_SWEEP_GRID (grid side,
 * default 8 -> 64 points), PERMUQ_SIM_SWEEP_PROBLEMS (multi-problem
 * width, default 8).
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

/** Everything the --sweep section measures (JSON "sweep" object). */
struct SweepBench
{
    std::int32_t n = 0;
    std::int32_t layers = 2;
    std::int64_t points = 0;
    std::int64_t batch = 0;
    double sequential_seconds = 0.0;
    double batched_seconds = 0.0;
    double sequential_pts_per_sec = 0.0;
    double batched_pts_per_sec = 0.0;
    double single_speedup = 0.0;
    double single_speedup_min = 2.0;
    /** One sequential statevector: 16 bytes * 2^n. */
    std::size_t state_bytes = 0;
    /** Detected last-level cache size (sysfs; 32 MB fallback). */
    std::size_t llc_bytes = 0;
    /** The >=2x gate only binds when batching's premise holds: the
     *  sequential statevector spills the last-level cache (n >= 20
     *  and state_bytes > llc_bytes, else the sequential loop streams
     *  from cache and the ratio measures cache vs DRAM bandwidth)
     *  AND the machine has >= 4 hardware threads (batching pays by
     *  cutting DRAM traffic, which only bounds throughput when the
     *  butterfly compute can spread across cores; on 1-2 threads
     *  both paths are compute-serialized — the multi_scaling gate
     *  below applies the same reasoning). Outside those conditions
     *  the ratio is reported but not enforced. */
    bool single_speedup_gated = false;
    bool values_identical = false;
    bool shots_identical = false;
    std::int32_t multi_problems = 0;
    std::int64_t multi_in_flight = 0;
    double multi_pts_per_sec = 0.0;
    double multi_scaling = 0.0;
    double multi_scaling_min = 3.0;
    /** The 1->8 problem scaling gate only binds on machines with at
     *  least 8 hardware threads (below that the scheduler correctly
     *  serializes and aggregate throughput cannot scale). */
    bool multi_scaling_gated = false;
    std::size_t memory_budget_bytes = 0;
    std::size_t peak_memory_bytes = 0;
    bool within_budget = false;

    bool
    pass() const
    {
        return values_identical && shots_identical && within_budget &&
               (!single_speedup_gated ||
                single_speedup >= single_speedup_min) &&
               (!multi_scaling_gated ||
                multi_scaling >= multi_scaling_min);
    }
};

/** Last-level data cache size in bytes: the largest cache level
 *  sysfs reports, 32 MB when nothing is readable (non-Linux). */
std::size_t
llc_cache_bytes()
{
    std::size_t best = 0;
    for (int index = 0; index < 8; ++index) {
        char path[128];
        std::snprintf(path, sizeof(path),
                      "/sys/devices/system/cpu/cpu0/cache/index%d/size",
                      index);
        std::FILE* f = std::fopen(path, "r");
        if (f == nullptr)
            continue;
        unsigned long long kb = 0;
        char unit = 'K';
        if (std::fscanf(f, "%llu%c", &kb, &unit) >= 1) {
            std::size_t bytes = static_cast<std::size_t>(kb) *
                                (unit == 'M' ? std::size_t(1) << 20
                                             : std::size_t(1) << 10);
            best = std::max(best, bytes);
        }
        std::fclose(f);
    }
    return best != 0 ? best : std::size_t(32) << 20;
}

/** The --sweep section: batched sweep engine vs the sequential
 *  QaoaObjective loop (see file comment). */
SweepBench
run_sweep_bench(std::int32_t hw_threads)
{
    SweepBench out;
    out.n = env_int("PERMUQ_SIM_SWEEP_N", 22);
    const std::int32_t grid = env_int("PERMUQ_SIM_SWEEP_GRID", 8);
    out.multi_problems = env_int("PERMUQ_SIM_SWEEP_PROBLEMS", 8);
    auto problem = problem::random_graph(out.n, 0.3, 5);
    const auto points = sim::sweep_grid(
        static_cast<std::size_t>(grid), static_cast<std::size_t>(grid),
        out.layers);
    out.points = static_cast<std::int64_t>(points.size());
    std::printf("\nsweep mode: n=%d p=%d grid=%dx%d (%lld points) "
                "tier=%s\n",
                out.n, out.layers, grid, grid,
                static_cast<long long>(out.points),
                sim::simd_tier_name(sim::active_simd_tier()));

    // 1. Sequential reference: one QaoaObjective evaluation per point.
    sim::QaoaObjective sequential_ctx(problem);
    std::vector<double> sequential(points.size());
    Timer seq_timer;
    for (std::size_t i = 0; i < points.size(); ++i)
        sequential[i] = sequential_ctx.ideal_expectation(points[i]);
    out.sequential_seconds = seq_timer.elapsed_seconds();
    out.sequential_pts_per_sec =
        static_cast<double>(points.size()) / out.sequential_seconds;
    std::printf("sequential loop:       %7.3f s  (%.1f pts/s)\n",
                out.sequential_seconds, out.sequential_pts_per_sec);

    // 2. Batched sweep, same problem, same points.
    sim::QaoaObjective batched_ctx(problem);
    sim::SweepOptions sweep_options;
    sim::SweepEvaluator evaluator(batched_ctx, sweep_options);
    auto result = evaluator.ideal_sweep(points);
    out.batched_seconds = result.seconds;
    out.batched_pts_per_sec = result.points_per_sec;
    out.batch = static_cast<std::int64_t>(result.batch);
    out.single_speedup = out.sequential_seconds / out.batched_seconds;
    out.state_bytes = std::size_t(16) << out.n;
    out.llc_bytes = llc_cache_bytes();
    out.single_speedup_gated = out.n >= 20 &&
                               out.state_bytes > out.llc_bytes &&
                               hw_threads >= 4;
    std::printf("batched sweep (B=%lld): %7.3f s  (%.1f pts/s)  "
                "%5.2fx  (gate %s >= %.1fx)\n",
                static_cast<long long>(out.batch), out.batched_seconds,
                out.batched_pts_per_sec, out.single_speedup,
                out.single_speedup_gated ? "active" : "off",
                out.single_speedup_min);
    if (!out.single_speedup_gated) {
        if (out.state_bytes <= out.llc_bytes)
            std::printf("  (gate off: %zu MB statevector vs %zu MB "
                        "LLC -- the sequential loop is "
                        "cache-resident, so the ratio is "
                        "informational)\n",
                        out.state_bytes >> 20, out.llc_bytes >> 20);
        else if (hw_threads < 4)
            std::printf("  (gate off: %d hardware thread(s) -- both "
                        "paths are compute-serialized, so the ratio "
                        "is informational)\n",
                        hw_threads);
    }

    // 3. Bitwise identity of the expectation values against the
    // sequential loop, on every compiled-in SIMD tier and at 1 and
    // hw threads.
    const sim::SimdTier best_tier = sim::active_simd_tier();
    out.values_identical = true;
    for (std::size_t i = 0; i < points.size(); ++i)
        out.values_identical = out.values_identical &&
                               bits_equal(result.values[i],
                                          sequential[i]);
    for (sim::SimdTier tier :
         {sim::SimdTier::Scalar, sim::SimdTier::Avx2,
          sim::detected_simd_tier()}) {
        for (std::int32_t threads : {1, hw_threads}) {
            sim::set_simd_tier(tier);
            common::set_num_threads(threads);
            sim::QaoaObjective probe_ctx(problem);
            auto probe =
                sim::SweepEvaluator(probe_ctx).ideal_sweep(points);
            for (std::size_t i = 0; i < points.size(); ++i)
                out.values_identical =
                    out.values_identical &&
                    bits_equal(probe.values[i], sequential[i]);
        }
    }
    sim::set_simd_tier(best_tier);
    common::set_num_threads(hw_threads);

    // 4. Sampled shots: the noisy sweep's per-point histograms must
    // equal the sequential noisy_counts loop, RNG stream and all.
    // Small instance -- this gates correctness, not throughput.
    {
        auto shot_problem = problem::random_graph(10, 0.35, 7);
        auto device =
            arch::smallest_arch(arch::ArchKind::Grid,
                                shot_problem.num_vertices());
        auto compiled = core::compile(device, shot_problem, {});
        auto noise = arch::NoiseModel::calibrated(device, 11);
        auto shot_points = sim::sweep_grid(2, 2, 1);
        sim::NoisySimOptions noisy;
        noisy.trajectories = 4;
        noisy.shots = 500;
        noisy.seed = 77;
        sim::QaoaObjective shot_seq(shot_problem);
        std::vector<std::vector<std::int64_t>> want;
        for (const auto& a : shot_points)
            want.push_back(shot_seq.noisy_counts(compiled.circuit,
                                                 noise, a, noisy));
        out.shots_identical = true;
        for (sim::SimdTier tier :
             {sim::SimdTier::Scalar, sim::detected_simd_tier()}) {
            for (std::int32_t threads : {1, hw_threads}) {
                sim::set_simd_tier(tier);
                common::set_num_threads(threads);
                sim::QaoaObjective shot_ctx(shot_problem);
                auto got = sim::SweepEvaluator(shot_ctx)
                               .noisy_sweep_counts(compiled.circuit,
                                                   noise, shot_points,
                                                   noisy);
                out.shots_identical =
                    out.shots_identical && got == want;
            }
        }
        sim::set_simd_tier(best_tier);
        common::set_num_threads(hw_threads);
        std::printf("bitwise vs sequential: values %s, shots %s\n",
                    out.values_identical ? "yes" : "NO",
                    out.shots_identical ? "yes" : "NO");
    }

    // 5. Multi-problem scaling: aggregate throughput of P problems
    // swept concurrently vs the single-problem batched throughput.
    out.memory_budget_bytes = sweep_options.memory_budget_bytes;
    {
        std::vector<graph::Graph> graphs;
        graphs.reserve(static_cast<std::size_t>(out.multi_problems));
        for (std::int32_t k = 0; k < out.multi_problems; ++k)
            graphs.push_back(problem::random_graph(
                out.n, 0.3, 5 + static_cast<std::uint64_t>(k)));
        std::vector<sim::QaoaObjective> contexts;
        contexts.reserve(graphs.size());
        for (const auto& g : graphs)
            contexts.emplace_back(g);
        std::vector<sim::QaoaObjective*> objectives;
        for (auto& c : contexts)
            objectives.push_back(&c);
        auto multi =
            sim::sweep_problems(objectives, points, sweep_options);
        out.multi_in_flight =
            static_cast<std::int64_t>(multi.problems_in_flight);
        out.multi_pts_per_sec = multi.points_per_sec;
        out.multi_scaling =
            multi.points_per_sec / out.batched_pts_per_sec;
        out.peak_memory_bytes = multi.peak_memory_bytes;
        out.within_budget =
            multi.peak_memory_bytes <= out.memory_budget_bytes;
        out.multi_scaling_gated =
            hw_threads >= 8 && out.multi_problems >= 8;
        std::printf("multi-problem (%d problems, %lld in flight): "
                    "%.1f pts/s aggregate, %.2fx of single "
                    "(gate %s >= %.1fx), peak %zu / budget %zu "
                    "bytes\n",
                    out.multi_problems,
                    static_cast<long long>(out.multi_in_flight),
                    out.multi_pts_per_sec, out.multi_scaling,
                    out.multi_scaling_gated ? "active" : "off",
                    out.multi_scaling_min, out.peak_memory_bytes,
                    out.memory_budget_bytes);
    }
    return out;
}

/** The per-stage ledger (JSON "stages"): the two simulator stages the
 *  QAOA jobs spend their time on, each against a budget that this
 *  bench's exit status and tools/diff_bench.py enforce. Fixed sizes at
 *  one thread, so a smoke run and a full run time the same work. */
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

    bool
    pass() const
    {
        return spectrum_build_ms <= spectrum_build_budget_ms &&
               noisy_eval_ms <= noisy_eval_budget_ms;
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
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    bool with_sweep = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--sweep") == 0)
            with_sweep = true;
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

    // 8. Batched sweep mode (opt-in: --sweep).
    SweepBench sweep;
    if (with_sweep)
        sweep = run_sweep_bench(hw_threads);

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
            "    \"noisy_eval_budget_ms\": %.2f\n"
            "  },\n",
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
            stages.noisy_eval_budget_ms);
        if (with_sweep) {
            std::fprintf(
                json,
                "  \"sweep\": {\n"
                "    \"n\": %d,\n"
                "    \"layers\": %d,\n"
                "    \"points\": %lld,\n"
                "    \"batch\": %lld,\n"
                "    \"sequential_seconds\": %.6f,\n"
                "    \"batched_seconds\": %.6f,\n"
                "    \"sequential_pts_per_sec\": %.3f,\n"
                "    \"batched_pts_per_sec\": %.3f,\n"
                "    \"single_speedup\": %.3f,\n"
                "    \"single_speedup_min\": %.2f,\n"
                "    \"state_bytes\": %zu,\n"
                "    \"llc_bytes\": %zu,\n"
                "    \"single_speedup_gated\": %s,\n"
                "    \"values_identical\": %s,\n"
                "    \"shots_identical\": %s,\n"
                "    \"multi_problems\": %d,\n"
                "    \"multi_in_flight\": %lld,\n"
                "    \"multi_pts_per_sec\": %.3f,\n"
                "    \"multi_scaling\": %.3f,\n"
                "    \"multi_scaling_min\": %.2f,\n"
                "    \"multi_scaling_gated\": %s,\n"
                "    \"memory_budget_bytes\": %zu,\n"
                "    \"peak_memory_bytes\": %zu,\n"
                "    \"within_budget\": %s\n"
                "  }\n"
                "}\n",
                sweep.n, sweep.layers,
                static_cast<long long>(sweep.points),
                static_cast<long long>(sweep.batch),
                sweep.sequential_seconds, sweep.batched_seconds,
                sweep.sequential_pts_per_sec,
                sweep.batched_pts_per_sec, sweep.single_speedup,
                sweep.single_speedup_min, sweep.state_bytes,
                sweep.llc_bytes,
                sweep.single_speedup_gated ? "true" : "false",
                sweep.values_identical ? "true" : "false",
                sweep.shots_identical ? "true" : "false",
                sweep.multi_problems,
                static_cast<long long>(sweep.multi_in_flight),
                sweep.multi_pts_per_sec, sweep.multi_scaling,
                sweep.multi_scaling_min,
                sweep.multi_scaling_gated ? "true" : "false",
                sweep.memory_budget_bytes, sweep.peak_memory_bytes,
                sweep.within_budget ? "true" : "false");
        } else {
            std::fprintf(json, "  \"sweep\": null\n}\n");
        }
        std::fclose(json);
        std::printf("wrote BENCH_sim.json\n");
    }
    bench::write_metrics_sidecar("sim_scaling");
    std::printf("stage budgets: %s\n", stages.pass() ? "PASS" : "FAIL");
    bool pass = speedup >= 2.0 && max_err < 1e-6 &&
                obj_speedup >= 1.8 && bit_identical && cross_err < 1e-6 &&
                stages.pass();
    if (with_sweep) {
        std::printf("sweep gate: %s\n", sweep.pass() ? "PASS" : "FAIL");
        pass = pass && sweep.pass();
    }
    return pass ? 0 : 1;
}
