/**
 * @file
 * Tests of the angle sweeps (sim/sweep.h): sweep results bit-identical
 * to a sequential QaoaObjective loop over the same points across SIMD
 * tiers (scalar / AVX2 / AVX-512 when the CPU has it) and thread
 * counts, on the ideal, weighted, and noisy paths (expectation values
 * AND sampled shot histograms); multi-problem scheduling invariance;
 * and golden values of the ideal and noisy objective and sweeps,
 * pinned as hexfloats.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "common/parallel.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "problem/weighted.h"
#include "sim/qaoa.h"
#include "sim/qaoa_objective.h"
#include "sim/simd.h"
#include "sim/statevector.h"
#include "sim/sweep.h"

namespace permuq::sim {
namespace {

/** Restore the SIMD tier and thread count when a test exits. */
struct DispatchGuard
{
    SimdTier tier = active_simd_tier();
    int threads = common::num_threads();
    ~DispatchGuard()
    {
        set_simd_tier(tier);
        common::set_num_threads(threads);
    }
};

/** The reference a sweep must reproduce exactly: one QaoaObjective
 *  evaluation per point, sequentially. */
std::vector<double>
sequential_ideal(QaoaObjective& context,
                 const std::vector<QaoaAngles>& points)
{
    std::vector<double> values;
    values.reserve(points.size());
    for (const QaoaAngles& angles : points)
        values.push_back(context.ideal_expectation(angles));
    return values;
}

void
expect_bitwise(const std::vector<double>& got,
               const std::vector<double>& want, const char* label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(std::memcmp(&got[i], &want[i], sizeof(double)) == 0)
            << label << " point " << i << ": " << got[i]
            << " != " << want[i];
}

TEST(SweepGrid, ShapeAndAngleFormula)
{
    auto grid = sweep_grid(3, 4, 2);
    ASSERT_EQ(grid.size(), 12u);
    const double pi = std::acos(-1.0);
    // Row-major over (gamma_i, beta_j), all layers share the angles.
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            const QaoaAngles& pt = grid[i * 4 + j];
            ASSERT_EQ(pt.gamma.size(), 2u);
            ASSERT_EQ(pt.beta.size(), 2u);
            EXPECT_DOUBLE_EQ(pt.gamma[0], double(i + 1) * pi / 4.0);
            EXPECT_DOUBLE_EQ(pt.beta[0],
                             double(j + 1) * (pi / 2.0) / 5.0);
            EXPECT_EQ(pt.gamma[0], pt.gamma[1]);
            EXPECT_EQ(pt.beta[0], pt.beta[1]);
        }
    }
}

TEST(SweepIdeal, BitIdenticalAcrossTiersAndThreads)
{
    DispatchGuard guard;
    auto problem = problem::random_graph(10, 0.35, 3);
    QaoaObjective reference(problem);
    auto points = sweep_grid(5, 5, 2);
    set_simd_tier(SimdTier::Scalar);
    common::set_num_threads(1);
    auto want = sequential_ideal(reference, points);
    for (SimdTier tier :
         {SimdTier::Scalar, SimdTier::Avx2, detected_simd_tier()}) {
        for (int threads : {1, 4}) {
            set_simd_tier(tier);
            common::set_num_threads(threads);
            QaoaObjective context(problem);
            SweepEvaluator evaluator(context);
            SweepResult result = evaluator.ideal_sweep(points);
            expect_bitwise(result.values, want, "ideal sweep");
            EXPECT_EQ(result.points, points.size());
            EXPECT_EQ(result.batch, 1u);
            EXPECT_EQ(result.memory_bytes, evaluator.memory_bytes());
        }
    }
}

TEST(SweepIdeal, BestPointIsFirstMaximum)
{
    auto problem = problem::random_graph(9, 0.3, 5);
    QaoaObjective context(problem);
    auto points = sweep_grid(4, 4, 1);
    SweepResult result = SweepEvaluator(context).ideal_sweep(points);
    std::size_t best = 0;
    for (std::size_t i = 1; i < result.values.size(); ++i)
        if (result.values[i] > result.values[best])
            best = i;
    EXPECT_EQ(result.best_index, best);
    EXPECT_EQ(result.best_value, result.values[best]);
    EXPECT_GT(result.points_per_sec, 0.0);
}

TEST(SweepIdeal, WeightedProblemBitIdentical)
{
    // Weighted spectra are dense (non-uniform coefficients): the
    // phase runs out of the baked angle table instead of the LUT.
    auto wp = problem::weighted_random_graph(9, 0.4, 7);
    QaoaObjective reference(wp);
    auto points = sweep_grid(3, 4, 2);
    auto want = sequential_ideal(reference, points);
    QaoaObjective context(wp);
    SweepEvaluator evaluator(context);
    expect_bitwise(evaluator.ideal_sweep(points).values, want,
                   "weighted sweep");
}

TEST(SweepNoisy, ExpectationBitIdenticalToSequential)
{
    DispatchGuard guard;
    auto device = arch::make_mumbai();
    auto noise = arch::NoiseModel::calibrated(device, 11);
    auto problem = problem::random_graph(8, 0.4, 3);
    auto compiled = core::compile(device, problem);
    auto points = sweep_grid(3, 2, 1);
    NoisySimOptions options;
    options.trajectories = 5;
    options.shots = 400;
    options.seed = 123;
    set_simd_tier(SimdTier::Scalar);
    common::set_num_threads(1);
    QaoaObjective reference(problem);
    std::vector<double> want;
    for (const QaoaAngles& angles : points)
        want.push_back(reference.noisy_expectation(compiled.circuit,
                                                   noise, angles,
                                                   options));
    for (SimdTier tier : {SimdTier::Scalar, detected_simd_tier()}) {
        for (int threads : {1, 4}) {
            set_simd_tier(tier);
            common::set_num_threads(threads);
            QaoaObjective context(problem);
            SweepEvaluator evaluator(context);
            SweepResult result = evaluator.noisy_sweep(
                compiled.circuit, noise, points, options);
            expect_bitwise(result.values, want, "noisy sweep");
        }
    }
    // The op-by-op replay path must agree with itself too.
    NoisySimOptions unfused = options;
    unfused.fuse_diagonals = false;
    QaoaObjective context(problem);
    std::vector<double> want_unfused;
    for (const QaoaAngles& angles : points)
        want_unfused.push_back(context.noisy_expectation(
            compiled.circuit, noise, angles, unfused));
    QaoaObjective swept(problem);
    expect_bitwise(SweepEvaluator(swept)
                       .noisy_sweep(compiled.circuit, noise, points,
                                    unfused)
                       .values,
                   want_unfused, "unfused noisy sweep");
}

TEST(SweepNoisy, SampledShotHistogramsMatchSequential)
{
    DispatchGuard guard;
    auto device = arch::make_mumbai();
    auto noise = arch::NoiseModel::calibrated(device, 7);
    auto problem = problem::random_graph(8, 0.35, 5);
    auto compiled = core::compile(device, problem);
    auto points = sweep_grid(2, 2, 1);
    NoisySimOptions options;
    options.trajectories = 4;
    options.shots = 300;
    options.seed = 29;
    QaoaObjective reference(problem);
    std::vector<std::vector<std::int64_t>> want;
    for (const QaoaAngles& angles : points)
        want.push_back(reference.noisy_counts(compiled.circuit, noise,
                                              angles, options));
    for (int threads : {1, 4}) {
        common::set_num_threads(threads);
        QaoaObjective context(problem);
        auto counts = SweepEvaluator(context).noisy_sweep_counts(
            compiled.circuit, noise, points, options);
        ASSERT_EQ(counts.size(), want.size()) << threads << " threads";
        for (std::size_t p = 0; p < want.size(); ++p)
            EXPECT_EQ(counts[p], want[p])
                << "point " << p << ", " << threads << " threads";
    }
}

TEST(SweepNoisy, WeightedDelegationBitIdentical)
{
    auto device = arch::make_mumbai();
    auto noise = arch::NoiseModel::calibrated(device, 5);
    auto wp = problem::weighted_random_graph(8, 0.35, 5);
    auto compiled = core::compile(device, wp.graph);
    auto points = sweep_grid(2, 2, 1);
    NoisySimOptions options;
    options.trajectories = 3;
    options.shots = 200;
    options.seed = 41;
    QaoaObjective reference(wp);
    std::vector<double> want;
    for (const QaoaAngles& angles : points)
        want.push_back(reference.noisy_expectation(compiled.circuit,
                                                   noise, angles,
                                                   options));
    QaoaObjective context(wp);
    expect_bitwise(SweepEvaluator(context)
                       .noisy_sweep(compiled.circuit, noise, points,
                                    options)
                       .values,
                   want, "weighted noisy sweep");
}

TEST(SweepMultiProblem, ResultsInvariantAcrossSchedules)
{
    DispatchGuard guard;
    std::vector<graph::Graph> graphs;
    graphs.push_back(problem::random_graph(8, 0.4, 3));
    graphs.push_back(problem::random_graph(9, 0.35, 5));
    graphs.push_back(problem::random_graph(10, 0.3, 7));
    auto points = sweep_grid(3, 3, 2);

    // Standalone reference per problem, single-threaded scalar.
    set_simd_tier(SimdTier::Scalar);
    common::set_num_threads(1);
    std::vector<std::vector<double>> want;
    for (const auto& g : graphs) {
        QaoaObjective context(g);
        want.push_back(SweepEvaluator(context).ideal_sweep(points).values);
    }

    for (int threads : {1, 4}) {
        common::set_num_threads(threads);
        set_simd_tier(detected_simd_tier());
        std::vector<QaoaObjective> contexts;
        contexts.reserve(graphs.size());
        for (const auto& g : graphs)
            contexts.emplace_back(g);
        std::vector<QaoaObjective*> objectives;
        for (auto& c : contexts)
            objectives.push_back(&c);
        MultiSweepResult result = sweep_problems(objectives, points);
        ASSERT_EQ(result.problems.size(), graphs.size());
        for (std::size_t p = 0; p < graphs.size(); ++p)
            expect_bitwise(result.problems[p].values, want[p],
                           "multi-problem sweep");
        EXPECT_GE(result.problems_in_flight, 1u);
        EXPECT_GT(result.points_per_sec, 0.0);
    }
}

// Golden values. The tests above compare two paths of one build, so a
// change that moves every path by the same last bit passes them; these
// pin the doubles themselves as hexfloats. Change a value only for a
// deliberate numerical change, and record why in CHANGES.md. On a
// mismatch the test prints the computed values in pasteable form.

void
expect_golden(const std::vector<double>& got,
              const std::vector<double>& want, const char* label)
{
    std::ostringstream listing;
    listing << std::hexfloat;
    for (double v : got)
        listing << "\n        " << v << ",";
    ASSERT_EQ(got.size(), want.size())
        << label << " computed:" << listing.str();
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(std::memcmp(&got[i], &want[i], sizeof(double)) == 0)
            << label << " value " << i << " computed:" << listing.str();
}

/** The noisy fixture: a 10-vertex problem compiled for Mumbai at the
 *  best tier (pinned, so PERMUQ_TIER cannot change the circuit) and
 *  simulated under calibration seed 7 with permuqc's trajectory and
 *  shot counts. */
struct NoisyGolden
{
    arch::CouplingGraph device = arch::make_mumbai();
    arch::NoiseModel noise = arch::NoiseModel::calibrated(device, 7);
    graph::Graph problem = problem::random_graph(10, 0.35, 4);
    core::CompileResult compiled = compile_best();
    NoisySimOptions options = permuqc_options();

    core::CompileResult
    compile_best() const
    {
        core::CompilerOptions opts;
        opts.tier = core::CompileTier::Best;
        return core::compile(device, problem, opts);
    }

    static NoisySimOptions
    permuqc_options()
    {
        NoisySimOptions o;
        o.trajectories = 8;
        o.shots = 2000;
        o.seed = 1000;
        return o;
    }
};

TEST(SimGolden, IdealExpectation)
{
    auto problem = problem::random_graph(12, 0.3, 5);
    QaoaObjective context(problem);
    std::vector<double> got;
    for (const QaoaAngles& angles :
         {QaoaAngles{{0.3}, {0.2}}, QaoaAngles{{0.4, 0.7}, {0.35, 0.2}}})
        got.push_back(context.ideal_expectation(angles));
    expect_golden(got, {0x1.7a8f4a06c24d8p+3, 0x1.c09e55e1207c8p+3},
                  "ideal_expectation");
}

TEST(SimGolden, NoisyExpectation)
{
    NoisyGolden g;
    QaoaObjective context(g.problem);
    std::vector<double> got;
    for (const QaoaAngles& angles :
         {QaoaAngles{{0.3}, {0.2}}, QaoaAngles{{0.4, 0.7}, {0.35, 0.2}}})
        got.push_back(context.noisy_expectation(g.compiled.circuit,
                                                g.noise, angles,
                                                g.options));
    expect_golden(got, {0x1.1d47ae147ae14p+3, 0x1.2e8f5c28f5c29p+3},
                  "noisy_expectation");
}

TEST(SimGolden, IdealSweep)
{
    auto problem = problem::random_graph(12, 0.3, 5);
    QaoaObjective context(problem);
    SweepResult result =
        SweepEvaluator(context).ideal_sweep(sweep_grid(4, 4, 1));
    expect_golden(result.values,
                  {0x1.a08053d4bf594p+3, 0x1.6bd45fcd09db4p+3,
                   0x1.d58d02bd5411ep+2, 0x1.9f5fdd8ccab3p+2,
                   0x1.57e0760fe046p+3, 0x1.4ca64c0ed152cp+3,
                   0x1.2dd5813ca31f2p+3, 0x1.2604208d62544p+3,
                   0x1.38e3a032f6232p+3, 0x1.3b7011399aa59p+3,
                   0x1.441fac2b40a4ep+3, 0x1.46f17ea155f6p+3,
                   0x1.464a7ec35cdf4p+3, 0x1.482789f01fb87p+3,
                   0x1.4303df729daa5p+3, 0x1.3df9b3f12eabdp+3},
                  "ideal 4x4 sweep");
}

TEST(SimGolden, NoisySweep)
{
    NoisyGolden g;
    QaoaObjective context(g.problem);
    SweepResult result = SweepEvaluator(context).noisy_sweep(
        g.compiled.circuit, g.noise, sweep_grid(4, 4, 1), g.options);
    expect_golden(result.values,
                  {0x1.2d4bc6a7ef9dbp+3, 0x1.0c6a7ef9db22dp+3,
                   0x1.9947ae147ae14p+2, 0x1.82e978d4fdf3bp+2,
                   0x1.0ed0e56041893p+3, 0x1.084dd2f1a9fbep+3,
                   0x1.ec6a7ef9db22dp+2, 0x1.da147ae147ae1p+2,
                   0x1.f25604189374cp+2, 0x1.f62d0e5604189p+2,
                   0x1.039db22d0e56p+3, 0x1.0326e978d4fdfp+3,
                   0x1.fee147ae147aep+2, 0x1.0610624dd2f1bp+3,
                   0x1.0716872b020c5p+3, 0x1.04c8b43958106p+3},
                  "noisy 4x4 sweep");
}

} // namespace
} // namespace permuq::sim
