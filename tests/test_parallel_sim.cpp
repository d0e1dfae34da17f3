/**
 * @file
 * Tests of the parallel simulation engine: bitwise equivalence of
 * parallel vs 1-thread execution, DiagonalBatch fusion vs the
 * per-gate reference, its baked key and angle tables vs explicit
 * Walsh sums, the CDF sampler vs the linear-scan sampler, the
 * deterministic reduction machinery, and the raised qubit cap.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <numbers>
#include <vector>

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "common/error.h"
#include "common/parallel.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "sim/diagonal.h"
#include "sim/hamiltonian.h"
#include "sim/qaoa.h"
#include "sim/statevector.h"

namespace permuq::sim {
namespace {

/** Restore the pool size even when an assertion fails mid-test. */
struct ThreadGuard
{
    int saved = common::num_threads();
    ~ThreadGuard() { common::set_num_threads(saved); }
};

/** A deterministic pseudo-random circuit exercising every kernel. */
void
apply_mixed_circuit(Statevector& sv, std::uint64_t seed)
{
    const std::int32_t n = sv.num_qubits();
    Xoshiro256 rng(seed);
    for (std::int32_t q = 0; q < n; ++q)
        sv.apply_h(q);
    for (int round = 0; round < 30; ++round) {
        std::int32_t q = static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        std::int32_t r = static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        sv.apply_rx(q, rng.next_double());
        sv.apply_rz(q, rng.next_double());
        sv.apply_y(q);
        if (q != r) {
            sv.apply_cx(q, r);
            sv.apply_rzz(q, r, rng.next_double());
            sv.apply_cphase(q, r, rng.next_double());
            sv.apply_swap(q, r);
        }
    }
}

TEST(ParallelForTest, CoversRangeExactlyOnce)
{
    ThreadGuard guard;
    common::set_num_threads(4);
    std::vector<std::atomic<int>> hits(10000);
    common::parallel_for(0, hits.size(), 16,
                         [&](std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i)
                                 hits[i].fetch_add(1);
                         });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, PropagatesExceptions)
{
    ThreadGuard guard;
    common::set_num_threads(4);
    EXPECT_THROW(common::parallel_for(0, 1 << 16, 16,
                                      [&](std::size_t b, std::size_t) {
                                          if (b > 0)
                                              throw FatalError("boom");
                                      }),
                 FatalError);
    // The pool must still be usable after an exception.
    std::atomic<int> count{0};
    common::parallel_for(0, 1 << 16, 16,
                         [&](std::size_t b, std::size_t e) {
                             count += static_cast<int>(e - b);
                         });
    EXPECT_EQ(count.load(), 1 << 16);
}

TEST(ParallelForTest, NestedCallsRunInline)
{
    ThreadGuard guard;
    common::set_num_threads(4);
    std::atomic<int> total{0};
    common::parallel_for(0, 1 << 12, 16,
                         [&](std::size_t b, std::size_t e) {
                             // Nested use must not deadlock.
                             common::parallel_for(
                                 b, e, 1, [&](std::size_t b2,
                                              std::size_t e2) {
                                     total += static_cast<int>(e2 - b2);
                                 });
                         });
    EXPECT_EQ(total.load(), 1 << 12);
}

TEST(ParallelReduceTest, BitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    // A sum whose result depends on association order if the slicing
    // were thread-dependent.
    std::vector<double> xs(1 << 16);
    Xoshiro256 rng(11);
    for (auto& x : xs)
        x = rng.next_double() * 1e6 - 5e5;
    auto sum_with = [&](int threads) {
        common::set_num_threads(threads);
        return common::parallel_reduce_sum<double>(
            0, xs.size(), 1 << 10, [&](std::size_t b, std::size_t e) {
                double s = 0.0;
                for (std::size_t i = b; i < e; ++i)
                    s += xs[i];
                return s;
            });
    };
    const double s1 = sum_with(1);
    const double s2 = sum_with(2);
    const double s4 = sum_with(4);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s4);
}

TEST(ParallelSimTest, AmplitudesBitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    auto run_with = [&](int threads) {
        common::set_num_threads(threads);
        Statevector sv(13);
        apply_mixed_circuit(sv, 99);
        return sv.amplitudes();
    };
    auto serial = run_with(1);
    auto parallel2 = run_with(2);
    auto parallel4 = run_with(4);
    ASSERT_EQ(serial.size(), parallel4.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].real(), parallel2[i].real()) << "i=" << i;
        ASSERT_EQ(serial[i].imag(), parallel2[i].imag()) << "i=" << i;
        ASSERT_EQ(serial[i].real(), parallel4[i].real()) << "i=" << i;
        ASSERT_EQ(serial[i].imag(), parallel4[i].imag()) << "i=" << i;
    }
}

TEST(ParallelSimTest, NormBitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    auto run_with = [&](int threads) {
        common::set_num_threads(threads);
        Statevector sv(13);
        apply_mixed_circuit(sv, 5);
        return sv.norm_sq();
    };
    EXPECT_EQ(run_with(1), run_with(4));
}

TEST(ParallelSimTest, NoisyExpectationBitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    auto device = arch::make_mumbai();
    auto problem = problem::random_graph(8, 0.35, 5);
    auto compiled = core::compile(device, problem).circuit;
    auto noise = arch::NoiseModel::calibrated(device, 3, 0.02);
    QaoaAngles angles{{0.5}, {0.4}};
    NoisySimOptions options;
    options.trajectories = 8;
    options.shots = 4000;
    auto run_with = [&](int threads) {
        common::set_num_threads(threads);
        return noisy_expectation(problem, compiled, noise, angles,
                                 options);
    };
    const double e1 = run_with(1);
    const double e4 = run_with(4);
    EXPECT_EQ(e1, e4);
}

TEST(DiagonalBatchTest, MatchesPerGateReference)
{
    Statevector fused(10), reference(10);
    apply_mixed_circuit(fused, 3);
    apply_mixed_circuit(reference, 3);

    DiagonalBatch batch;
    Xoshiro256 rng(17);
    for (int k = 0; k < 20; ++k) {
        std::int32_t a = static_cast<std::int32_t>(rng.next_below(10));
        std::int32_t b = static_cast<std::int32_t>(rng.next_below(10));
        double theta = rng.next_double() * 2.0 - 1.0;
        switch (k % 4) {
          case 0:
            batch.add_rz(a, theta);
            reference.apply_rz(a, theta);
            break;
          case 1:
            batch.add_z(a);
            reference.apply_z(a);
            break;
          case 2:
            if (a == b)
                b = (a + 1) % 10;
            batch.add_rzz(a, b, theta);
            reference.apply_rzz(a, b, theta);
            break;
          default:
            if (a == b)
                b = (a + 1) % 10;
            batch.add_cphase(a, b, theta);
            reference.apply_cphase(a, b, theta);
            break;
        }
    }
    batch.apply(fused);
    for (std::size_t i = 0; i < fused.amplitudes().size(); ++i) {
        EXPECT_NEAR(fused.amplitudes()[i].real(),
                    reference.amplitudes()[i].real(), 1e-10);
        EXPECT_NEAR(fused.amplitudes()[i].imag(),
                    reference.amplitudes()[i].imag(), 1e-10);
    }
}

TEST(DiagonalBatchTest, ZGateIncludesGlobalPhase)
{
    // Unlike RZ(pi), the batch's Z must reproduce diag(1,-1) exactly
    // (global phase included) to match apply_z amplitudes.
    Statevector fused(2), reference(2);
    fused.apply_h(0);
    reference.apply_h(0);
    DiagonalBatch batch;
    batch.add_z(0);
    batch.apply(fused);
    reference.apply_z(0);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(fused.amplitudes()[i].real(),
                    reference.amplitudes()[i].real(), 1e-12);
        EXPECT_NEAR(fused.amplitudes()[i].imag(),
                    reference.amplitudes()[i].imag(), 1e-12);
    }
}

TEST(DiagonalBatchTest, ScaleRescalesAllAngles)
{
    Statevector scaled(6), reference(6);
    apply_mixed_circuit(scaled, 21);
    apply_mixed_circuit(reference, 21);
    DiagonalBatch batch;
    batch.add_rzz(0, 3, 1.0);
    batch.add_rzz(2, 4, 1.0);
    batch.apply(scaled, -0.7);
    reference.apply_rzz(0, 3, -0.7);
    reference.apply_rzz(2, 4, -0.7);
    for (std::size_t i = 0; i < scaled.amplitudes().size(); ++i) {
        EXPECT_NEAR(scaled.amplitudes()[i].real(),
                    reference.amplitudes()[i].real(), 1e-10);
        EXPECT_NEAR(scaled.amplitudes()[i].imag(),
                    reference.amplitudes()[i].imag(), 1e-10);
    }
}

TEST(DiagonalBatchTest, BakedTableMatchesDirectApply)
{
    Statevector direct(8), baked(8);
    apply_mixed_circuit(direct, 7);
    apply_mixed_circuit(baked, 7);
    DiagonalBatch batch;
    batch.add_rzz(0, 5, 0.9);
    batch.add_rz(3, -0.4);
    batch.add_cphase(1, 6, 1.3);
    batch.apply(direct, 0.6);
    baked.apply_phase_table(batch.bake(8), 0.6);
    for (std::size_t i = 0; i < direct.amplitudes().size(); ++i) {
        EXPECT_NEAR(direct.amplitudes()[i].real(),
                    baked.amplitudes()[i].real(), 1e-12);
        EXPECT_NEAR(direct.amplitudes()[i].imag(),
                    baked.amplitudes()[i].imag(), 1e-12);
    }
}

/** sum_t weight_t * (-1)^popcount(i & mask_t), summed in term order. */
template <typename T>
T
walsh_sum(std::size_t i, const std::vector<std::uint64_t>& masks,
          const std::vector<T>& weights)
{
    T sum = 0;
    for (std::size_t t = 0; t < masks.size(); ++t)
        sum += (std::popcount(i & masks[t]) & 1) ? -weights[t] : weights[t];
    return sum;
}

TEST(DiagonalBatchTest, UniformKeysAreExactWalshSums)
{
    // Every term below has |coeff| = pi/2 exactly: Z, RZ(+-pi),
    // RZZ(+-pi) and CPHASE(+-2 pi), whose three terms carry -+pi/2.
    // 15 and 16 qubits span several 4096-key blocks, on four threads.
    ThreadGuard guard;
    common::set_num_threads(4);
    const double pi = std::numbers::pi;
    for (std::int32_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16}) {
        Xoshiro256 rng(static_cast<std::uint64_t>(n));
        DiagonalBatch batch;
        std::vector<std::uint64_t> masks;
        std::vector<std::int32_t> signs;
        auto term = [&](std::uint64_t mask, std::int32_t sign) {
            masks.push_back(mask);
            signs.push_back(sign);
        };
        for (std::int32_t q = 0; q < n; ++q) {
            const std::uint64_t bit = std::uint64_t(1) << q;
            if (q % 3 == 0 && q + 1 < n) {
                const std::int32_t s = rng.next_below(2) ? 1 : -1;
                batch.add_cphase(q, q + 1, 2.0 * pi * s);
                term(bit, -s);
                term(bit << 1, -s);
                term(bit | bit << 1, s);
                ++q;
                continue;
            }
            switch (rng.next_below(3)) {
              case 0: batch.add_z(q); term(bit, -1); break;
              case 1: batch.add_rz(q, pi); term(bit, -1); break;
              default: batch.add_rz(q, -pi); term(bit, 1); break;
            }
        }
        if (n >= 3) {
            // pi/2 - pi merged into one mask (qubits 0 and 2 share no
            // earlier term): the sign flips and the batch stays uniform.
            batch.add_rzz(0, 2, -pi);
            batch.add_rzz(0, 2, 2.0 * pi);
            term(5, -1);
        }
        for (std::int32_t k = 0; k < 2 * n; ++k) {
            const auto a = static_cast<std::int32_t>(
                rng.next_below(static_cast<std::uint64_t>(n)));
            const auto b = static_cast<std::int32_t>(
                rng.next_below(static_cast<std::uint64_t>(n)));
            const std::uint64_t mask =
                (std::uint64_t(1) << a) | (std::uint64_t(1) << b);
            if (a == b ||
                std::find(masks.begin(), masks.end(), mask) != masks.end())
                continue;
            const std::int32_t s = rng.next_below(2) ? 1 : -1;
            batch.add_rzz(a, b, -pi * s);
            term(mask, s);
        }

        const auto view = batch.baked_view(n);
        ASSERT_TRUE(view.uniform) << n << " qubits";
        ASSERT_NE(view.keys, nullptr);
        EXPECT_EQ(view.dense, nullptr);
        EXPECT_EQ(view.quantum, pi / 2.0);
        EXPECT_EQ(view.span, static_cast<std::int32_t>(masks.size()));
        const std::size_t size = std::size_t(1) << n;
        for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(view.keys[i], walsh_sum(i, masks, signs))
                << n << " qubits, index " << i;
    }
}

TEST(DiagonalBatchTest, MergedMixedMagnitudesTakeTheDensePath)
{
    // Two RZZ on one pair merge to |coeff| = 1.0 beside 0.5 terms: the
    // batch is not uniform, so it bakes double angles in term order.
    for (std::int32_t n = 3; n <= 10; ++n) {
        DiagonalBatch batch;
        batch.add_rzz(0, 2, 1.0);
        batch.add_rzz(0, 2, 1.0);
        batch.add_rzz(1, 2, -1.0);
        batch.add_rz(n - 1, 1.0);
        const std::vector<std::uint64_t> masks = {
            5, 6, std::uint64_t(1) << (n - 1)};
        const std::vector<double> coeffs = {-1.0, 0.5, -0.5};
        const auto view = batch.baked_view(n);
        ASSERT_FALSE(view.uniform) << n << " qubits";
        EXPECT_EQ(view.keys, nullptr);
        ASSERT_NE(view.dense, nullptr);
        for (std::size_t i = 0; i < (std::size_t(1) << n); ++i)
            ASSERT_EQ(view.dense[i], walsh_sum(i, masks, coeffs))
                << n << " qubits, index " << i;
    }
}

TEST(CdfSamplerTest, MatchesLinearScanExactly)
{
    Statevector sv(10);
    apply_mixed_circuit(sv, 41);
    CdfSampler sampler(sv);
    // Same seed, two independent streams: the CDF accumulates
    // probabilities in the linear scan's order, so every draw must
    // select the identical basis state.
    Xoshiro256 rng_linear(123), rng_cdf(123);
    for (int s = 0; s < 2000; ++s)
        ASSERT_EQ(sv.sample(rng_linear), sampler.sample(rng_cdf))
            << "shot " << s;
}

TEST(CdfSamplerTest, HandlesSpikedDistribution)
{
    Statevector sv(6); // stays |000000>
    CdfSampler sampler(sv);
    Xoshiro256 rng(9);
    for (int s = 0; s < 100; ++s)
        EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(FusedNoisySimTest, FusedMatchesUnfusedExpectation)
{
    auto device = arch::make_mumbai();
    auto problem = problem::random_graph(8, 0.35, 5);
    auto compiled = core::compile(device, problem).circuit;
    auto noise = arch::NoiseModel::calibrated(device, 3, 0.02);
    QaoaAngles angles{{0.5, 0.3}, {0.4, 0.2}};
    NoisySimOptions fused, unfused;
    fused.trajectories = unfused.trajectories = 6;
    fused.shots = unfused.shots = 3000;
    fused.fuse_diagonals = true;
    unfused.fuse_diagonals = false;
    // Same seed and substreams: the only difference is phase-sweep
    // association, so the sampled expectations agree to rounding.
    double e_fused =
        noisy_expectation(problem, compiled, noise, angles, fused);
    double e_unfused =
        noisy_expectation(problem, compiled, noise, angles, unfused);
    EXPECT_NEAR(e_fused, e_unfused, 1e-6);
}

TEST(FusedTrotterTest, IsingFusedStepMatchesPerGateUnitaries)
{
    auto device = arch::make_mumbai();
    auto problem = problem::random_graph(6, 0.5, 3);
    auto compiled = core::compile(device, problem).circuit;
    SpinHamiltonian h{problem, SpinModel::Ising, 0.8};

    Statevector fused(6), reference(6);
    apply_mixed_circuit(fused, 2);
    apply_mixed_circuit(reference, 2);
    trotter_step(h, compiled, fused, 0.3);
    // Per-gate reference: exp(-i J dt ZZ) == RZZ(2 J dt).
    for (const auto& op : compiled.ops())
        if (op.kind == circuit::OpKind::Compute)
            reference.apply_rzz(op.a, op.b, 2.0 * 0.8 * 0.3);
    for (std::size_t i = 0; i < fused.amplitudes().size(); ++i) {
        EXPECT_NEAR(fused.amplitudes()[i].real(),
                    reference.amplitudes()[i].real(), 1e-10);
        EXPECT_NEAR(fused.amplitudes()[i].imag(),
                    reference.amplitudes()[i].imag(), 1e-10);
    }
}

TEST(RngJumpTest, JumpedStreamsDiffer)
{
    Xoshiro256 a(7), b(7);
    b.jump();
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a() == b() ? 1 : 0;
    EXPECT_LT(equal, 4);
}

TEST(QubitCapTest, RejectsOutOfRangeCounts)
{
    EXPECT_THROW(Statevector(0), FatalError);
    EXPECT_THROW(Statevector(kMaxSimQubits + 1), FatalError);
    try {
        Statevector sv(kMaxSimQubits + 1);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("26"), std::string::npos);
    }
}

} // namespace
} // namespace permuq::sim
