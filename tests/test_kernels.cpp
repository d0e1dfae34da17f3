/**
 * @file
 * Tests of the SIMD kernel layer and the amortized QAOA objective:
 * every statevector kernel cross-checked against an independent dense
 * reference simulator (scalar tier, AVX2 tier, and threaded) to 1e-12;
 * bitwise identity of amplitudes across SIMD tiers and thread counts;
 * the register-blocked mixer vs sequential per-qubit RX on every tier
 * and at chunk-splitting thread counts; Pauli-Y as an exact
 * swap-with-sign; a whole ideal QAOA evaluation against the dense
 * reference; QaoaObjective vs the one-shot free functions over random
 * angle sets; and the exact memory estimates.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "problem/weighted.h"
#include "sim/diagonal.h"
#include "sim/qaoa.h"
#include "sim/qaoa_objective.h"
#include "sim/simd.h"
#include "sim/statevector.h"

namespace permuq::sim {
namespace {

using Amplitude = std::complex<double>;

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

/**
 * Independent dense reference simulator: every gate is a literal
 * matrix applied by skip-scanning the full 2^n range with textbook
 * complex arithmetic. Shares no code (and no operation ordering) with
 * the production kernels.
 */
class DenseRef
{
  public:
    explicit DenseRef(std::int32_t n)
        : n_(n), amp_(std::size_t(1) << n, Amplitude(0.0, 0.0))
    {
        amp_[0] = Amplitude(1.0, 0.0);
    }

    void
    one_qubit(std::int32_t q, Amplitude u00, Amplitude u01,
              Amplitude u10, Amplitude u11)
    {
        const std::size_t bit = std::size_t(1) << q;
        for (std::size_t i = 0; i < amp_.size(); ++i) {
            if (i & bit)
                continue;
            Amplitude a0 = amp_[i];
            Amplitude a1 = amp_[i | bit];
            amp_[i] = u00 * a0 + u01 * a1;
            amp_[i | bit] = u10 * a0 + u11 * a1;
        }
    }

    void
    h(std::int32_t q)
    {
        const double s = 1.0 / std::sqrt(2.0);
        one_qubit(q, {s, 0}, {s, 0}, {s, 0}, {-s, 0});
    }

    void
    rx(std::int32_t q, double theta)
    {
        const double c = std::cos(theta / 2.0);
        const double s = std::sin(theta / 2.0);
        one_qubit(q, {c, 0}, {0, -s}, {0, -s}, {c, 0});
    }

    void
    rx_all(double theta)
    {
        for (std::int32_t q = 0; q < n_; ++q)
            rx(q, theta);
    }

    void
    rz(std::int32_t q, double theta)
    {
        one_qubit(q, std::polar(1.0, -theta / 2.0), {0, 0}, {0, 0},
                  std::polar(1.0, theta / 2.0));
    }

    void
    x(std::int32_t q)
    {
        one_qubit(q, {0, 0}, {1, 0}, {1, 0}, {0, 0});
    }

    void
    y(std::int32_t q)
    {
        one_qubit(q, {0, 0}, {0, -1}, {0, 1}, {0, 0});
    }

    void
    z(std::int32_t q)
    {
        one_qubit(q, {1, 0}, {0, 0}, {0, 0}, {-1, 0});
    }

    void
    cx(std::int32_t control, std::int32_t target)
    {
        const std::size_t cbit = std::size_t(1) << control;
        const std::size_t tbit = std::size_t(1) << target;
        for (std::size_t i = 0; i < amp_.size(); ++i)
            if ((i & cbit) && !(i & tbit))
                std::swap(amp_[i], amp_[i | tbit]);
    }

    void
    swap_q(std::int32_t a, std::int32_t b)
    {
        const std::size_t abit = std::size_t(1) << a;
        const std::size_t bbit = std::size_t(1) << b;
        for (std::size_t i = 0; i < amp_.size(); ++i)
            if ((i & abit) && !(i & bbit))
                std::swap(amp_[i ^ abit ^ bbit], amp_[i]);
    }

    void
    rzz(std::int32_t a, std::int32_t b, double theta)
    {
        const std::size_t abit = std::size_t(1) << a;
        const std::size_t bbit = std::size_t(1) << b;
        for (std::size_t i = 0; i < amp_.size(); ++i) {
            bool same = ((i & abit) != 0) == ((i & bbit) != 0);
            amp_[i] *= std::polar(1.0, same ? -theta / 2 : theta / 2);
        }
    }

    void
    cphase(std::int32_t a, std::int32_t b, double theta)
    {
        const std::size_t abit = std::size_t(1) << a;
        const std::size_t bbit = std::size_t(1) << b;
        for (std::size_t i = 0; i < amp_.size(); ++i)
            if ((i & abit) && (i & bbit))
                amp_[i] *= std::polar(1.0, theta);
    }

    void
    phase_table(const std::vector<double>& angles, double scale)
    {
        for (std::size_t i = 0; i < amp_.size(); ++i)
            amp_[i] *= std::polar(1.0, scale * angles[i]);
    }

    const std::vector<Amplitude>& amplitudes() const { return amp_; }

  private:
    std::int32_t n_;
    std::vector<Amplitude> amp_;
};

void
expect_close(const std::vector<Amplitude>& got,
             const std::vector<Amplitude>& want, const char* what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].real(), want[i].real(), 1e-12)
            << what << " amplitude " << i;
        EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-12)
            << what << " amplitude " << i;
    }
}

void
expect_bitwise(const std::vector<Amplitude>& got,
               const std::vector<Amplitude>& want, const char* what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(Amplitude)), 0)
            << what << " amplitude " << i << " got ("
            << got[i].real() << ", " << got[i].imag() << ") want ("
            << want[i].real() << ", " << want[i].imag() << ")";
}

/** A random state: every component uniform in [-1, 1), not
 *  normalized (the kernels are linear). */
void
fill_random(Statevector& sv, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    for (Amplitude& amp : sv.amplitudes_mut())
        amp = Amplitude(2.0 * rng.next_double() - 1.0,
                        2.0 * rng.next_double() - 1.0);
}

/** Drive both simulators through a circuit covering every kernel:
 *  all qubit positions (vector body, prologue, tail, and the
 *  below-vector-width fallbacks), all two-qubit bit layouts, and the
 *  blocked mixer's tile and group kernels. */
template <typename Sim, typename Ref>
void
run_kernel_gauntlet(Sim& sv, Ref& ref)
{
    const std::int32_t n = sv.num_qubits();
    std::int32_t angle = 1;
    auto next_angle = [&] { return 0.1 * angle++; };
    for (std::int32_t q = 0; q < n; ++q) {
        sv.apply_h(q);
        ref.h(q);
    }
    for (std::int32_t q = 0; q < n; ++q) {
        double t1 = next_angle(), t2 = next_angle();
        sv.apply_rx(q, t1);
        ref.rx(q, t1);
        sv.apply_rz(q, t2);
        ref.rz(q, t2);
        sv.apply_x(q);
        ref.x(q);
        sv.apply_y(q);
        ref.y(q);
        sv.apply_z(q);
        ref.z(q);
    }
    const double beta = next_angle();
    sv.apply_rx_all(beta);
    ref.rx_all(beta);
    for (std::int32_t a = 0; a < n; ++a)
        for (std::int32_t b = a + 1; b < n; ++b) {
            double t1 = next_angle(), t2 = next_angle();
            sv.apply_cx(a, b);
            ref.cx(a, b);
            sv.apply_cx(b, a);
            ref.cx(b, a);
            sv.apply_swap(a, b);
            ref.swap_q(a, b);
            sv.apply_rzz(a, b, t1);
            ref.rzz(a, b, t1);
            sv.apply_cphase(a, b, t2);
            ref.cphase(a, b, t2);
        }
    // Uniform DiagonalBatch (phase-LUT path) and a dense phase table.
    DiagonalBatch batch;
    for (std::int32_t q = 0; q + 1 < n; ++q)
        batch.add_rzz(q, q + 1, 1.0);
    batch.apply(sv, 0.7);
    for (std::int32_t q = 0; q + 1 < n; ++q)
        ref.rzz(q, q + 1, 0.7);
    std::vector<double> angles(sv.amplitudes().size());
    for (std::size_t i = 0; i < angles.size(); ++i)
        angles[i] = 0.01 * static_cast<double>(i % 37) - 0.1;
    sv.apply_phase_table(angles, 1.3);
    ref.phase_table(angles, 1.3);
}

TEST(Kernels, EveryKernelMatchesDenseReferencePerTier)
{
    DispatchGuard guard;
    // n = 13 puts one qubit above the mixer tile, in pass 2.
    for (std::int32_t n : {1, 2, 3, 4, 5, 6, 13}) {
        for (SimdTier tier :
             {SimdTier::Scalar, SimdTier::Avx2, detected_simd_tier()}) {
            set_simd_tier(tier);
            Statevector sv(n);
            DenseRef ref(n);
            run_kernel_gauntlet(sv, ref);
            expect_close(sv.amplitudes(), ref.amplitudes(),
                         simd_tier_name(tier));
            // Probabilities and norm reductions against the reference.
            auto probs = sv.probabilities();
            double norm = 0.0;
            for (std::size_t i = 0; i < probs.size(); ++i) {
                EXPECT_NEAR(probs[i], std::norm(ref.amplitudes()[i]),
                            1e-12);
                norm += probs[i];
            }
            EXPECT_NEAR(sv.norm_sq(), norm, 1e-12);
            EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-10);
        }
    }
}

TEST(Kernels, TiersAreBitIdentical)
{
    if (detected_simd_tier() == SimdTier::Scalar)
        GTEST_SKIP() << "no vector tier available on this host";
    DispatchGuard guard;
    // 14 and 15 send two and three qubits through the mixer's pass 2.
    for (std::int32_t n : {3, 6, 9, 14, 15}) {
        set_simd_tier(SimdTier::Scalar);
        Statevector scalar(n);
        DenseRef ref_scalar(n);
        run_kernel_gauntlet(scalar, ref_scalar);
        double scalar_norm = scalar.norm_sq();

        set_simd_tier(detected_simd_tier());
        Statevector vec(n);
        DenseRef ref_vec(n);
        run_kernel_gauntlet(vec, ref_vec);

        expect_bitwise(vec.amplitudes(), scalar.amplitudes(),
                       "scalar vs vector tier");
        double vec_norm = vec.norm_sq();
        EXPECT_TRUE(std::memcmp(&scalar_norm, &vec_norm,
                                sizeof(double)) == 0);
    }
}

TEST(Kernels, ThreadCountsAreBitIdentical)
{
    DispatchGuard guard;
    const std::int32_t n = 9;
    common::set_num_threads(1);
    Statevector serial(n);
    DenseRef ref1(n);
    run_kernel_gauntlet(serial, ref1);
    double serial_norm = serial.norm_sq();
    for (std::int32_t threads : {2, 4, 7}) {
        common::set_num_threads(threads);
        Statevector par(n);
        DenseRef ref2(n);
        run_kernel_gauntlet(par, ref2);
        expect_bitwise(par.amplitudes(), serial.amplitudes(),
                       "1 thread vs N threads");
        double par_norm = par.norm_sq();
        EXPECT_TRUE(std::memcmp(&serial_norm, &par_norm,
                                sizeof(double)) == 0);
    }
}

TEST(Kernels, BlockedMixerMatchesSequentialRxBitwise)
{
    DispatchGuard guard;
    // n = 1..8 spans sizes below and around the register blocks (16
    // amplitudes on AVX2, 64 on AVX-512); 11..17 spans the tile width
    // (12) and 1..5 high qubits, i.e. pass-2 groups of 3 plus a
    // remainder of 0, 1 and 2. parallel_for makes min(4 * threads,
    // range / grain) chunks, so at n = 19 three threads cut pass-2
    // ranges into 12 chunks whose edges miss the vector groups, and
    // the head and tail loops run.
    struct Case
    {
        std::int32_t n;
        int threads;
    };
    std::vector<Case> cases;
    for (std::int32_t n :
         {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17})
        for (int threads : {1, 4})
            cases.push_back({n, threads});
    cases.push_back({19, 3});
    const double beta = 0.37;
    for (const Case& c : cases) {
        set_simd_tier(SimdTier::Scalar);
        common::set_num_threads(1);
        Statevector sequential(c.n);
        fill_random(sequential, 42 + static_cast<std::uint64_t>(c.n));
        for (std::int32_t q = 0; q < c.n; ++q)
            sequential.apply_rx(q, beta);
        for (SimdTier tier :
             {SimdTier::Scalar, SimdTier::Avx2, detected_simd_tier()}) {
            set_simd_tier(tier);
            common::set_num_threads(c.threads);
            Statevector blocked(c.n);
            fill_random(blocked, 42 + static_cast<std::uint64_t>(c.n));
            blocked.apply_rx_all(beta);
            SCOPED_TRACE(::testing::Message()
                         << "n=" << c.n << " tier "
                         << simd_tier_name(active_simd_tier())
                         << " threads " << c.threads);
            expect_bitwise(blocked.amplitudes(), sequential.amplitudes(),
                           "blocked mixer");
        }
    }
}

TEST(Kernels, PauliYIsExactSwapWithSign)
{
    // Y|a0, a1> = (-i a1, i a0): (r1, m1) -> (m1, -r1) into the
    // bit-clear slot and (r0, m0) -> (-m0, r0) into the bit-set slot,
    // exactly; applied twice it restores the state bit for bit.
    for (std::int32_t n : {1, 3, 7}) {
        for (std::int32_t q = 0; q < n; ++q) {
            Statevector sv(n);
            fill_random(sv, 7 + static_cast<std::uint64_t>(q));
            const std::vector<Amplitude> before = sv.amplitudes();
            std::vector<Amplitude> want = before;
            const std::size_t bit = std::size_t(1) << q;
            for (std::size_t i = 0; i < want.size(); ++i) {
                if (i & bit)
                    continue;
                const Amplitude a0 = before[i], a1 = before[i | bit];
                want[i] = Amplitude(a1.imag(), -a1.real());
                want[i | bit] = Amplitude(-a0.imag(), a0.real());
            }
            sv.apply_y(q);
            expect_bitwise(sv.amplitudes(), want, "Y");
            sv.apply_y(q);
            expect_bitwise(sv.amplitudes(), before, "Y twice");
        }
    }
}

TEST(Kernels, ResetToPlusMatchesHColumn)
{
    Statevector plus(5), h(5);
    plus.apply_x(0); // make the state non-trivial before reset
    plus.reset_to_plus();
    for (std::int32_t q = 0; q < 5; ++q)
        h.apply_h(q);
    expect_close(plus.amplitudes(), h.amplitudes(), "reset_to_plus");
}

TEST(Kernels, SimdTierControls)
{
    DispatchGuard guard;
    set_simd_tier(SimdTier::Scalar);
    EXPECT_EQ(active_simd_tier(), SimdTier::Scalar);
    EXPECT_STREQ(simd_tier_name(SimdTier::Scalar), "scalar");
    EXPECT_STREQ(simd_tier_name(SimdTier::Avx2), "avx2");
    EXPECT_STREQ(simd_tier_name(SimdTier::Avx512), "avx512");
    // Requests degrade one tier at a time to what the build + CPU
    // support, and never upgrade: asking for AVX2 on an AVX-512
    // machine stays on AVX2.
    set_simd_tier(SimdTier::Avx2);
    if (detected_simd_tier() == SimdTier::Scalar)
        EXPECT_EQ(active_simd_tier(), SimdTier::Scalar);
    else
        EXPECT_EQ(active_simd_tier(), SimdTier::Avx2);
    // The top request clamps to the detected capability.
    set_simd_tier(SimdTier::Avx512);
    EXPECT_EQ(active_simd_tier(), detected_simd_tier());
    EXPECT_TRUE(detected_simd_tier() == SimdTier::Scalar ||
                simd_compiled_in());
}

TEST(QaoaObjectiveTest, MatchesFreshEvaluationOver50AngleSets)
{
    auto problem = problem::random_graph(8, 0.4, 3);
    QaoaObjective context(problem);
    Xoshiro256 rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        std::size_t p = 1 + trial % 3;
        QaoaAngles angles;
        for (std::size_t l = 0; l < p; ++l) {
            angles.gamma.push_back(4.0 * rng.next_double() - 2.0);
            angles.beta.push_back(4.0 * rng.next_double() - 2.0);
        }
        double fresh = ideal_expectation(problem, angles);
        double reused = context.ideal_expectation(angles);
        EXPECT_EQ(fresh, reused) << "trial " << trial;
        EXPECT_TRUE(std::memcmp(&fresh, &reused, sizeof(double)) == 0);
    }
}

TEST(QaoaObjectiveTest, IdealExpectationBitIdenticalAcrossTiers)
{
    DispatchGuard guard;
    auto problem = problem::random_graph(10, 0.3, 5);
    QaoaAngles angles{{0.4, 0.9}, {0.35, 0.15}};
    set_simd_tier(SimdTier::Scalar);
    common::set_num_threads(1);
    double scalar1 = QaoaObjective(problem).ideal_expectation(angles);
    common::set_num_threads(4);
    double scalar4 = QaoaObjective(problem).ideal_expectation(angles);
    set_simd_tier(detected_simd_tier());
    double vec4 = QaoaObjective(problem).ideal_expectation(angles);
    EXPECT_TRUE(std::memcmp(&scalar1, &scalar4, sizeof(double)) == 0);
    EXPECT_TRUE(std::memcmp(&scalar1, &vec4, sizeof(double)) == 0);
}

TEST(QaoaObjectiveTest, IdealExpectationMatchesDenseReference)
{
    // The whole p=2 evaluation (fused cost phase, blocked mixer, cut
    // reduction) against the textbook circuit on the dense reference:
    // H on every qubit, then per layer RZZ(-gamma) on every edge and
    // RX(2 beta) on every qubit, and <C> = sum |a_z|^2 cut(z).
    const std::int32_t n = 12;
    auto problem = problem::random_graph(n, 0.3, 5);
    const QaoaAngles angle_sets[] = {
        {{0.4, 0.7}, {0.35, 0.2}},
        {{1.1, -0.3}, {0.9, 0.45}},
    };
    for (const auto& angles : angle_sets) {
        DenseRef ref(n);
        for (std::int32_t q = 0; q < n; ++q)
            ref.h(q);
        for (std::size_t layer = 0; layer < angles.gamma.size(); ++layer) {
            for (const auto& e : problem.edges())
                ref.rzz(e.a, e.b, -angles.gamma[layer]);
            for (std::int32_t q = 0; q < n; ++q)
                ref.rx(q, 2.0 * angles.beta[layer]);
        }
        double want = 0.0;
        const auto& amp = ref.amplitudes();
        for (std::size_t z = 0; z < amp.size(); ++z)
            want += std::norm(amp[z]) *
                    static_cast<double>(cut_value(problem, z));
        EXPECT_NEAR(ideal_expectation(problem, angles), want, 1e-9)
            << "gamma " << angles.gamma[0] << ", " << angles.gamma[1];
    }
}

TEST(QaoaObjectiveTest, CutLookupMatchesEdgeScan)
{
    auto problem = problem::random_graph(7, 0.5, 11);
    QaoaObjective context(problem);
    for (std::uint64_t z = 0; z < (std::uint64_t(1) << 7); ++z)
        EXPECT_EQ(context.cut(z),
                  static_cast<double>(cut_value(problem, z)))
            << "state " << z;
}

TEST(QaoaObjectiveTest, NoisyPathsMatchFreeFunctions)
{
    auto device = arch::make_mumbai();
    auto noise = arch::NoiseModel::calibrated(device, 11);
    auto problem = problem::random_graph(8, 0.4, 3);
    auto compiled = core::compile(device, problem);
    QaoaAngles angles{{0.4}, {0.35}};
    NoisySimOptions options;
    options.trajectories = 6;
    options.shots = 500;
    options.seed = 123;
    QaoaObjective context(problem);
    // Same RNG substreams, same kernels: the amortized path must be
    // exactly the one-shot free functions, not merely close.
    EXPECT_EQ(noisy_expectation(problem, compiled.circuit, noise,
                                angles, options),
              context.noisy_expectation(compiled.circuit, noise, angles,
                                        options));
    EXPECT_EQ(noisy_counts(problem, compiled.circuit, noise, angles,
                           options),
              context.noisy_counts(compiled.circuit, noise, angles,
                                   options));
    EXPECT_EQ(noisy_distribution(problem, compiled.circuit, noise,
                                 angles, options),
              context.noisy_distribution(compiled.circuit, noise,
                                         angles, options));
    // The fused fast path must agree with the op-by-op replay.
    NoisySimOptions unfused = options;
    unfused.fuse_diagonals = false;
    EXPECT_NEAR(context.noisy_expectation(compiled.circuit, noise,
                                          angles, options),
                context.noisy_expectation(compiled.circuit, noise,
                                          angles, unfused),
                1e-9);
}

TEST(QaoaObjectiveTest, WeightedMatchesFreeFunctions)
{
    auto wp = problem::weighted_random_graph(8, 0.4, 3);
    QaoaObjective context(wp);
    EXPECT_TRUE(context.weighted());
    Xoshiro256 rng(9);
    for (int trial = 0; trial < 10; ++trial) {
        QaoaAngles angles{{2.0 * rng.next_double() - 1.0},
                          {2.0 * rng.next_double() - 1.0}};
        EXPECT_EQ(ideal_expectation(wp, angles),
                  context.ideal_expectation(angles));
    }
    for (std::uint64_t z = 0; z < 32; ++z)
        EXPECT_NEAR(context.cut(z), cut_weight(wp, z), 1e-12);
}

TEST(MemoryEstimate, ExactBytes)
{
    // 2^n * sizeof(complex<double>), no integer-MB truncation.
    EXPECT_EQ(Statevector::memory_bytes(1), 32u);
    EXPECT_EQ(Statevector::memory_bytes(10), (std::size_t(1) << 10) * 16);
    EXPECT_EQ(Statevector::memory_bytes(26), (std::size_t(1) << 26) * 16);
    auto problem = problem::random_graph(10, 0.3, 5);
    QaoaObjective context(problem);
    // The context owns the scratch state plus the baked cut spectrum.
    EXPECT_EQ(context.memory_bytes(),
              Statevector::memory_bytes(10) +
                  (std::size_t(1) << 10) * sizeof(double));
}

} // namespace
} // namespace permuq::sim
