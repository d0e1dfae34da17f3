/**
 * @file
 * The statevector kernel dispatch table.
 *
 * Every hot inner loop of the simulator — gate butterflies, diagonal
 * phase sweeps, probability/expectation reductions, the integrator's
 * blend/scale loops — is a free function over a raw interleaved
 * [re, im] double array, collected into a Table of function pointers.
 * Three tiers provide the table: a portable scalar tier
 * (kernels_scalar.cpp), a hand-vectorized AVX2 tier
 * (kernels_avx2.cpp), and an AVX-512 tier (kernels_avx512.cpp) that
 * overrides the hottest entries — the register-blocked RX tile and
 * group kernels, the diagonal phase sweep, and the expectation
 * reductions — and inherits everything else from AVX2.
 * Statevector/DiagonalBatch pick the tier once per gate call through
 * active() and hand each parallel_for chunk to the kernel, so thread
 * partitioning (common/parallel.h) and SIMD width compose without
 * knowing about each other.
 *
 * Determinism contract (held by tests/test_kernels.cpp as exact
 * bit-equality):
 *
 *  - All tiers perform the *same* IEEE-754 operations per element in
 *    the same order. The shared per-element formulas live in
 *    kernels_inline.h; the vector tiers arrange their lanes so each
 *    element sees an identical mul/add/sub sequence (no FMA — all
 *    kernel TUs build with -ffp-contract=off), and fall back to the
 *    shared scalar loop whenever a gate's stride breaks lane
 *    contiguity (qubit index too low for 4 consecutive amplitudes),
 *    except in the RX kernels, which vectorize down to one-register
 *    columns and pair the lowest qubits with in-register permutes. AVX-512 lacks addsub, so its
 *    complex multiply negates alternate lanes before a plain add; the
 *    RX butterflies of both vector tiers multiply by pre-signed
 *    (s, -s) lanes and add. IEEE negation and round-to-nearest are
 *    sign-symmetric, so x - (-y) == x + y and x * (-s) == -(x * s)
 *    bit-for-bit.
 *
 *  - Reductions (norm_sum / weighted_norm_sum) accumulate into four
 *    fixed lanes — element j (relative to the range begin) lands in
 *    lane j mod kReductionLanes — combined as (l0+l1) + (l2+l3). The
 *    scalar tier keeps four explicit accumulators in the same
 *    pattern, and the AVX-512 tier chains its two 256-bit half-rows
 *    through the accumulator in ascending element order instead of
 *    keeping eight independent lanes, so the sum is a pure function
 *    of the element range: invariant to SIMD width and, composed with
 *    the fixed-slice reduction of common/parallel.h, to thread count.
 *
 *  - phase_angles (the mixed-magnitude diagonal fallback) is trig-
 *    bound, not bandwidth-bound; both tiers share one scalar
 *    implementation so libm's sin/cos stay the single source of its
 *    rounding.
 *
 * Index-space conventions ("block" ranges follow sim/kernel_util.h):
 * single-qubit kernels take an [hb, he) range over the compact
 * 2^(n-1) block space with the qubit's low_mask/bit; two-qubit
 * kernels take the 2^(n-2) block space with lo_mask/hi_mask; diagonal
 * sweeps and reductions take plain amplitude-index ranges.
 */
#ifndef PERMUQ_SIM_KERNELS_H
#define PERMUQ_SIM_KERNELS_H

#include <cstddef>
#include <cstdint>

namespace permuq::sim::kernels {

/** Fixed accumulator-lane count of the deterministic reductions. */
inline constexpr std::size_t kReductionLanes = 4;

/** Most qubits one rx_group call folds into a single traversal. */
inline constexpr std::int32_t kMaxGroupQubits = 3;

/** One tier's kernel set. All `a`/`y`/`x` pointers are interleaved
 *  [re, im] amplitude storage unless a parameter says otherwise. */
struct Table
{
    /** Tier label ("scalar" / "avx2" / "avx512") for telemetry and
     *  tests. */
    const char* name;

    /** Hadamard butterfly: block range [hb, he) over the 2^(n-1)
     *  space. */
    void (*h)(double* a, std::size_t hb, std::size_t he,
              std::size_t low_mask, std::size_t bit, double inv_sqrt2);

    /**
     * RX(theta) on every qubit below @p tile_qubits, tile by tile:
     * tiles [tb, te) of 2^tile_qubits amplitudes each (tile t starts
     * at amplitude t << tile_qubits). Bit-identical to rx_group with
     * one level on qubits 0..tile_qubits-1 in ascending order over
     * those tiles; a tile is closed under these butterflies. Pass 1
     * of the blocked mixer.
     */
    void (*rx_tile)(double* a, std::size_t tb, std::size_t te,
                    std::int32_t tile_qubits, double c, double s);

    /**
     * RX(theta), c = cos(theta/2), s = sin(theta/2), on the @p levels
     * (1..kMaxGroupQubits) consecutive qubits starting at bit = 2^q,
     * in one traversal: block range [hb, he) over the 2^(n-levels)
     * space, block h expanding to the 2^levels amplitudes i0 + m*bit
     * with levels zero bits inserted at q. Each element takes the
     * detail::rx_pair butterfly of q, q+1, ... in ascending order,
     * exactly as one single-qubit pass per qubit would apply it. One
     * level is Statevector::apply_rx; more serve pass 2 of the
     * blocked mixer and the in-tile levels of pass 1.
     */
    void (*rx_group)(double* a, std::size_t hb, std::size_t he,
                     std::size_t bit, std::int32_t levels, double c,
                     double s);

    /** RZ sweep over amplitude range [ib, ie): multiply by (e0r,e0i)
     *  where the qubit bit is clear, (e1r,e1i) where set. */
    void (*rz)(double* a, std::size_t ib, std::size_t ie,
               std::size_t bit, double e0r, double e0i, double e1r,
               double e1i);

    /** RZZ sweep over [ib, ie): (sr,si) on aligned spins, (dr,di) on
     *  anti-aligned. */
    void (*rzz)(double* a, std::size_t ib, std::size_t ie,
                std::size_t abit, std::size_t bbit, double sr, double si,
                double dr, double di);

    /** CPHASE over the 2^(n-2) block space: multiply the amplitude at
     *  i00 | target_bits by (pr, pi). */
    void (*cphase)(double* a, std::size_t hb, std::size_t he,
                   std::size_t lo_mask, std::size_t hi_mask,
                   std::size_t target_bits, double pr, double pi);

    /** CX over the 2^(n-2) block space: swap the amplitudes at
     *  i00|cbit and i00|cbit|tbit. */
    void (*cx)(double* a, std::size_t hb, std::size_t he,
               std::size_t lo_mask, std::size_t hi_mask, std::size_t cbit,
               std::size_t tbit);

    /** SWAP over the 2^(n-2) block space: swap i00|abit and i00|bbit. */
    void (*swap)(double* a, std::size_t hb, std::size_t he,
                 std::size_t lo_mask, std::size_t hi_mask,
                 std::size_t abit, std::size_t bbit);

    /**
     * Fused-diagonal phase sweep over [ib, ie): amplitude i is
     * multiplied by (lut_re[k], lut_im[k]) with k = key[i] + span.
     * The LUT is split into real/imag planes so the AVX2 tier can
     * gather each with one instruction.
     */
    void (*phase_lut)(double* a, std::size_t ib, std::size_t ie,
                      const std::int32_t* key, std::int32_t span,
                      const double* lut_re, const double* lut_im);

    /** Dense phase sweep over [ib, ie): amplitude i is multiplied by
     *  e^{i * scale * (constant + angle[i])}. Shared scalar
     *  implementation in both tiers (see file comment). */
    void (*phase_angles)(double* a, std::size_t ib, std::size_t ie,
                         const double* angle, double scale,
                         double constant);

    /** out[i] = |a_i|^2 over [ib, ie). */
    void (*probs)(const double* a, double* out, std::size_t ib,
                  std::size_t ie);

    /** Sum of |a_i|^2 over [ib, ie), fixed 4-lane accumulation. */
    double (*norm_sum)(const double* a, std::size_t ib, std::size_t ie);

    /** Sum of |a_i|^2 * (table[i] + offset) over [ib, ie), fixed
     *  4-lane accumulation — the QAOA objective reduction. */
    double (*weighted_norm_sum)(const double* a, const double* table,
                                double offset, std::size_t ib,
                                std::size_t ie);

    /** y[i] += s * x[i] over a plain double range [b, e). */
    void (*axpy)(double* y, const double* x, double s, std::size_t b,
                 std::size_t e);

    /** y[i] *= s over a plain double range [b, e). */
    void (*scale)(double* y, double s, std::size_t b, std::size_t e);

    /** Multiply every amplitude in [ib, ie) by -i: (re,im)->(im,-re). */
    void (*mul_neg_i)(double* a, std::size_t ib, std::size_t ie);

    /** RK4 combine over a plain double range [b, e):
     *  y[i] += w * (((k1[i] + 2*k2[i]) + 2*k3[i]) + k4[i]). */
    void (*rk4_combine)(double* y, const double* k1, const double* k2,
                        const double* k3, const double* k4, double w,
                        std::size_t b, std::size_t e);
};

/** The portable tier (always available). */
const Table& scalar_table();

/** The AVX2 tier; aliases scalar_table() when the build lacks AVX2
 *  support (non-x86 target or compiler without -mavx2). */
const Table& avx2_table();

/** True when avx2_table() is a real AVX2 implementation. */
bool avx2_compiled_in();

/** The AVX-512 tier; overrides the hottest kernels and inherits the
 *  rest from avx2_table(). Aliases avx2_table() when the build lacks
 *  AVX-512 support. */
const Table& avx512_table();

/** True when avx512_table() is a real AVX-512 implementation. */
bool avx512_compiled_in();

/** The table selected by sim::active_simd_tier(). */
const Table& active();

/** active(), also counting the dispatch under the telemetry counter
 *  permuq.sim.kernels.<tier> — call once per gate/sweep, not per
 *  thread chunk. */
const Table& active_counted();

} // namespace permuq::sim::kernels

#endif // PERMUQ_SIM_KERNELS_H
