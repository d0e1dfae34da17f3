/**
 * @file
 * AVX-512 tier of the statevector kernels (see sim/kernels.h for the
 * dispatch design and the determinism contract).
 *
 * Only the hottest kernels are reimplemented at 512-bit width — the
 * RX tile and group kernels, the fused-diagonal phase sweep, and the
 * norm/objective reductions;
 * everything else is inherited from avx2_table(). Two constraints
 * keep the tier bit-identical to the scalar and AVX2 tiers:
 *
 *  - AVX-512 has no addsub instruction, so the complex multiply
 *    negates alternate lanes (an exact IEEE operation) and uses a
 *    plain add: x - y == x + (-y) bit-for-bit. RX butterflies instead
 *    multiply by pre-signed (s, -s) lanes: round-to-nearest is
 *    sign-symmetric, so x * (-s) == -(x * s) and the add equals
 *    rx_pair's subtraction exactly.
 *
 *  - Reductions must keep the fixed 4-lane accumulation order, so the
 *    512-bit bodies compute eight elements' terms at once but chain
 *    the two 256-bit halves through one 4-lane accumulator in
 *    ascending element order — never eight independent lanes, which
 *    would change the addition tree.
 *
 * This TU builds with -mavx512f -mavx512dq -ffp-contract=off; when
 * the toolchain can't target AVX-512 the #else branch aliases the
 * AVX2 tier (which itself falls back to scalar when absent).
 */
#include "sim/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>

#include "sim/kernel_util.h"
#include "sim/kernels_inline.h"

namespace permuq::sim::kernels {

namespace {

/** -0.0 in the even (real) lanes: xor then add emulates addsub. */
inline __m512d
neg_even()
{
    return _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
}

/** Swap re/im within each complex value. */
inline __m512d
swap_halves8(__m512d v)
{
    return _mm512_permute_pd(v, 0x55);
}

/** Four complex multiplies by broadcast-per-complex phases: the lane
 *  sequence of detail::cmul, with addsub emulated as described in the
 *  file comment. */
inline __m512d
cmul_broadcast8(__m512d v, __m512d pr, __m512d pi)
{
    const __m512d t = _mm512_mul_pd(v, pr);
    const __m512d u = _mm512_mul_pd(swap_halves8(v), pi);
    return _mm512_add_pd(t, _mm512_xor_pd(u, neg_even()));
}

/** Four complex multiplies by the phases packed in @p p. */
inline __m512d
cmul_packed8(__m512d v, __m512d p)
{
    const __m512d pr = _mm512_movedup_pd(p);
    const __m512d pi = _mm512_permute_pd(p, 0xFF);
    return cmul_broadcast8(v, pr, pi);
}

/** (s, -s) per complex value: the pre-signed sine of rx_mix8. */
inline __m512d
signed_sin8(double s)
{
    return _mm512_set_pd(-s, s, -s, s, -s, s, -s, s);
}

/** Half an RX butterfly with the partner's re/im already swapped, the
 *  lane sequence of detail::rx_pair: re' = c*ar_self + s*ai_other,
 *  im' = c*ai_self + (-s)*ar_other. @p ss is signed_sin8(s). */
inline __m512d
rx_mix8_swapped(__m512d self, __m512d other_swapped, __m512d c,
                __m512d ss)
{
    return _mm512_add_pd(_mm512_mul_pd(self, c),
                         _mm512_mul_pd(other_swapped, ss));
}

/** Half an RX butterfly between two registers of amplitudes. */
inline __m512d
rx_mix8(__m512d self, __m512d other, __m512d c, __m512d ss)
{
    return rx_mix8_swapped(self, swap_halves8(other), c, ss);
}

/** Both halves of the RX butterflies between registers @p x and @p y,
 *  in place. */
inline void
rx_butterfly8(__m512d& x, __m512d& y, __m512d c, __m512d ss)
{
    const __m512d x0 = x;
    x = rx_mix8(x0, y, c, ss);
    y = rx_mix8(y, x0, c, ss);
}

/** |a|^2 of eight consecutive complex values from the two 512-bit
 *  loads @p x (values 0-3) and @p y (values 4-7): per value one
 *  re*re + im*im add, the sequence of detail::norm2. */
inline __m512d
norm8(__m512d x, __m512d y)
{
    const __m512i idx_even =
        _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i idx_odd =
        _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
    const __m512d sqx = _mm512_mul_pd(x, x);
    const __m512d sqy = _mm512_mul_pd(y, y);
    const __m512d re = _mm512_permutex2var_pd(sqx, idx_even, sqy);
    const __m512d im = _mm512_permutex2var_pd(sqx, idx_odd, sqy);
    return _mm512_add_pd(re, im);
}

/** Qubits the tile kernel holds in registers: 64 amplitudes in 16
 *  zmm, qubits 0-1 within each register, qubits 2-5 across. */
constexpr std::int32_t kRegisterQubits = 6;

/** RX on the Levels consecutive qubits at @p bit over the block range
 *  [hb, he) of the 2^(n-Levels) space, which must be a multiple of 4:
 *  each step holds a column of four consecutive amplitudes from each
 *  of the 2^Levels runs in registers and applies every level there.
 *  Needs bit >= 4 so a column is one register. */
template <int Levels>
void
group_columns8(double* a, std::size_t hb, std::size_t he,
               std::size_t bit, __m512d cv, __m512d sv)
{
    constexpr int kFan = 1 << Levels;
    for (std::size_t h = hb; h < he; h += 4) {
        double* p = a + 2 * insert_zeros(h, bit - 1, Levels);
        __m512d v[kFan];
#pragma GCC unroll 8
        for (int m = 0; m < kFan; ++m)
            v[m] = _mm512_loadu_pd(p + 2 * bit * m);
#pragma GCC unroll 3
        for (int l = 0; l < Levels; ++l)
#pragma GCC unroll 8
            for (int m = 0; m < kFan; ++m)
                if ((m & (1 << l)) == 0)
                    rx_butterfly8(v[m], v[m | (1 << l)], cv, sv);
#pragma GCC unroll 8
        for (int m = 0; m < kFan; ++m)
            _mm512_storeu_pd(p + 2 * bit * m, v[m]);
    }
}

void
avx512_rx_group(double* a, std::size_t hb, std::size_t he,
                std::size_t bit, std::int32_t levels, double c, double s)
{
    if (bit < 4) { // qubits 0/1: a column would split a register
        avx2_table().rx_group(a, hb, he, bit, levels, c, s);
        return;
    }
    // Scalar head and tail: parallel_for cuts ranges anywhere, and the
    // per-element helpers keep every element's arithmetic unchanged.
    const std::size_t body_b = std::min(he, (hb + 3) & ~std::size_t(3));
    const std::size_t body_e = std::max(body_b, he & ~std::size_t(3));
    scalar_table().rx_group(a, hb, body_b, bit, levels, c, s);
    const __m512d cv = _mm512_set1_pd(c);
    const __m512d sv = signed_sin8(s);
    switch (levels) {
    case 1:
        group_columns8<1>(a, body_b, body_e, bit, cv, sv);
        break;
    case 2:
        group_columns8<2>(a, body_b, body_e, bit, cv, sv);
        break;
    default:
        group_columns8<3>(a, body_b, body_e, bit, cv, sv);
        break;
    }
    scalar_table().rx_group(a, body_e, he, bit, levels, c, s);
}

void
avx512_rx_tile(double* a, std::size_t tb, std::size_t te,
               std::int32_t tile_qubits, double c, double s)
{
    if (tile_qubits < kRegisterQubits) {
        avx2_table().rx_tile(a, tb, te, tile_qubits, c, s);
        return;
    }
    const __m512d cv = _mm512_set1_pd(c);
    const __m512d sv = signed_sin8(s);
    // Qubit 1's partner sits in the other 256-bit half; this index
    // brings it re/im-swapped: lanes [5,4,7,6,1,0,3,2].
    const __m512i q1 = _mm512_set_epi64(2, 3, 0, 1, 6, 7, 4, 5);
    const std::size_t tile = std::size_t(1) << tile_qubits;
    for (std::size_t t = tb; t < te; ++t) {
        double* tp = a + 2 * t * tile;
        for (std::size_t blk = 0; blk < tile; blk += 64) {
            double* p = tp + 2 * blk;
            __m512d v[16];
#pragma GCC unroll 16
            for (int r = 0; r < 16; ++r)
                v[r] = _mm512_loadu_pd(p + 8 * r);
            // Qubit 0: the partner is the neighbouring complex value
            // in the same 256-bit half; [3,2,1,0] per half brings it
            // re/im-swapped.
#pragma GCC unroll 16
            for (int r = 0; r < 16; ++r)
                v[r] = rx_mix8_swapped(
                    v[r], _mm512_permutex_pd(v[r], 0x1B), cv, sv);
#pragma GCC unroll 16
            for (int r = 0; r < 16; ++r)
                v[r] = rx_mix8_swapped(
                    v[r], _mm512_permutexvar_pd(q1, v[r]), cv, sv);
            // Qubits 2-5: the partner of register r is r ^ 2^(q-2).
#pragma GCC unroll 4
            for (int k = 0; k < kRegisterQubits - 2; ++k)
#pragma GCC unroll 16
                for (int r = 0; r < 16; ++r)
                    if ((r & (1 << k)) == 0)
                        rx_butterfly8(v[r], v[r | (1 << k)], cv, sv);
#pragma GCC unroll 16
            for (int r = 0; r < 16; ++r)
                _mm512_storeu_pd(p + 8 * r, v[r]);
        }
        // The remaining tile qubits, up to three per in-cache sweep.
        for (std::int32_t q = kRegisterQubits; q < tile_qubits;
             q += kMaxGroupQubits) {
            const std::int32_t levels =
                std::min(kMaxGroupQubits, tile_qubits - q);
            avx512_rx_group(a, (t * tile) >> levels,
                            ((t + 1) * tile) >> levels,
                            std::size_t(1) << q, levels, c, s);
        }
    }
}

void
avx512_phase_lut(double* a, std::size_t ib, std::size_t ie,
                 const std::int32_t* key, std::int32_t span,
                 const double* lut_re, const double* lut_im)
{
    const __m256i span_v = _mm256_set1_epi32(span);
    const __m512i idx_lo = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    const __m512i idx_hi = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    const __m512d zero = _mm512_setzero_pd();
    std::size_t i = ib;
    for (; i + 8 <= ie; i += 8) {
        __m256i k = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(key + i));
        k = _mm256_add_epi32(k, span_v);
        // Full-mask gather with a zeroed source: the plain gather
        // intrinsic expands through an undefined register and trips
        // -Wmaybe-uninitialized; with mask 0xff every lane is
        // overwritten, so the result is identical.
        const __m512d pr8 =
            _mm512_mask_i32gather_pd(zero, 0xff, k, lut_re, 8);
        const __m512d pi8 =
            _mm512_mask_i32gather_pd(zero, 0xff, k, lut_im, 8);
        const __m512d p_lo = _mm512_permutex2var_pd(pr8, idx_lo, pi8);
        const __m512d p_hi = _mm512_permutex2var_pd(pr8, idx_hi, pi8);
        double* p = a + 2 * i;
        _mm512_storeu_pd(p, cmul_packed8(_mm512_loadu_pd(p), p_lo));
        _mm512_storeu_pd(p + 8,
                         cmul_packed8(_mm512_loadu_pd(p + 8), p_hi));
    }
    for (; i < ie; ++i) {
        const std::int32_t k = key[i] + span;
        detail::cmul(a + 2 * i, lut_re[k], lut_im[k]);
    }
}

double
avx512_norm_sum(const double* a, std::size_t ib, std::size_t ie)
{
    const std::size_t len = ie - ib;
    __m256d acc = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 8 <= len; j += 8) {
        const double* p = a + 2 * (ib + j);
        const __m512d n = norm8(_mm512_loadu_pd(p),
                                _mm512_loadu_pd(p + 8));
        // Chain the halves in ascending element order to preserve the
        // 4-lane accumulation tree.
        acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(n));
        acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(n, 1));
    }
    alignas(32) double lane[kReductionLanes];
    _mm256_store_pd(lane, acc);
    for (; j < len; ++j)
        lane[j & (kReductionLanes - 1)] +=
            detail::norm2(a + 2 * (ib + j));
    return detail::combine_lanes(lane);
}

double
avx512_weighted_norm_sum(const double* a, const double* table,
                         double offset, std::size_t ib, std::size_t ie)
{
    const std::size_t len = ie - ib;
    const __m512d off = _mm512_set1_pd(offset);
    __m256d acc = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 8 <= len; j += 8) {
        const double* p = a + 2 * (ib + j);
        const __m512d n = norm8(_mm512_loadu_pd(p),
                                _mm512_loadu_pd(p + 8));
        const __m512d w =
            _mm512_add_pd(_mm512_loadu_pd(table + ib + j), off);
        const __m512d m = _mm512_mul_pd(n, w);
        acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(m));
        acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(m, 1));
    }
    alignas(32) double lane[kReductionLanes];
    _mm256_store_pd(lane, acc);
    for (; j < len; ++j)
        lane[j & (kReductionLanes - 1)] +=
            detail::norm2(a + 2 * (ib + j)) * (table[ib + j] + offset);
    return detail::combine_lanes(lane);
}

} // namespace

bool
avx512_compiled_in()
{
    return true;
}

const Table&
avx512_table()
{
    static const Table table = {
        "avx512",
        avx2_table().h,
        avx512_rx_tile,
        avx512_rx_group,
        avx2_table().rz,
        avx2_table().rzz,
        avx2_table().cphase,
        avx2_table().cx,
        avx2_table().swap,
        avx512_phase_lut,
        scalar_table().phase_angles, // trig-bound; shared (see kernels.h)
        avx2_table().probs,
        avx512_norm_sum,
        avx512_weighted_norm_sum,
        avx2_table().axpy,
        avx2_table().scale,
        avx2_table().mul_neg_i,
        avx2_table().rk4_combine,
    };
    return table;
}

} // namespace permuq::sim::kernels

#else // !(__AVX512F__ && __AVX512DQ__)

namespace permuq::sim::kernels {

bool
avx512_compiled_in()
{
    return false;
}

const Table&
avx512_table()
{
    return avx2_table();
}

} // namespace permuq::sim::kernels

#endif
