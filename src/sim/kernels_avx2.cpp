/**
 * @file
 * AVX2 tier of the statevector kernels (see sim/kernels.h for the
 * dispatch design and the determinism contract).
 *
 * Layout: amplitudes are interleaved [re, im], so one __m256d holds
 * two complex values. Complex multiplies use the movedup / permute /
 * addsub arrangement and RX butterflies multiply by pre-signed
 * (s, -s) lanes; both per-lane operation sequences match the scalar
 * helpers in kernels_inline.h exactly. Reductions accumulate into the
 * four register lanes (element j of a range lands in lane j mod 4,
 * combined as (l0+l1)+(l2+l3)), which the scalar tier mirrors with
 * four explicit accumulators. Gates vectorize when the qubit stride
 * leaves 4 consecutive amplitudes per group (block mask >= 3, i.e.
 * qubit index >= 2) and fall back to the shared scalar loop
 * otherwise; alignment prologues/tails run the identical per-element
 * helpers, so chunk boundaries (which depend on thread count) cannot
 * perturb any element's value. The RX kernels are the exception to
 * the stride rule: rx_group vectorizes from qubit 1 up (one register
 * holds a column of two amplitudes), and the tile kernel holds 16
 * amplitudes in eight registers and pairs qubit 0 with an
 * in-register permute.
 *
 * This TU builds with -mavx2 -ffp-contract=off; when the toolchain
 * can't target AVX2 the #else branch aliases the scalar tier.
 */
#include "sim/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

#include "sim/kernel_util.h"
#include "sim/kernels_inline.h"

namespace permuq::sim::kernels {

namespace {

/** Swap re/im within each complex: [a0,a1,a2,a3] -> [a1,a0,a3,a2]. */
inline __m256d
swap_halves(__m256d v)
{
    return _mm256_permute_pd(v, 0x5);
}

/** Multiply two complex values in @p v by the broadcast phase
 *  (pr, pi): per lane pair, re' = ar*pr - ai*pi, im' = ai*pr + ar*pi
 *  — the lane sequence of detail::cmul. */
inline __m256d
cmul_broadcast(__m256d v, __m256d pr, __m256d pi)
{
    const __m256d t = _mm256_mul_pd(v, pr);
    const __m256d u = _mm256_mul_pd(swap_halves(v), pi);
    return _mm256_addsub_pd(t, u);
}

/** Multiply two complex values in @p v by the two phases packed in
 *  @p p = [pr0, pi0, pr1, pi1]. */
inline __m256d
cmul_packed(__m256d v, __m256d p)
{
    const __m256d pr = _mm256_movedup_pd(p);
    const __m256d pi = _mm256_permute_pd(p, 0xF);
    return cmul_broadcast(v, pr, pi);
}

/** (s, -s) per complex value: the pre-signed sine of rx_mix. */
inline __m256d
signed_sin(double s)
{
    return _mm256_set_pd(-s, s, -s, s);
}

/** Half an RX butterfly with the partner's re/im already swapped:
 *  re' = c*ar_self + s*ai_other, im' = c*ai_self - s*ar_other (the
 *  lane sequence of detail::rx_pair). @p ss is signed_sin(s);
 *  round-to-nearest is sign-symmetric, so ar_other * (-s) ==
 *  -(s * ar_other) and the add equals rx_pair's subtraction
 *  bit-for-bit. */
inline __m256d
rx_mix_swapped(__m256d self, __m256d other_swapped, __m256d c,
               __m256d ss)
{
    return _mm256_add_pd(_mm256_mul_pd(self, c),
                         _mm256_mul_pd(other_swapped, ss));
}

/** Half an RX butterfly between two registers of amplitudes. */
inline __m256d
rx_mix(__m256d self, __m256d other, __m256d c, __m256d ss)
{
    return rx_mix_swapped(self, swap_halves(other), c, ss);
}

/** Both halves of the RX butterflies between registers @p x and @p y,
 *  in place. */
inline void
rx_butterfly(__m256d& x, __m256d& y, __m256d c, __m256d ss)
{
    const __m256d x0 = x;
    x = rx_mix(x0, y, c, ss);
    y = rx_mix(y, x0, c, ss);
}

/** |a|^2 of four consecutive complex values: returns [n0,n1,n2,n3].
 *  hadd computes re*re + im*im per value (the sequence of
 *  detail::norm2); the cross-lane permute restores element order. */
inline __m256d
norm4(__m256d a01, __m256d a23)
{
    const __m256d h = _mm256_hadd_pd(_mm256_mul_pd(a01, a01),
                                     _mm256_mul_pd(a23, a23));
    return _mm256_permute4x64_pd(h, 0xD8); // [n0,n2,n1,n3] -> order
}

void
avx2_h(double* a, std::size_t hb, std::size_t he, std::size_t low_mask,
       std::size_t bit, double inv_sqrt2)
{
    if (low_mask < 3) {
        scalar_table().h(a, hb, he, low_mask, bit, inv_sqrt2);
        return;
    }
    std::size_t h = hb;
    for (; h < he && (h & 3) != 0; ++h) {
        const std::size_t i0 = insert_zero(h, low_mask);
        detail::h_pair(a + 2 * i0, a + 2 * (i0 | bit), inv_sqrt2);
    }
    const __m256d inv = _mm256_set1_pd(inv_sqrt2);
    for (; h + 4 <= he; h += 4) {
        const std::size_t i0 = insert_zero(h, low_mask);
        double* p0 = a + 2 * i0;
        double* p1 = a + 2 * (i0 | bit);
        const __m256d v0a = _mm256_loadu_pd(p0);
        const __m256d v0b = _mm256_loadu_pd(p0 + 4);
        const __m256d v1a = _mm256_loadu_pd(p1);
        const __m256d v1b = _mm256_loadu_pd(p1 + 4);
        _mm256_storeu_pd(
            p0, _mm256_mul_pd(inv, _mm256_add_pd(v0a, v1a)));
        _mm256_storeu_pd(
            p0 + 4, _mm256_mul_pd(inv, _mm256_add_pd(v0b, v1b)));
        _mm256_storeu_pd(
            p1, _mm256_mul_pd(inv, _mm256_sub_pd(v0a, v1a)));
        _mm256_storeu_pd(
            p1 + 4, _mm256_mul_pd(inv, _mm256_sub_pd(v0b, v1b)));
    }
    for (; h < he; ++h) {
        const std::size_t i0 = insert_zero(h, low_mask);
        detail::h_pair(a + 2 * i0, a + 2 * (i0 | bit), inv_sqrt2);
    }
}

/** Qubits the AVX2 tile kernel holds in registers: 16 amplitudes in
 *  eight ymm, qubit 0 within each register, qubits 1-3 across. */
constexpr std::int32_t kRegisterQubits = 4;

/** RX on the Levels consecutive qubits at @p bit over the block range
 *  [hb, he) of the 2^(n-Levels) space, which must be even: each step
 *  holds a column of two consecutive amplitudes from each of the
 *  2^Levels runs in registers and applies every level there. Needs
 *  bit >= 2 so a column is one register. */
template <int Levels>
void
group_columns(double* a, std::size_t hb, std::size_t he, std::size_t bit,
              __m256d cv, __m256d sv)
{
    constexpr int kFan = 1 << Levels;
    for (std::size_t h = hb; h < he; h += 2) {
        double* p = a + 2 * insert_zeros(h, bit - 1, Levels);
        __m256d v[kFan];
#pragma GCC unroll 8
        for (int m = 0; m < kFan; ++m)
            v[m] = _mm256_loadu_pd(p + 2 * bit * m);
#pragma GCC unroll 3
        for (int l = 0; l < Levels; ++l)
#pragma GCC unroll 8
            for (int m = 0; m < kFan; ++m)
                if ((m & (1 << l)) == 0)
                    rx_butterfly(v[m], v[m | (1 << l)], cv, sv);
#pragma GCC unroll 8
        for (int m = 0; m < kFan; ++m)
            _mm256_storeu_pd(p + 2 * bit * m, v[m]);
    }
}

void
avx2_rx_group(double* a, std::size_t hb, std::size_t he, std::size_t bit,
              std::int32_t levels, double c, double s)
{
    if (bit < 2) { // qubit 0: a column would split a register
        scalar_table().rx_group(a, hb, he, bit, levels, c, s);
        return;
    }
    // Scalar head and tail: parallel_for cuts ranges anywhere, and the
    // per-element helpers keep every element's arithmetic unchanged.
    const std::size_t body_b = std::min(he, (hb + 1) & ~std::size_t(1));
    const std::size_t body_e = std::max(body_b, he & ~std::size_t(1));
    scalar_table().rx_group(a, hb, body_b, bit, levels, c, s);
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d sv = signed_sin(s);
    switch (levels) {
    case 1:
        group_columns<1>(a, body_b, body_e, bit, cv, sv);
        break;
    case 2:
        group_columns<2>(a, body_b, body_e, bit, cv, sv);
        break;
    default:
        group_columns<3>(a, body_b, body_e, bit, cv, sv);
        break;
    }
    scalar_table().rx_group(a, body_e, he, bit, levels, c, s);
}

void
avx2_rx_tile(double* a, std::size_t tb, std::size_t te,
             std::int32_t tile_qubits, double c, double s)
{
    if (tile_qubits < kRegisterQubits) {
        scalar_table().rx_tile(a, tb, te, tile_qubits, c, s);
        return;
    }
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d sv = signed_sin(s);
    const std::size_t tile = std::size_t(1) << tile_qubits;
    for (std::size_t t = tb; t < te; ++t) {
        double* tp = a + 2 * t * tile;
        for (std::size_t blk = 0; blk < tile; blk += 16) {
            double* p = tp + 2 * blk;
            __m256d v[8];
#pragma GCC unroll 8
            for (int r = 0; r < 8; ++r)
                v[r] = _mm256_loadu_pd(p + 4 * r);
            // Qubit 0: the partner is the register's other complex
            // value; one cross-lane permute brings it re/im-swapped.
#pragma GCC unroll 8
            for (int r = 0; r < 8; ++r)
                v[r] = rx_mix_swapped(
                    v[r], _mm256_permute4x64_pd(v[r], 0x1B), cv, sv);
            // Qubits 1-3: the partner of register r is r ^ 2^(q-1).
#pragma GCC unroll 3
            for (int k = 0; k < kRegisterQubits - 1; ++k)
#pragma GCC unroll 8
                for (int r = 0; r < 8; ++r)
                    if ((r & (1 << k)) == 0)
                        rx_butterfly(v[r], v[r | (1 << k)], cv, sv);
#pragma GCC unroll 8
            for (int r = 0; r < 8; ++r)
                _mm256_storeu_pd(p + 4 * r, v[r]);
        }
        // The remaining tile qubits, up to three per in-cache sweep.
        for (std::int32_t q = kRegisterQubits; q < tile_qubits;
             q += kMaxGroupQubits) {
            const std::int32_t levels =
                std::min(kMaxGroupQubits, tile_qubits - q);
            avx2_rx_group(a, (t * tile) >> levels,
                          ((t + 1) * tile) >> levels, std::size_t(1) << q,
                          levels, c, s);
        }
    }
}

void
avx2_rz(double* a, std::size_t ib, std::size_t ie, std::size_t bit,
        double e0r, double e0i, double e1r, double e1i)
{
    if (bit < 4) { // phase alternates within a 4-amplitude group
        scalar_table().rz(a, ib, ie, bit, e0r, e0i, e1r, e1i);
        return;
    }
    auto one = [=](std::size_t i) {
        if (i & bit)
            detail::cmul(a + 2 * i, e1r, e1i);
        else
            detail::cmul(a + 2 * i, e0r, e0i);
    };
    std::size_t i = ib;
    for (; i < ie && (i & 3) != 0; ++i)
        one(i);
    const __m256d r0 = _mm256_set1_pd(e0r), im0 = _mm256_set1_pd(e0i);
    const __m256d r1 = _mm256_set1_pd(e1r), im1 = _mm256_set1_pd(e1i);
    for (; i + 4 <= ie; i += 4) {
        const bool hi = (i & bit) != 0;
        const __m256d pr = hi ? r1 : r0;
        const __m256d pi = hi ? im1 : im0;
        double* p = a + 2 * i;
        _mm256_storeu_pd(p, cmul_broadcast(_mm256_loadu_pd(p), pr, pi));
        _mm256_storeu_pd(
            p + 4, cmul_broadcast(_mm256_loadu_pd(p + 4), pr, pi));
    }
    for (; i < ie; ++i)
        one(i);
}

void
avx2_rzz(double* a, std::size_t ib, std::size_t ie, std::size_t abit,
         std::size_t bbit, double sr, double si, double dr, double di)
{
    if (abit < 4 || bbit < 4) {
        scalar_table().rzz(a, ib, ie, abit, bbit, sr, si, dr, di);
        return;
    }
    auto one = [=](std::size_t i) {
        const bool aligned = ((i & abit) != 0) == ((i & bbit) != 0);
        if (aligned)
            detail::cmul(a + 2 * i, sr, si);
        else
            detail::cmul(a + 2 * i, dr, di);
    };
    std::size_t i = ib;
    for (; i < ie && (i & 3) != 0; ++i)
        one(i);
    const __m256d rs = _mm256_set1_pd(sr), is = _mm256_set1_pd(si);
    const __m256d rd = _mm256_set1_pd(dr), id = _mm256_set1_pd(di);
    for (; i + 4 <= ie; i += 4) {
        const bool aligned = ((i & abit) != 0) == ((i & bbit) != 0);
        const __m256d pr = aligned ? rs : rd;
        const __m256d pi = aligned ? is : id;
        double* p = a + 2 * i;
        _mm256_storeu_pd(p, cmul_broadcast(_mm256_loadu_pd(p), pr, pi));
        _mm256_storeu_pd(
            p + 4, cmul_broadcast(_mm256_loadu_pd(p + 4), pr, pi));
    }
    for (; i < ie; ++i)
        one(i);
}

void
avx2_cphase(double* a, std::size_t hb, std::size_t he,
            std::size_t lo_mask, std::size_t hi_mask,
            std::size_t target_bits, double pr, double pi)
{
    if (lo_mask < 3) {
        scalar_table().cphase(a, hb, he, lo_mask, hi_mask, target_bits,
                              pr, pi);
        return;
    }
    auto one = [=](std::size_t h) {
        const std::size_t i00 = insert_two_zeros(h, lo_mask, hi_mask);
        detail::cmul(a + 2 * (i00 | target_bits), pr, pi);
    };
    std::size_t h = hb;
    for (; h < he && (h & 3) != 0; ++h)
        one(h);
    const __m256d prv = _mm256_set1_pd(pr);
    const __m256d piv = _mm256_set1_pd(pi);
    for (; h + 4 <= he; h += 4) {
        const std::size_t i00 = insert_two_zeros(h, lo_mask, hi_mask);
        double* p = a + 2 * (i00 | target_bits);
        _mm256_storeu_pd(p,
                         cmul_broadcast(_mm256_loadu_pd(p), prv, piv));
        _mm256_storeu_pd(
            p + 4, cmul_broadcast(_mm256_loadu_pd(p + 4), prv, piv));
    }
    for (; h < he; ++h)
        one(h);
}

void
avx2_cx(double* a, std::size_t hb, std::size_t he, std::size_t lo_mask,
        std::size_t hi_mask, std::size_t cbit, std::size_t tbit)
{
    // Pure 16-byte moves, one complex per __m128d; no arithmetic, so
    // values are trivially identical to the scalar tier.
    for (std::size_t h = hb; h < he; ++h) {
        const std::size_t i00 = insert_two_zeros(h, lo_mask, hi_mask);
        double* p0 = a + 2 * (i00 | cbit);
        double* p1 = a + 2 * (i00 | cbit | tbit);
        const __m128d x = _mm_loadu_pd(p0);
        const __m128d y = _mm_loadu_pd(p1);
        _mm_storeu_pd(p0, y);
        _mm_storeu_pd(p1, x);
    }
}

void
avx2_swap(double* a, std::size_t hb, std::size_t he, std::size_t lo_mask,
          std::size_t hi_mask, std::size_t abit, std::size_t bbit)
{
    for (std::size_t h = hb; h < he; ++h) {
        const std::size_t i00 = insert_two_zeros(h, lo_mask, hi_mask);
        double* p0 = a + 2 * (i00 | abit);
        double* p1 = a + 2 * (i00 | bbit);
        const __m128d x = _mm_loadu_pd(p0);
        const __m128d y = _mm_loadu_pd(p1);
        _mm_storeu_pd(p0, y);
        _mm_storeu_pd(p1, x);
    }
}

// GCC's non-masked gather intrinsics expand through an undefined
// source register, tripping -Wmaybe-uninitialized; the full-ones mask
// below means every lane is written.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
void
avx2_phase_lut(double* a, std::size_t ib, std::size_t ie,
               const std::int32_t* key, std::int32_t span,
               const double* lut_re, const double* lut_im)
{
    const __m128i span_v = _mm_set1_epi32(span);
    std::size_t i = ib;
    for (; i + 4 <= ie; i += 4) {
        __m128i k = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(key + i));
        k = _mm_add_epi32(k, span_v);
        const __m256d pr4 = _mm256_i32gather_pd(lut_re, k, 8);
        const __m256d pi4 = _mm256_i32gather_pd(lut_im, k, 8);
        const __m256d lo = _mm256_unpacklo_pd(pr4, pi4);
        const __m256d hi = _mm256_unpackhi_pd(pr4, pi4);
        const __m256d p01 = _mm256_permute2f128_pd(lo, hi, 0x20);
        const __m256d p23 = _mm256_permute2f128_pd(lo, hi, 0x31);
        double* p = a + 2 * i;
        _mm256_storeu_pd(p, cmul_packed(_mm256_loadu_pd(p), p01));
        _mm256_storeu_pd(p + 4,
                         cmul_packed(_mm256_loadu_pd(p + 4), p23));
    }
    for (; i < ie; ++i) {
        const std::int32_t k = key[i] + span;
        detail::cmul(a + 2 * i, lut_re[k], lut_im[k]);
    }
}
#pragma GCC diagnostic pop

void
avx2_probs(const double* a, double* out, std::size_t ib, std::size_t ie)
{
    std::size_t i = ib;
    for (; i + 4 <= ie; i += 4) {
        const double* p = a + 2 * i;
        _mm256_storeu_pd(out + i, norm4(_mm256_loadu_pd(p),
                                        _mm256_loadu_pd(p + 4)));
    }
    for (; i < ie; ++i)
        out[i] = detail::norm2(a + 2 * i);
}

double
avx2_norm_sum(const double* a, std::size_t ib, std::size_t ie)
{
    const std::size_t len = ie - ib;
    __m256d acc = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 4 <= len; j += 4) {
        const double* p = a + 2 * (ib + j);
        acc = _mm256_add_pd(
            acc, norm4(_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)));
    }
    alignas(32) double lane[kReductionLanes];
    _mm256_store_pd(lane, acc);
    for (; j < len; ++j)
        lane[j & (kReductionLanes - 1)] +=
            detail::norm2(a + 2 * (ib + j));
    return detail::combine_lanes(lane);
}

double
avx2_weighted_norm_sum(const double* a, const double* table,
                       double offset, std::size_t ib, std::size_t ie)
{
    const std::size_t len = ie - ib;
    const __m256d off = _mm256_set1_pd(offset);
    __m256d acc = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 4 <= len; j += 4) {
        const double* p = a + 2 * (ib + j);
        const __m256d n =
            norm4(_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4));
        const __m256d w =
            _mm256_add_pd(_mm256_loadu_pd(table + ib + j), off);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(n, w));
    }
    alignas(32) double lane[kReductionLanes];
    _mm256_store_pd(lane, acc);
    for (; j < len; ++j)
        lane[j & (kReductionLanes - 1)] +=
            detail::norm2(a + 2 * (ib + j)) * (table[ib + j] + offset);
    return detail::combine_lanes(lane);
}

void
avx2_axpy(double* y, const double* x, double s, std::size_t b,
          std::size_t e)
{
    const __m256d sv = _mm256_set1_pd(s);
    std::size_t i = b;
    for (; i + 4 <= e; i += 4)
        _mm256_storeu_pd(
            y + i,
            _mm256_add_pd(_mm256_loadu_pd(y + i),
                          _mm256_mul_pd(sv, _mm256_loadu_pd(x + i))));
    for (; i < e; ++i)
        y[i] += s * x[i];
}

void
avx2_scale(double* y, double s, std::size_t b, std::size_t e)
{
    const __m256d sv = _mm256_set1_pd(s);
    std::size_t i = b;
    for (; i + 4 <= e; i += 4)
        _mm256_storeu_pd(y + i,
                         _mm256_mul_pd(sv, _mm256_loadu_pd(y + i)));
    for (; i < e; ++i)
        y[i] *= s;
}

void
avx2_mul_neg_i(double* a, std::size_t ib, std::size_t ie)
{
    // (re, im) -> (im, -re): swap halves, negate the imag lanes.
    const __m256d neg_odd = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
    std::size_t i = ib;
    for (; i + 2 <= ie; i += 2) {
        double* p = a + 2 * i;
        _mm256_storeu_pd(
            p, _mm256_xor_pd(swap_halves(_mm256_loadu_pd(p)), neg_odd));
    }
    for (; i < ie; ++i) {
        const double re = a[2 * i], im = a[2 * i + 1];
        a[2 * i] = im;
        a[2 * i + 1] = -re;
    }
}

void
avx2_rk4_combine(double* y, const double* k1, const double* k2,
                 const double* k3, const double* k4, double w,
                 std::size_t b, std::size_t e)
{
    const __m256d wv = _mm256_set1_pd(w);
    const __m256d two = _mm256_set1_pd(2.0);
    std::size_t i = b;
    for (; i + 4 <= e; i += 4) {
        const __m256d t = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_add_pd(
                    _mm256_loadu_pd(k1 + i),
                    _mm256_mul_pd(two, _mm256_loadu_pd(k2 + i))),
                _mm256_mul_pd(two, _mm256_loadu_pd(k3 + i))),
            _mm256_loadu_pd(k4 + i));
        _mm256_storeu_pd(y + i,
                         _mm256_add_pd(_mm256_loadu_pd(y + i),
                                       _mm256_mul_pd(wv, t)));
    }
    for (; i < e; ++i)
        y[i] += w * (((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i]);
}

} // namespace

bool
avx2_compiled_in()
{
    return true;
}

const Table&
avx2_table()
{
    static const Table table = {
        "avx2",
        avx2_h,
        avx2_rx_tile,
        avx2_rx_group,
        avx2_rz,
        avx2_rzz,
        avx2_cphase,
        avx2_cx,
        avx2_swap,
        avx2_phase_lut,
        scalar_table().phase_angles, // trig-bound; shared (see kernels.h)
        avx2_probs,
        avx2_norm_sum,
        avx2_weighted_norm_sum,
        avx2_axpy,
        avx2_scale,
        avx2_mul_neg_i,
        avx2_rk4_combine,
    };
    return table;
}

} // namespace permuq::sim::kernels

#else // !defined(__AVX2__)

namespace permuq::sim::kernels {

bool
avx2_compiled_in()
{
    return false;
}

const Table&
avx2_table()
{
    return scalar_table();
}

} // namespace permuq::sim::kernels

#endif
