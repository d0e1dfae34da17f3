/**
 * @file
 * Portable scalar tier of the statevector kernels (see sim/kernels.h
 * for the dispatch design and the determinism contract). Every loop
 * is written over the shared per-element helpers of kernels_inline.h;
 * the reductions keep four explicit accumulator lanes mirroring the
 * AVX2 register lanes. This TU builds with -ffp-contract=off so no
 * FMA contraction can diverge from the vector tier.
 */
#include "sim/kernels.h"

#include <cmath>

#include "sim/kernel_util.h"
#include "sim/kernels_inline.h"

namespace permuq::sim::kernels {

namespace {

using detail::cmul;
using detail::combine_lanes;
using detail::cswap;
using detail::h_pair;
using detail::norm2;
using detail::rx_pair;

void
scalar_h(double* a, std::size_t hb, std::size_t he, std::size_t low_mask,
         std::size_t bit, double inv_sqrt2)
{
    for (std::size_t h = hb; h < he; ++h) {
        const std::size_t i0 = insert_zero(h, low_mask);
        h_pair(a + 2 * i0, a + 2 * (i0 | bit), inv_sqrt2);
    }
}

/** rx_group with its level count fixed, so the butterfly loops
 *  unroll. */
template <int Levels>
void
rx_group_blocks(double* a, std::size_t hb, std::size_t he, std::size_t bit,
                double c, double s)
{
    constexpr std::size_t kFan = std::size_t(1) << Levels;
    for (std::size_t h = hb; h < he; ++h) {
        double* p = a + 2 * insert_zeros(h, bit - 1, Levels);
        // Level by level, ascending — the exact per-element sequence
        // of one full rx pass per qubit.
#pragma GCC unroll 3
        for (int l = 0; l < Levels; ++l)
#pragma GCC unroll 8
            for (std::size_t m = 0; m < kFan; ++m)
                if ((m & (std::size_t(1) << l)) == 0)
                    rx_pair(p + 2 * bit * m,
                            p + 2 * bit * (m | (std::size_t(1) << l)), c,
                            s);
    }
}

/** Pass 1 of the blocked mixer: per tile, one RX sweep per qubit. */
void
scalar_rx_tile(double* a, std::size_t tb, std::size_t te,
               std::int32_t tile_qubits, double c, double s)
{
    const std::size_t half = std::size_t(1) << (tile_qubits - 1);
    for (std::size_t t = tb; t < te; ++t)
        for (std::int32_t q = 0; q < tile_qubits; ++q)
            rx_group_blocks<1>(a, t * half, (t + 1) * half,
                               std::size_t(1) << q, c, s);
}

void
scalar_rx_group(double* a, std::size_t hb, std::size_t he,
                std::size_t bit, std::int32_t levels, double c, double s)
{
    switch (levels) {
    case 1:
        rx_group_blocks<1>(a, hb, he, bit, c, s);
        break;
    case 2:
        rx_group_blocks<2>(a, hb, he, bit, c, s);
        break;
    default:
        rx_group_blocks<3>(a, hb, he, bit, c, s);
        break;
    }
}

void
scalar_rz(double* a, std::size_t ib, std::size_t ie, std::size_t bit,
          double e0r, double e0i, double e1r, double e1i)
{
    for (std::size_t i = ib; i < ie; ++i) {
        if (i & bit)
            cmul(a + 2 * i, e1r, e1i);
        else
            cmul(a + 2 * i, e0r, e0i);
    }
}

void
scalar_rzz(double* a, std::size_t ib, std::size_t ie, std::size_t abit,
           std::size_t bbit, double sr, double si, double dr, double di)
{
    for (std::size_t i = ib; i < ie; ++i) {
        const bool aligned = ((i & abit) != 0) == ((i & bbit) != 0);
        if (aligned)
            cmul(a + 2 * i, sr, si);
        else
            cmul(a + 2 * i, dr, di);
    }
}

void
scalar_cphase(double* a, std::size_t hb, std::size_t he,
              std::size_t lo_mask, std::size_t hi_mask,
              std::size_t target_bits, double pr, double pi)
{
    for (std::size_t h = hb; h < he; ++h) {
        const std::size_t i00 = insert_two_zeros(h, lo_mask, hi_mask);
        cmul(a + 2 * (i00 | target_bits), pr, pi);
    }
}

void
scalar_cx(double* a, std::size_t hb, std::size_t he, std::size_t lo_mask,
          std::size_t hi_mask, std::size_t cbit, std::size_t tbit)
{
    for (std::size_t h = hb; h < he; ++h) {
        const std::size_t i00 = insert_two_zeros(h, lo_mask, hi_mask);
        cswap(a + 2 * (i00 | cbit), a + 2 * (i00 | cbit | tbit));
    }
}

void
scalar_swap(double* a, std::size_t hb, std::size_t he,
            std::size_t lo_mask, std::size_t hi_mask, std::size_t abit,
            std::size_t bbit)
{
    for (std::size_t h = hb; h < he; ++h) {
        const std::size_t i00 = insert_two_zeros(h, lo_mask, hi_mask);
        cswap(a + 2 * (i00 | abit), a + 2 * (i00 | bbit));
    }
}

void
scalar_phase_lut(double* a, std::size_t ib, std::size_t ie,
                 const std::int32_t* key, std::int32_t span,
                 const double* lut_re, const double* lut_im)
{
    for (std::size_t i = ib; i < ie; ++i) {
        const std::int32_t k = key[i] + span;
        cmul(a + 2 * i, lut_re[k], lut_im[k]);
    }
}

void
scalar_probs(const double* a, double* out, std::size_t ib, std::size_t ie)
{
    for (std::size_t i = ib; i < ie; ++i)
        out[i] = norm2(a + 2 * i);
}

double
scalar_norm_sum(const double* a, std::size_t ib, std::size_t ie)
{
    double lane[kReductionLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = ib; i < ie; ++i)
        lane[(i - ib) & (kReductionLanes - 1)] += norm2(a + 2 * i);
    return combine_lanes(lane);
}

double
scalar_weighted_norm_sum(const double* a, const double* table,
                         double offset, std::size_t ib, std::size_t ie)
{
    double lane[kReductionLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = ib; i < ie; ++i)
        lane[(i - ib) & (kReductionLanes - 1)] +=
            norm2(a + 2 * i) * (table[i] + offset);
    return combine_lanes(lane);
}

void
scalar_axpy(double* y, const double* x, double s, std::size_t b,
            std::size_t e)
{
    for (std::size_t i = b; i < e; ++i)
        y[i] += s * x[i];
}

void
scalar_scale(double* y, double s, std::size_t b, std::size_t e)
{
    for (std::size_t i = b; i < e; ++i)
        y[i] *= s;
}

void
scalar_mul_neg_i(double* a, std::size_t ib, std::size_t ie)
{
    for (std::size_t i = ib; i < ie; ++i) {
        const double re = a[2 * i], im = a[2 * i + 1];
        a[2 * i] = im;
        a[2 * i + 1] = -re;
    }
}

void
scalar_rk4_combine(double* y, const double* k1, const double* k2,
                   const double* k3, const double* k4, double w,
                   std::size_t b, std::size_t e)
{
    for (std::size_t i = b; i < e; ++i)
        y[i] += w * (((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i]);
}

/** Dense phase sweep: trig-bound, one implementation shared by both
 *  tiers (kernels_avx2.cpp reuses it via scalar_table()). */
void
scalar_phase_angles(double* a, std::size_t ib, std::size_t ie,
                    const double* angle, double scale, double constant)
{
    for (std::size_t i = ib; i < ie; ++i) {
        const double ang = scale * (constant + angle[i]);
        cmul(a + 2 * i, std::cos(ang), std::sin(ang));
    }
}

} // namespace

const Table&
scalar_table()
{
    static const Table table = {
        "scalar",
        scalar_h,
        scalar_rx_tile,
        scalar_rx_group,
        scalar_rz,
        scalar_rzz,
        scalar_cphase,
        scalar_cx,
        scalar_swap,
        scalar_phase_lut,
        scalar_phase_angles,
        scalar_probs,
        scalar_norm_sum,
        scalar_weighted_norm_sum,
        scalar_axpy,
        scalar_scale,
        scalar_mul_neg_i,
        scalar_rk4_combine,
    };
    return table;
}

} // namespace permuq::sim::kernels
