#include "statevector.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <string>

#include "common/error.h"
#include "common/parallel.h"
#include "sim/kernel_util.h"
#include "sim/kernels.h"
#include "sim/simd.h"

namespace permuq::sim {

namespace {

constexpr std::size_t kGrain = kKernelGrain;

} // namespace

std::size_t
Statevector::memory_bytes(std::int32_t num_qubits)
{
    return (std::size_t(1) << num_qubits) * sizeof(Amplitude);
}

Statevector::Statevector(std::int32_t num_qubits)
    : num_qubits_(num_qubits)
{
    fatal_unless(num_qubits >= 1 && num_qubits <= kMaxSimQubits,
                 "statevector supports 1.." +
                     std::to_string(kMaxSimQubits) + " qubits (got " +
                     std::to_string(num_qubits) + ")");
    try {
        amp_.assign(std::size_t(1) << num_qubits, Amplitude(0.0, 0.0));
    } catch (const std::bad_alloc&) {
        throw FatalError(
            "cannot allocate the 2^" + std::to_string(num_qubits) +
            " amplitudes (" + std::to_string(memory_bytes(num_qubits)) +
            " bytes) of a " + std::to_string(num_qubits) +
            "-qubit statevector; reduce the qubit count or free memory");
    }
    amp_[0] = Amplitude(1.0, 0.0);
}

void
Statevector::reset_to_plus()
{
    // Match the value an H-per-qubit chain produces: n rounded
    // multiplies by 1/sqrt(2), not pow(2, -n/2).
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    double v = 1.0;
    for (std::int32_t q = 0; q < num_qubits_; ++q)
        v *= inv_sqrt2;
    const Amplitude fill(v, 0.0);
    Amplitude* amp = amp_.data();
    common::parallel_for(
        0, amp_.size(), kGrain, [=](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                amp[i] = fill;
        });
}

void
Statevector::apply_h(std::int32_t q)
{
    const std::size_t bit = std::size_t(1) << q;
    const std::size_t low = bit - 1;
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    const kernels::Table& t = kernels::active_counted();
    double* a = reinterpret_cast<double*>(amp_.data());
    common::parallel_for(
        0, amp_.size() >> 1, kGrain, [=, &t](std::size_t b, std::size_t e) {
            t.h(a, b, e, low, bit, inv_sqrt2);
        });
}

void
Statevector::apply_x(std::int32_t q)
{
    const std::size_t bit = std::size_t(1) << q;
    const std::size_t low = bit - 1;
    Amplitude* amp = amp_.data();
    common::parallel_for(
        0, amp_.size() >> 1, kGrain, [=](std::size_t b, std::size_t e) {
            for (std::size_t h = b; h < e; ++h) {
                const std::size_t i0 = insert_zero(h, low);
                std::swap(amp[i0], amp[i0 | bit]);
            }
        });
}

void
Statevector::apply_y(std::int32_t q)
{
    // Y = [[0, -i], [i, 0]]: -i*(r + mi) = (m, -r), i*(r + mi) = (-m, r).
    // Written out rather than through std::complex's operator*, whose
    // NaN-recovery branch keeps the loop scalar; only the sign of an
    // exactly-zero component can differ from that product.
    const std::size_t bit = std::size_t(1) << q;
    const std::size_t low = bit - 1;
    double* a = reinterpret_cast<double*>(amp_.data());
    common::parallel_for(
        0, amp_.size() >> 1, kGrain, [=](std::size_t b, std::size_t e) {
            for (std::size_t h = b; h < e; ++h) {
                double* p0 = a + 2 * insert_zero(h, low);
                double* p1 = p0 + 2 * bit;
                const double r0 = p0[0], m0 = p0[1];
                const double r1 = p1[0], m1 = p1[1];
                p0[0] = m1;
                p0[1] = -r1;
                p1[0] = -m0;
                p1[1] = r0;
            }
        });
}

void
Statevector::apply_z(std::int32_t q)
{
    const std::size_t bit = std::size_t(1) << q;
    const std::size_t low = bit - 1;
    Amplitude* amp = amp_.data();
    common::parallel_for(
        0, amp_.size() >> 1, kGrain, [=](std::size_t b, std::size_t e) {
            for (std::size_t h = b; h < e; ++h)
                amp[insert_zero(h, low) | bit] *= -1.0;
        });
}

void
Statevector::apply_rx(std::int32_t q, double theta)
{
    // A one-level rx_group: the mixer's column kernel on one qubit.
    const std::size_t bit = std::size_t(1) << q;
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const kernels::Table& t = kernels::active_counted();
    double* a = reinterpret_cast<double*>(amp_.data());
    common::parallel_for(
        0, amp_.size() >> 1, kGrain, [=, &t](std::size_t b, std::size_t e) {
            t.rx_group(a, b, e, bit, 1, c, s);
        });
}

void
Statevector::apply_rx_all(double theta)
{
    // The full RX(theta) mixer layer in two register-blocked passes
    // (see the header). Values are bit-identical to apply_rx on qubits
    // 0..n-1 in ascending order: every kernel applies the rx_pair
    // arithmetic to each element, qubit by qubit, ascending.
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const kernels::Table& t = kernels::active_counted();
    double* a = reinterpret_cast<double*>(amp_.data());

    // Pass 1: qubits below the tile width, one tile at a time. A
    // 2^kMixerTileQubits-amplitude tile is closed under these
    // butterflies, so it takes them all while cache-resident.
    const std::int32_t tq =
        std::min<std::int32_t>(kMixerTileQubits, num_qubits_);
    common::parallel_for(
        0, amp_.size() >> tq, 1, [=, &t](std::size_t tb, std::size_t te) {
            t.rx_tile(a, tb, te, tq, c, s);
        });

    // Pass 2: the remaining high qubits, up to three per traversal.
    for (std::int32_t q = tq; q < num_qubits_;
         q += kernels::kMaxGroupQubits) {
        const std::int32_t levels =
            std::min(kernels::kMaxGroupQubits, num_qubits_ - q);
        const std::size_t bit = std::size_t(1) << q;
        common::parallel_for(
            0, amp_.size() >> levels, kGrain,
            [=, &t](std::size_t b, std::size_t e) {
                t.rx_group(a, b, e, bit, levels, c, s);
            });
    }
}

void
Statevector::apply_rz(std::int32_t q, double theta)
{
    const std::size_t bit = std::size_t(1) << q;
    const Amplitude e0 = std::polar(1.0, -theta / 2.0);
    const Amplitude e1 = std::polar(1.0, theta / 2.0);
    const kernels::Table& t = kernels::active_counted();
    double* a = reinterpret_cast<double*>(amp_.data());
    common::parallel_for(
        0, amp_.size(), kGrain, [=, &t](std::size_t b, std::size_t e) {
            t.rz(a, b, e, bit, e0.real(), e0.imag(), e1.real(),
                 e1.imag());
        });
}

void
Statevector::apply_cx(std::int32_t control, std::int32_t target)
{
    const std::size_t cbit = std::size_t(1) << control;
    const std::size_t tbit = std::size_t(1) << target;
    const std::size_t lo = std::min(cbit, tbit) - 1;
    const std::size_t hi = std::max(cbit, tbit) - 1;
    const kernels::Table& t = kernels::active_counted();
    double* a = reinterpret_cast<double*>(amp_.data());
    common::parallel_for(
        0, amp_.size() >> 2, kGrain, [=, &t](std::size_t b, std::size_t e) {
            t.cx(a, b, e, lo, hi, cbit, tbit);
        });
}

void
Statevector::apply_two_qubit(const std::array<Amplitude, 16>& u,
                             std::int32_t a, std::int32_t b)
{
    fatal_unless(a != b, "two-qubit gate needs distinct qubits");
    const std::size_t abit = std::size_t(1) << a;
    const std::size_t bbit = std::size_t(1) << b;
    const std::size_t lo = std::min(abit, bbit) - 1;
    const std::size_t hi = std::max(abit, bbit) - 1;
    Amplitude* amp = amp_.data();
    const Amplitude* mat = u.data();
    common::parallel_for(
        0, amp_.size() >> 2, kGrain / 4,
        [=](std::size_t begin, std::size_t end) {
            for (std::size_t h = begin; h < end; ++h) {
                const std::size_t i00 =
                    insert_two_zeros(h, lo, hi);
                const std::size_t idx[4] = {i00, i00 | abit, i00 | bbit,
                                            i00 | abit | bbit};
                Amplitude in[4];
                for (int k = 0; k < 4; ++k)
                    in[k] = amp[idx[k]];
                for (int r = 0; r < 4; ++r) {
                    Amplitude acc(0.0, 0.0);
                    for (int c = 0; c < 4; ++c)
                        acc += mat[4 * r + c] * in[c];
                    amp[idx[r]] = acc;
                }
            }
        });
}

void
Statevector::apply_swap(std::int32_t a, std::int32_t b)
{
    const std::size_t abit = std::size_t(1) << a;
    const std::size_t bbit = std::size_t(1) << b;
    const std::size_t lo = std::min(abit, bbit) - 1;
    const std::size_t hi = std::max(abit, bbit) - 1;
    const kernels::Table& t = kernels::active_counted();
    double* arr = reinterpret_cast<double*>(amp_.data());
    common::parallel_for(
        0, amp_.size() >> 2, kGrain,
        [=, &t](std::size_t b2, std::size_t e2) {
            t.swap(arr, b2, e2, lo, hi, abit, bbit);
        });
}

void
Statevector::apply_rzz(std::int32_t a, std::int32_t b, double theta)
{
    const std::size_t abit = std::size_t(1) << a;
    const std::size_t bbit = std::size_t(1) << b;
    const Amplitude same = std::polar(1.0, -theta / 2.0);
    const Amplitude diff = std::polar(1.0, theta / 2.0);
    const kernels::Table& t = kernels::active_counted();
    double* arr = reinterpret_cast<double*>(amp_.data());
    common::parallel_for(
        0, amp_.size(), kGrain, [=, &t](std::size_t b2, std::size_t e2) {
            t.rzz(arr, b2, e2, abit, bbit, same.real(), same.imag(),
                  diff.real(), diff.imag());
        });
}

void
Statevector::apply_cphase(std::int32_t a, std::int32_t b, double theta)
{
    const std::size_t abit = std::size_t(1) << a;
    const std::size_t bbit = std::size_t(1) << b;
    const std::size_t lo = std::min(abit, bbit) - 1;
    const std::size_t hi = std::max(abit, bbit) - 1;
    const Amplitude phase = std::polar(1.0, theta);
    const kernels::Table& t = kernels::active_counted();
    double* arr = reinterpret_cast<double*>(amp_.data());
    common::parallel_for(
        0, amp_.size() >> 2, kGrain,
        [=, &t](std::size_t b2, std::size_t e2) {
            t.cphase(arr, b2, e2, lo, hi, abit | bbit, phase.real(),
                     phase.imag());
        });
}

void
Statevector::apply_phase_table(const std::vector<double>& angles,
                               double scale)
{
    fatal_unless(angles.size() == amp_.size(),
                 "phase table size must match the statevector");
    const double* angle = angles.data();
    const kernels::Table& t = kernels::active_counted();
    double* a = reinterpret_cast<double*>(amp_.data());
    common::parallel_for(
        0, amp_.size(), kGrain, [=, &t](std::size_t b, std::size_t e) {
            t.phase_angles(a, b, e, angle, scale, 0.0);
        });
}

std::vector<double>
Statevector::probabilities() const
{
    std::vector<double> p(amp_.size());
    double* out = p.data();
    const kernels::Table& t = kernels::active_counted();
    const double* a = reinterpret_cast<const double*>(amp_.data());
    common::parallel_for(
        0, amp_.size(), kGrain, [=, &t](std::size_t b, std::size_t e) {
            t.probs(a, out, b, e);
        });
    return p;
}

std::uint64_t
Statevector::sample(Xoshiro256& rng) const
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

double
Statevector::norm_sq() const
{
    const kernels::Table& t = kernels::active_counted();
    const double* a = reinterpret_cast<const double*>(amp_.data());
    return common::parallel_reduce_sum<double>(
        0, amp_.size(), kGrain * 4, [=, &t](std::size_t b, std::size_t e) {
            return t.norm_sum(a, b, e);
        });
}

CdfSampler::CdfSampler(const Statevector& sv)
{
    const auto& amp = sv.amplitudes();
    cdf_.resize(amp.size());
    // Serial left-to-right accumulation, matching the order of
    // Statevector::sample's linear scan exactly so both samplers
    // agree bit-for-bit on the same draw.
    double acc = 0.0;
    for (std::size_t i = 0; i < amp.size(); ++i) {
        acc += std::norm(amp[i]);
        cdf_[i] = acc;
    }
}

std::uint64_t
CdfSampler::sample(Xoshiro256& rng) const
{
    const double r = rng.next_double();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), r);
    if (it == cdf_.end())
        return cdf_.size() - 1;
    return static_cast<std::uint64_t>(it - cdf_.begin());
}

} // namespace permuq::sim
