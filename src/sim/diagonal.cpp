#include "diagonal.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>

#include "common/error.h"
#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "sim/kernel_util.h"
#include "sim/kernels.h"

namespace permuq::sim {

namespace {

constexpr std::size_t kGrain = kKernelGrain;

/** Four int32 lanes. GCC 12 at -O2 leaves a plain butterfly loop
 *  scalar, so the strided passes below spell out their lanes. */
using Lanes = std::int32_t __attribute__((vector_size(16)));

Lanes
load(const std::int32_t* p)
{
    Lanes v{};
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
store(std::int32_t* p, Lanes v)
{
    std::memcpy(p, &v, sizeof v);
}

/** True when the @p block keys at @p k are all zero. */
bool
all_zero(const std::int32_t* k, std::size_t block)
{
    Lanes any{};
    for (std::size_t i = 0; i < block; i += 4)
        any |= load(k + i);
    return (any[0] | any[1] | any[2] | any[3]) == 0;
}

/** Butterfly passes at strides 1 and 2, fused per quad of keys. */
void
first_two_passes(std::int32_t* key, std::size_t size)
{
    for (std::size_t i = 0; i < size; i += 4) {
        std::int32_t* k = key + i;
        const std::int32_t s01 = k[0] + k[1], d01 = k[0] - k[1];
        const std::int32_t s23 = k[2] + k[3], d23 = k[2] - k[3];
        k[0] = s01 + s23;
        k[1] = d01 + d23;
        k[2] = s01 - s23;
        k[3] = d01 - d23;
    }
}

/**
 * Butterfly passes (x, y) -> (x + y, x - y) at strides h, 2h, ... below
 * @p h_end over @p size keys, four lanes wide (h >= 4). Two strides
 * share one traversal while two remain. Each traversal enumerates the
 * lane groups of its compact index space and expands them with
 * insert_zero, so it parallelizes like the statevector kernels. The
 * chunk bodies copy their captures to locals: memcpy stores may alias
 * the closure, which would reload them after every store.
 */
void
strided_passes(std::int32_t* key, std::size_t size, std::size_t h,
               std::size_t h_end)
{
    for (; 4 * h <= h_end; h *= 4) {
        common::parallel_for(
            0, size / 16, kGrain / 16, [=](std::size_t b, std::size_t e) {
                std::int32_t* const table = key;
                const std::size_t step = h;
                for (std::size_t g = b; g < e; ++g) {
                    std::int32_t* k = table + insert_two_zeros(
                                                  4 * g, step - 1,
                                                  2 * step - 1);
                    const Lanes v0 = load(k), v1 = load(k + step);
                    const Lanes v2 = load(k + 2 * step);
                    const Lanes v3 = load(k + 3 * step);
                    const Lanes s0 = v0 + v1, d0 = v0 - v1;
                    const Lanes s1 = v2 + v3, d1 = v2 - v3;
                    store(k, s0 + s1);
                    store(k + step, d0 + d1);
                    store(k + 2 * step, s0 - s1);
                    store(k + 3 * step, d0 - d1);
                }
            });
    }
    if (h < h_end) {
        common::parallel_for(
            0, size / 8, kGrain / 8, [=](std::size_t b, std::size_t e) {
                std::int32_t* const table = key;
                const std::size_t step = h;
                for (std::size_t g = b; g < e; ++g) {
                    std::int32_t* k = table + insert_zero(4 * g, step - 1);
                    const Lanes x = load(k), y = load(k + step);
                    store(k, x + y);
                    store(k + step, x - y);
                }
            });
    }
}

/**
 * In-place Walsh–Hadamard transform of 2^n integer keys:
 * key[i] <- sum_j key[j] * (-1)^popcount(i & j). Integer arithmetic,
 * so the result is exact and independent of pass order and threads.
 * Strides inside an L1-sized block run block by block, skipping
 * blocks that are all zero: their passes leave them zero, and a
 * batch's few scattered signs leave most blocks so. The strides
 * across blocks then traverse the whole table, two per traversal.
 */
void
walsh_hadamard(std::int32_t* key, std::size_t size)
{
    if (size < 4) {
        if (size == 2) {
            const std::int32_t x = key[0], y = key[1];
            key[0] = x + y;
            key[1] = x - y;
        }
        return;
    }
    const std::size_t block = std::min(size, kGrain);
    common::parallel_for(
        0, size / block, 1, [=](std::size_t b, std::size_t e) {
            for (std::size_t blk = b; blk < e; ++blk) {
                std::int32_t* k = key + blk * block;
                if (all_zero(k, block))
                    continue;
                first_two_passes(k, block);
                strided_passes(k, block, 4, block);
            }
        });
    strided_passes(key, size, block, size);
}

} // namespace

void
DiagonalBatch::add_term(std::uint64_t mask, double coeff)
{
    auto [it, inserted] = index_.emplace(mask, masks_.size());
    if (inserted) {
        masks_.push_back(mask);
        coeffs_.push_back(coeff);
    } else {
        coeffs_[it->second] += coeff;
    }
    invalidate_cache();
}

void
DiagonalBatch::add_z(std::int32_t q)
{
    // diag(1, -1) = e^{i pi/2} diag(e^{-i pi/2}, e^{i pi/2}).
    constant_ += std::numbers::pi / 2.0;
    add_term(std::uint64_t(1) << q, -std::numbers::pi / 2.0);
}

void
DiagonalBatch::add_rz(std::int32_t q, double theta)
{
    add_term(std::uint64_t(1) << q, -theta / 2.0);
}

void
DiagonalBatch::add_rzz(std::int32_t a, std::int32_t b, double theta)
{
    fatal_unless(a != b, "rzz needs distinct qubits");
    add_term((std::uint64_t(1) << a) | (std::uint64_t(1) << b),
             -theta / 2.0);
}

void
DiagonalBatch::add_cphase(std::int32_t a, std::int32_t b, double theta)
{
    fatal_unless(a != b, "cphase needs distinct qubits");
    // theta * z_a z_b = theta/4 (1 - s_a - s_b + s_a s_b).
    constant_ += theta / 4.0;
    add_term(std::uint64_t(1) << a, -theta / 4.0);
    add_term(std::uint64_t(1) << b, -theta / 4.0);
    add_term((std::uint64_t(1) << a) | (std::uint64_t(1) << b),
             theta / 4.0);
}

void
DiagonalBatch::clear()
{
    constant_ = 0.0;
    masks_.clear();
    coeffs_.clear();
    index_.clear();
    invalidate_cache();
}

void
DiagonalBatch::invalidate_cache()
{
    baked_qubits_ = -1;
    keys_.clear();
    keys_.shrink_to_fit();
    dense_.clear();
    dense_.shrink_to_fit();
}

void
DiagonalBatch::ensure_keys(std::int32_t num_qubits) const
{
    if (baked_qubits_ == num_qubits)
        return;
    const std::size_t size = std::size_t(1) << num_qubits;
    const std::uint64_t* mask = masks_.data();
    const double* coeff = coeffs_.data();
    const std::size_t terms = masks_.size();

    // Uniform-magnitude batches (a cost layer with a single theta)
    // have an integer spectrum: angle = constant + g * sum_t ±s_t.
    uniform_ = terms > 0;
    quantum_ = terms > 0 ? std::abs(coeff[0]) : 0.0;
    for (std::size_t t = 1; t < terms && uniform_; ++t)
        uniform_ = std::abs(coeff[t]) == quantum_;

    if (uniform_) {
        // key(i) = sum_t sign_t * (-1)^popcount(i & m_t) is the
        // Walsh–Hadamard transform of the signs placed at their masks
        // (bits at or above n never meet an index bit).
        keys_.assign(size, 0);
        dense_.clear();
        for (std::size_t t = 0; t < terms; ++t)
            keys_[mask[t] & (size - 1)] += coeff[t] < 0.0 ? -1 : 1;
        walsh_hadamard(keys_.data(), size);
    } else {
        dense_.assign(size, 0.0);
        keys_.clear();
        double* out = dense_.data();
        common::parallel_for(
            0, size, kGrain, [=](std::size_t b, std::size_t e) {
                for (std::size_t t = 0; t < terms; ++t) {
                    const std::uint64_t m = mask[t];
                    const double c = coeff[t];
                    for (std::size_t i = b; i < e; ++i)
                        out[i] += (std::popcount(i & m) & 1) ? -c : c;
                }
            });
    }
    baked_qubits_ = num_qubits;
}

void
DiagonalBatch::apply(Statevector& sv, double scale) const
{
    if (empty())
        return;
    if (telemetry::enabled()) {
        static telemetry::Histogram& batch_size = telemetry::histogram(
            "permuq.sim.fusion.batch_size");
        batch_size.record(static_cast<double>(num_terms()));
    }
    auto& amp = sv.amplitudes_mut();
    double* a = reinterpret_cast<double*>(amp.data());
    ensure_keys(sv.num_qubits());
    const kernels::Table& t = kernels::active_counted();
    if (uniform_) {
        // key(i) is in {-T..T}; one complex multiply out of a phase
        // LUT per amplitude, no trig in the sweep. The LUT is split
        // into real/imag planes for the AVX2 tier's gathers.
        const std::int32_t span =
            static_cast<std::int32_t>(masks_.size());
        const std::size_t entries = 2 * static_cast<std::size_t>(span) + 1;
        std::vector<double> lut_re(entries), lut_im(entries);
        for (std::int32_t k = -span; k <= span; ++k) {
            const double ang = scale * (constant_ + quantum_ * k);
            lut_re[static_cast<std::size_t>(k + span)] = std::cos(ang);
            lut_im[static_cast<std::size_t>(k + span)] = std::sin(ang);
        }
        const double* lre = lut_re.data();
        const double* lim = lut_im.data();
        const std::int32_t* key = keys_.data();
        common::parallel_for(
            0, amp.size(), kGrain, [=, &t](std::size_t b, std::size_t e) {
                t.phase_lut(a, b, e, key, span, lre, lim);
            });
    } else {
        const double* angle = dense_.data();
        const double constant = constant_;
        common::parallel_for(
            0, amp.size(), kGrain, [=, &t](std::size_t b, std::size_t e) {
                t.phase_angles(a, b, e, angle, scale, constant);
            });
    }
}

DiagonalBatch::BakedView
DiagonalBatch::baked_view(std::int32_t num_qubits) const
{
    ensure_keys(num_qubits);
    BakedView view;
    view.uniform = uniform_;
    view.constant = constant_;
    view.quantum = quantum_;
    view.span = static_cast<std::int32_t>(masks_.size());
    view.keys = keys_.empty() ? nullptr : keys_.data();
    view.dense = dense_.empty() ? nullptr : dense_.data();
    return view;
}

std::vector<double>
DiagonalBatch::bake(std::int32_t num_qubits) const
{
    ensure_keys(num_qubits);
    std::vector<double> table(std::size_t(1) << num_qubits);
    double* out = table.data();
    const double constant = constant_;
    if (uniform_) {
        const double quantum = quantum_;
        const std::int32_t* key = keys_.data();
        common::parallel_for(
            0, table.size(), kGrain, [=](std::size_t b, std::size_t e) {
                for (std::size_t i = b; i < e; ++i)
                    out[i] = constant + quantum * key[i];
            });
    } else {
        const double* angle = dense_.data();
        common::parallel_for(
            0, table.size(), kGrain, [=](std::size_t b, std::size_t e) {
                for (std::size_t i = b; i < e; ++i)
                    out[i] = constant + angle[i];
            });
    }
    return table;
}

} // namespace permuq::sim
