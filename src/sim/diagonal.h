/**
 * @file
 * Diagonal-gate fusion for the statevector simulator.
 *
 * RZ, Z, RZZ and CPHASE are all diagonal in the computational basis,
 * so they commute freely with each other: an entire QAOA cost layer
 * (one RZZ per problem edge) can be accumulated symbolically and
 * applied to the state in a *single* sweep instead of one full-array
 * sweep per gate. On 2^20 amplitudes this turns |E| memory passes
 * into one, which is the dominant cost of the paper's §7.4 objective
 * evaluations.
 *
 * Every supported gate's phase angle decomposes over spin variables
 * s_q(i) = +1 if bit q of i is 0, else -1:
 *
 *     angle(i) = constant + sum_t coeff_t * prod_{q in mask_t} s_q(i)
 *
 * with masks of one bit (RZ/Z) or two bits (RZZ, and the quadratic
 * part of CPHASE).
 *
 * apply() goes through a lazily built per-basis-state key table.
 * When every |coeff_t| is the same value g (the common case: a QAOA
 * cost layer adds one RZZ(theta) per edge with a single theta, an
 * Ising Trotter step one RZZ(2 J dt) per edge), the angle spectrum is
 *
 *     angle(i) = constant + g * key(i),   key(i) in {-T..T} integer,
 *
 * so the sweep is one int32 load plus one complex multiply out of a
 * (2T+1)-entry phase look-up table — no trig per amplitude, and the
 * key table is reused across scales (QAOA reuses one edge-set batch
 * for every layer's gamma).
 *
 * The keys key(i) = sum_t sign_t * (-1)^popcount(i & mask_t) are the
 * Walsh–Hadamard transform of the term signs placed at their masks:
 * the bake adds sign_t at index mask_t & (2^n - 1) and runs n in-place
 * integer butterfly passes, O(n 2^n) for any term count T (4096-key
 * blocks that receive no sign skip their in-block passes). Integer
 * arithmetic makes the table exact, so it is the same at any thread
 * count. Mixed-magnitude batches fall back to a baked double-angle
 * table, summed term by term (O(T 2^n)), with one polar() per
 * amplitude.
 */
#ifndef PERMUQ_SIM_DIAGONAL_H
#define PERMUQ_SIM_DIAGONAL_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/statevector.h"

namespace permuq::sim {

/** An accumulated batch of commuting diagonal gates. */
class DiagonalBatch
{
  public:
    /** Z on qubit @p q (equals RZ(pi) up to global phase). */
    void add_z(std::int32_t q);

    /** RZ(theta) on qubit @p q: diag(e^{-i theta/2}, e^{i theta/2}). */
    void add_rz(std::int32_t q, double theta);

    /** exp(-i theta/2 Z_a Z_b). */
    void add_rzz(std::int32_t a, std::int32_t b, double theta);

    /** diag(1, 1, 1, e^{i theta}). */
    void add_cphase(std::int32_t a, std::int32_t b, double theta);

    /** True when no gate has been added since the last clear(). */
    bool
    empty() const
    {
        return masks_.empty() && constant_ == 0.0;
    }

    /** Number of distinct accumulated phase terms. */
    std::size_t num_terms() const { return masks_.size(); }

    void clear();

    /**
     * Apply the batch in one sweep: amp[i] *= e^{i scale * angle(i)}.
     * @p scale uniformly multiplies every accumulated angle (QAOA
     * reuses one edge-set batch across layers with scale = gamma_l).
     * The first apply() after an add_*() bakes the key table; repeat
     * applications at any scale reuse it.
     */
    void apply(Statevector& sv, double scale = 1.0) const;

    /**
     * Materialize angle(i) for all 2^num_qubits basis states. Apply
     * with Statevector::apply_phase_table(table, scale); callers that
     * need the raw spectrum (e.g. a MaxCut objective, which is an
     * affine function of the cost batch's angles) read it directly.
     */
    std::vector<double> bake(std::int32_t num_qubits) const;

    /**
     * Read-only view of the lazily baked spectrum, in the exact form
     * apply() consumes: angle(i) = constant + quantum * keys[i] when
     * uniform, else constant + dense[i]. Tests and the stage bench
     * read the baked keys through it. Pointers stay valid until the
     * next add_*()/clear().
     */
    struct BakedView
    {
        bool uniform = false;
        double constant = 0.0;
        double quantum = 0.0;
        /** Uniform spectrum key range: keys[i] is in [-span, span]. */
        std::int32_t span = 0;
        const std::int32_t* keys = nullptr;
        const double* dense = nullptr;
    };
    BakedView baked_view(std::int32_t num_qubits) const;

  private:
    void add_term(std::uint64_t mask, double coeff);
    void invalidate_cache();
    /** Build (or reuse) the per-basis-state key table for n qubits. */
    void ensure_keys(std::int32_t num_qubits) const;

    double constant_ = 0.0;
    std::vector<std::uint64_t> masks_;
    std::vector<double> coeffs_;
    /** mask -> index into masks_/coeffs_, so repeated gates on the
     *  same support merge instead of growing the term loop. */
    std::unordered_map<std::uint64_t, std::size_t> index_;

    /**
     * Lazily baked key table: angle(i) = constant_ + quantum_ *
     * keys_[i] when uniform_, else angle(i) = dense_[i] + constant_.
     * Mutable cache only — rebuilt deterministically from the terms,
     * never observable through the public API.
     */
    mutable std::int32_t baked_qubits_ = -1;
    mutable bool uniform_ = false;
    mutable double quantum_ = 0.0;
    mutable std::vector<std::int32_t> keys_;
    mutable std::vector<double> dense_;
};

} // namespace permuq::sim

#endif // PERMUQ_SIM_DIAGONAL_H
