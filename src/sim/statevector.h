/**
 * @file
 * A dense statevector simulator for the end-to-end experiments
 * (paper §7.4), sized for the 10–20 qubit circuits the paper runs on
 * IBM Mumbai (26 qubits is the hard cap — 1 GiB of amplitudes).
 *
 * Every gate kernel iterates the compact 2^(n-1) (single-qubit) or
 * 2^(n-2) (two-qubit) block index space directly — no skip-scanning
 * of the full 2^n range — and parallelizes across the global thread
 * pool above a size threshold. The hot kernels dispatch through the
 * runtime-selected SIMD tier (sim/kernels.h, sim/simd.h); both tiers
 * are element-wise over disjoint blocks with identical per-element
 * arithmetic, so amplitudes are bit-identical at any thread count and
 * SIMD width. Reductions (norm_sq) compose the fixed-slice
 * deterministic reduction in common/parallel.h with the kernels'
 * fixed 4-lane accumulators.
 */
#ifndef PERMUQ_SIM_STATEVECTOR_H
#define PERMUQ_SIM_STATEVECTOR_H

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace permuq::sim {

/** Maximum supported qubit count (2^26 amplitudes = 1 GiB). */
inline constexpr std::int32_t kMaxSimQubits = 26;

/** Tile width (qubits) of the mixer's first pass: 2^12 amplitudes =
 *  64 KiB. That is more than a 32-48 KiB L1d, so a tile sits in L2
 *  while it takes all of its low-qubit RX butterflies: one register
 *  block pass plus one sweep per three remaining tile qubits. */
inline constexpr std::int32_t kMixerTileQubits = 12;

/** |0...0>-initialized dense state over n qubits. */
class Statevector
{
  public:
    using Amplitude = std::complex<double>;

    explicit Statevector(std::int32_t num_qubits);

    /** Exact amplitude-storage footprint of an n-qubit statevector in
     *  bytes (2^n * sizeof(Amplitude)); what the constructor
     *  allocates. */
    static std::size_t memory_bytes(std::int32_t num_qubits);

    std::int32_t num_qubits() const { return num_qubits_; }

    /**
     * Prepare |+>^n analytically (the H column applied to |0...0>):
     * every amplitude becomes 2^{-n/2} in a single fill sweep instead
     * of n Hadamard passes. This is how every QAOA/trajectory run
     * starts, so it removes n full-array sweeps per evaluation.
     */
    void reset_to_plus();

    /** @name Single-qubit gates
     *  @{ */
    void apply_h(std::int32_t q);
    void apply_x(std::int32_t q);
    void apply_y(std::int32_t q);
    void apply_z(std::int32_t q);
    void apply_rx(std::int32_t q, double theta);
    void apply_rz(std::int32_t q, double theta);
    /** @} */

    /**
     * Apply RX(theta) to every qubit — the QAOA mixer layer — in two
     * register-blocked passes instead of n full-state sweeps. Pass 1
     * walks 2^kMixerTileQubits-amplitude tiles once (a tile is closed
     * under its low-qubit butterflies): the SIMD tiers hold a block of
     * amplitudes in registers and apply the lowest qubits there (64
     * amplitudes and qubits 0-5 on AVX-512, 16 and 0-3 on AVX2), then
     * fold the rest of the tile's qubits three per in-cache sweep.
     * Pass 2 folds the high qubits three per traversal of the state,
     * so a 22-qubit mixer traverses the state 5 times instead of 22.
     * The mixer is compute-bound, so most of the gain is fewer loads
     * and stores per butterfly. Bit-identical to calling apply_rx on
     * qubits 0..n-1 in ascending order.
     */
    void apply_rx_all(double theta);

    /** @name Two-qubit gates
     *  @{ */
    void apply_cx(std::int32_t control, std::int32_t target);
    /**
     * Apply an arbitrary two-qubit unitary. @p u is row-major 4x4 over
     * the basis |q_b q_a> = |00>, |01>, |10>, |11> (qubit @p a is the
     * low bit).
     */
    void apply_two_qubit(const std::array<Amplitude, 16>& u,
                         std::int32_t a, std::int32_t b);
    void apply_swap(std::int32_t a, std::int32_t b);
    /** exp(-i theta/2 Z_a Z_b). */
    void apply_rzz(std::int32_t a, std::int32_t b, double theta);
    /** diag(1,1,1,e^{i theta}). */
    void apply_cphase(std::int32_t a, std::int32_t b, double theta);
    /** @} */

    /**
     * Multiply amplitude i by e^{i * scale * angles[i]}. @p angles must
     * have 2^n entries; this is the sweep a baked DiagonalBatch (see
     * sim/diagonal.h) reduces an entire layer of diagonal gates to.
     */
    void apply_phase_table(const std::vector<double>& angles,
                           double scale = 1.0);

    /** Measurement probabilities of all basis states. */
    std::vector<double> probabilities() const;

    /**
     * Draw one basis state index from the current distribution by a
     * linear scan (O(2^n) per shot). Reference sampler: multi-shot
     * callers should build a CdfSampler instead.
     */
    std::uint64_t sample(Xoshiro256& rng) const;

    /** Squared norm (should stay 1 up to rounding). */
    double norm_sq() const;

    const std::vector<Amplitude>& amplitudes() const { return amp_; }

    /** Mutable amplitude access for the exact-evolution integrator;
     *  the caller owns normalization. */
    std::vector<Amplitude>& amplitudes_mut() { return amp_; }

  private:
    std::int32_t num_qubits_;
    std::vector<Amplitude> amp_;
};

/**
 * One-time prefix-sum CDF over a statevector's probabilities; each
 * shot is then a binary search (O(n) instead of O(2^n)). The CDF is
 * accumulated left-to-right in the exact order Statevector::sample's
 * linear scan uses, so on the same RNG draw both samplers return the
 * same basis state bit-for-bit.
 */
class CdfSampler
{
  public:
    explicit CdfSampler(const Statevector& sv);

    /** Draw one basis state index (consumes one rng.next_double()). */
    std::uint64_t sample(Xoshiro256& rng) const;

  private:
    std::vector<double> cdf_; ///< cdf_[i] = sum of p[0..i]
};

} // namespace permuq::sim

#endif // PERMUQ_SIM_STATEVECTOR_H
