/**
 * @file
 * Shared helpers for the statevector kernels: compact block-index
 * expansion and the common parallel grain size. Kernels enumerate the
 * 2^(n-1) / 2^(n-2) block space directly and expand each block index
 * to amplitude indices by inserting zero bits at the gate's qubit
 * positions — no skip-scanning of the full 2^n range.
 */
#ifndef PERMUQ_SIM_KERNEL_UTIL_H
#define PERMUQ_SIM_KERNEL_UTIL_H

#include <cstddef>
#include <cstdint>

namespace permuq::sim {

/** Minimum elements per parallel chunk; below 2x this, run serially. */
inline constexpr std::size_t kKernelGrain = std::size_t(1) << 12;

/** Insert a zero bit: spread @p h so the bit covered by @p low_mask's
 *  top position becomes 0 (low_mask = (1 << pos) - 1). */
inline std::size_t
insert_zero(std::size_t h, std::size_t low_mask)
{
    return ((h & ~low_mask) << 1) | (h & low_mask);
}

/** Insert @p count zero bits at the position of @p low_mask's top
 *  bit: the base index of a block of 2^count amplitudes spaced
 *  low_mask + 1 apart (rx_group's consecutive-qubit groups). */
inline std::size_t
insert_zeros(std::size_t h, std::size_t low_mask, std::int32_t count)
{
    return ((h & ~low_mask) << count) | (h & low_mask);
}

/** Expand a 2^(n-2) block index over two qubit positions. @p lo_mask
 *  and @p hi_mask are (bit - 1) for the smaller and larger qubit bit
 *  respectively; the result has zeros at both positions. */
inline std::size_t
insert_two_zeros(std::size_t h, std::size_t lo_mask, std::size_t hi_mask)
{
    return insert_zero(insert_zero(h, lo_mask), hi_mask);
}

} // namespace permuq::sim

#endif // PERMUQ_SIM_KERNEL_UTIL_H
