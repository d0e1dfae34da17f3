/**
 * @file
 * A 64-bit FNV-1a fingerprint of a compiled circuit, for tests and
 * benches that pin or compare compiler output: every op's kind,
 * physical and logical qubits and cycle, then the depth, the gate
 * counts and the final mapping. Equal circuits hash equal; the golden
 * hashes in tests/test_compile_determinism.cpp are values of this
 * function. Production code does not include this header.
 */
#ifndef PERMUQ_CIRCUIT_FINGERPRINT_H
#define PERMUQ_CIRCUIT_FINGERPRINT_H

#include <cstdint>

#include "circuit/circuit.h"

namespace permuq::circuit {

/** FNV-1a over @p c's op stream, depth, gate counts and final mapping. */
inline std::uint64_t
fingerprint(const Circuit& c)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    auto mix32 = [&mix](std::int32_t v) {
        mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
    };
    for (const auto& op : c.ops()) {
        mix(static_cast<std::uint64_t>(op.kind));
        mix32(op.p);
        mix32(op.q);
        mix32(op.a);
        mix32(op.b);
        mix32(op.cycle);
    }
    mix(static_cast<std::uint64_t>(c.depth()));
    mix(static_cast<std::uint64_t>(c.num_compute()));
    mix(static_cast<std::uint64_t>(c.num_swaps()));
    for (std::int32_t l = 0; l < c.final_mapping().num_logical(); ++l)
        mix32(c.final_mapping().physical_of(l));
    return h;
}

} // namespace permuq::circuit

#endif // PERMUQ_CIRCUIT_FINGERPRINT_H
