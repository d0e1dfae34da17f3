/**
 * @file
 * Region-sharded hierarchical compilation for fabric-scale devices
 * (10k-100k qubits).
 *
 * The paper's unit decomposition (§3) makes regular architectures
 * self-similar: a horizontal band of a grid/Sycamore fabric is itself
 * a grid/Sycamore device, and the row-major qubit numbering makes the
 * band a contiguous physical-id range. The sharder exploits this:
 *
 *  1. partition the device into ~k contiguous unit bands (ShardPlan);
 *  2. assign logical qubit v to the band owning physical position v
 *     (the compiler's documented identity start, so sharding off/on
 *     agree on which program qubits are "near" each other);
 *  3. compile each band's induced subproblem independently on the
 *     band's exact sub-device — full PermuQ pipeline per region
 *     (greedy + ATA prediction + multi-start), concurrently on the
 *     shared thread pool;
 *  4. stitch: translate region circuits into the global id space
 *     (a single offset add per op), then route every cross-band
 *     problem edge with the inter-region router, which walks the
 *     endpoints together over BFS distances computed on demand
 *     (graph::BfsOracle — no dense all-pairs table is ever built).
 *
 * Determinism: regions are assembled in band order and the stitch
 * order is a sorted edge list, so a fixed seed and fixed region count
 * give bit-identical output at any thread count. Memory: the dense
 * DistanceMatrix is only ever built per band (k tables of (n/k)^2
 * instead of one n^2 table).
 */
#ifndef PERMUQ_CORE_SHARD_H
#define PERMUQ_CORE_SHARD_H

#include <cstdint>
#include <vector>

#include "arch/coupling_graph.h"
#include "core/compiler.h"
#include "core/options.h"
#include "graph/graph.h"

namespace permuq::core {

/** One contiguous physical band of the device. */
struct ShardRegion
{
    /** First global physical id of the band (bands are contiguous). */
    std::int32_t first_qubit = 0;
    /** Number of physical positions in the band. */
    std::int32_t num_qubits = 0;
    /** First device unit (row) of the band; -1 for Line devices,
     *  which band directly by qubit index. */
    std::int32_t first_unit = -1;
    /** Units (rows) spanned; -1 for Line devices. */
    std::int32_t num_units = -1;
};

/** A banding of the device into regions. */
struct ShardPlan
{
    /** True when the device banded into >= 2 exact sub-devices;
     *  false means the caller must use the unsharded compiler. */
    bool shardable = false;
    /** Bands in ascending physical order, covering every qubit. */
    std::vector<ShardRegion> regions;
};

/**
 * Partition @p device into at most @p want_regions contiguous bands
 * of at least 1 + @p margin units each (Line devices: qubits each).
 * Only Line, Grid, and Sycamore devices band exactly (Sycamore bands
 * are clamped to even rows so the zig-zag coupler parity of each
 * sub-device matches the fabric); every other architecture — and any
 * banding that would leave fewer than two regions — returns an
 * unshardable plan.
 */
ShardPlan plan_shards(const arch::CouplingGraph& device,
                      std::int32_t want_regions, std::int32_t margin);

/** Build the exact sub-device of one band of @p device. */
arch::CouplingGraph make_band_device(const arch::CouplingGraph& device,
                                     const ShardRegion& region);

/**
 * Sharded compile with a materialized result: equivalent in interface
 * to core::compile (metrics, selected = "sharded", wall time) and
 * verified by the same Tier A/B checkers. The region-local optimizers
 * run noise-blind (a NoiseModel indexes global links; the final
 * metrics still account for it); @p options.shard_regions chooses the
 * band count. Falls back to core::compile when the device or region
 * count is unshardable.
 */
CompileResult shard_compile(const arch::CouplingGraph& device,
                            const graph::Graph& problem,
                            const CompilerOptions& options);

} // namespace permuq::core

#endif // PERMUQ_CORE_SHARD_H
