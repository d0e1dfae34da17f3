/**
 * @file
 * Configuration of the PermuQ compiler (paper §5/§6).
 */
#ifndef PERMUQ_CORE_OPTIONS_H
#define PERMUQ_CORE_OPTIONS_H

#include <cstdint>
#include <string>

#include "arch/noise_model.h"

namespace permuq::core {

/**
 * Latency/quality dial for one compilation (ROADMAP item 3, in the
 * spirit of Coqa's search-free pass vs Quilc's optimization levels):
 *
 *   Fast      single-pass, search-free pipeline: O(n + E) BFS-
 *             locality placement, one bounded greedy scheduling
 *             burst, one ATA-tail replay. No multi-start, no
 *             snapshot/restore, no candidate selector. Sub-
 *             millisecond at hundreds of qubits; falls back to
 *             Balanced on custom topologies (no ATA pattern).
 *   Balanced  the hybrid pipeline with a reduced search budget
 *             (single placement start, fewer materialized
 *             candidates, sparser snapshots).
 *   Best      the full hybrid search budget (paper-faithful; the
 *             historical default, bit for bit). It runs one
 *             placement start unless num_placement_trials > 1.
 *   Auto      resolve from the PERMUQ_TIER environment variable
 *             ("fast" | "balanced" | "best"), defaulting to Best.
 */
enum class CompileTier : std::int32_t
{
    Auto = 0,
    Fast,
    Balanced,
    Best,
};

/** Parse "fast|balanced|best|auto" into @p out; false otherwise. */
inline bool
parse_tier(const std::string& name, CompileTier& out)
{
    if (name == "fast")
        out = CompileTier::Fast;
    else if (name == "balanced")
        out = CompileTier::Balanced;
    else if (name == "best")
        out = CompileTier::Best;
    else if (name == "auto")
        out = CompileTier::Auto;
    else
        return false;
    return true;
}

/** Human-readable tier name. */
inline const char*
tier_name(CompileTier tier)
{
    switch (tier) {
    case CompileTier::Fast:
        return "fast";
    case CompileTier::Balanced:
        return "balanced";
    case CompileTier::Best:
        return "best";
    case CompileTier::Auto:
        break;
    }
    return "auto";
}

/** Tunables for one compilation. */
struct CompilerOptions
{
    /**
     * Latency/quality tier (see CompileTier). Auto resolves from
     * PERMUQ_TIER at compile() entry and defaults to Best, so the
     * historical behavior is untouched unless explicitly requested.
     */
    CompileTier tier = CompileTier::Auto;

    /**
     * Enable the ATA pattern-prediction component and the compiled-
     * circuit selector (§6.3/§6.4). Off = the pure greedy baseline of
     * Fig 17.
     */
    bool use_ata_prediction = true;

    /**
     * Model crosstalk between parallel adjacent couplers in the gate-
     * scheduling conflict graph (§6.2).
     */
    bool crosstalk_aware = false;

    /**
     * Optional calibration data; folds per-link CX error into SWAP
     * selection weights (§5.3) and into the selector's fidelity term.
     * Null = uniform (ideal) hardware.
     */
    const arch::NoiseModel* noise = nullptr;

    /** Depth-vs-error weight of the selector cost F (§6.4); the paper's
     *  alpha%. */
    double alpha = 0.5;

    /**
     * Number of greedy-prefix + ATA-tail hybrid candidates that are
     * fully materialized at the end (the best-estimated ones). The
     * pure-ATA candidate cc0 is always included, which preserves the
     * Theorem 6.1 bound.
     */
    std::int32_t max_materialized_candidates = 4;

    /**
     * Snapshot cadence: a hybrid candidate is recorded each time this
     * fraction of the remaining gates has been consumed since the last
     * snapshot (the paper snapshots at every mapping change; sampling
     * keeps 1024-qubit compilations near-linear).
     */
    double snapshot_fraction = 0.04;

    /** Hard cap on greedy cycles, as a multiple of the ATA bound. */
    double max_cycle_factor = 4.0;

    /**
     * Start from the connectivity-strength placement instead of the
     * identity mapping. Irrelevant for cliques (§4) but helps the
     * greedy component on sparse problems.
     */
    bool smart_placement = true;

    /**
     * Number of independent placement trials. Trial 0 always uses the
     * deterministic connectivity-strength placement (so 1 = the
     * historical single-start behavior, bit for bit); trials 1..k-1
     * perturb it with per-trial RNG jump streams derived from
     * placement_seed. Trials run in parallel on the shared thread pool
     * and the winner is chosen by (selector cost, trial index), so the
     * result is identical at any thread count.
     */
    std::int32_t num_placement_trials = 1;

    /** Base seed for the perturbed placement trials' jump streams. */
    std::uint64_t placement_seed = 0x9d2c5680f00dull;

    /**
     * Region-sharded hierarchical compilation (fabric scale). 0 = off
     * (the historical whole-device compiler, bit for bit). A value
     * k >= 2 asks the sharder to partition the device into ~k
     * contiguous unit bands, compile them concurrently, and stitch the
     * cross-band problem edges with the inter-region router. Only
     * Line/Grid/Sycamore devices band exactly; other architectures
     * fall back to the unsharded path. Fixed seed + fixed region count
     * gives bit-identical output at any thread count.
     */
    std::int32_t shard_regions = 0;

    /**
     * Minimum extra band height in units (boundary width): every band
     * must span at least 1 + shard_margin device units, and the
     * partitioner reduces the region count until that holds. Taller
     * bands keep more problem edges internal (fewer stitched ZZ terms,
     * shorter boundary routes) at the cost of larger per-region
     * compiles.
     */
    std::int32_t shard_margin = 0;
};

} // namespace permuq::core

#endif // PERMUQ_CORE_OPTIONS_H
