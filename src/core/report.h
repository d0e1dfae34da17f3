/**
 * @file
 * Per-compile explain report: where the depth and the SWAPs of one
 * compiled circuit came from, how long each compiler phase took, and
 * how effective the memoization layers were.
 *
 * A CompileReport is assembled by every compile entry point (the
 * multi-start pipeline, the fast tier, and the sharded paths) and
 * returned inside CompileResult. Population is unconditional and
 * costs a handful of integer reads per compile — unlike telemetry it
 * has no enable gate, because everything it records is derived from
 * state the compiler computes anyway (op counts, cache tallies,
 * phase timers). Nothing in the report ever feeds back into
 * compilation decisions, so the compiled circuit is byte-identical
 * whether anyone reads the report or not.
 *
 * Exposed via `permuqc --report FILE` (JSON) and pretty-printed by
 * tools/report_summary.py.
 */
#ifndef PERMUQ_CORE_REPORT_H
#define PERMUQ_CORE_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace permuq::circuit {
class Circuit;
} // namespace permuq::circuit

namespace permuq::core {

/** Explain report of one compilation (see file comment). */
struct CompileReport
{
    // ------------------------------------------- tier and selection
    /** Tier the caller asked for, after Auto resolution ("fast",
     *  "balanced", "best"). */
    std::string tier_requested;
    /** Tier that actually served the request; differs from
     *  tier_requested only on fallback. */
    std::string tier_served;
    /** Human-readable reason when tier_served != tier_requested;
     *  empty otherwise. */
    std::string fallback_reason;
    /** Winning candidate: "greedy", "ata", "hybrid", "fast",
     *  "sharded". */
    std::string selected;

    // ------------------------------------------------ problem shape
    std::int32_t problem_qubits = 0;
    std::int64_t problem_edges = 0;
    std::int32_t device_qubits = 0;

    // ------------------------------------------------- search shape
    std::int32_t trials = 0;
    std::int32_t snapshots = 0;
    /** Hybrid candidates fully materialized by the selector. */
    std::int32_t candidates = 0;

    // ------------------------------------------- phase wall times
    // setup is the work before placement: the device's all-pairs
    // distance table, the EdgeTable and DeviceIndex, and the
    // CrosstalkMap when crosstalk is on. placement covers every
    // trial's initial-mapping construction; greedy/materialize are
    // the winning trial's engine run and candidate
    // materialization+selection; stitch is the sharded cross-band
    // router. total is the whole compile() call. Placement sums over
    // trials and a sharded compile sums each phase over its bands, so
    // the phases fit inside total only when those run on one thread.
    double setup_seconds = 0.0;
    double placement_seconds = 0.0;
    double greedy_seconds = 0.0;
    double materialize_seconds = 0.0;
    double stitch_seconds = 0.0;
    double total_seconds = 0.0;

    // ------------------------------ greedy-prefix / ATA-tail split
    // The winning circuit is a greedy prefix completed by an ATA
    // tail (prefix_ops == total ops when pure greedy won). Depth
    // attribution uses the ASAP cycles the circuit already stores:
    // prefix_depth is the critical path of the prefix alone, and
    // tail_depth is the increment the tail added on top (tail ops
    // overlap the prefix under ASAP scheduling, so the two add up
    // to the final depth by construction).
    std::int64_t prefix_ops = 0;
    std::int64_t prefix_swaps = 0;
    std::int64_t prefix_computes = 0;
    std::int64_t prefix_depth = 0;
    std::int64_t tail_swaps = 0;
    std::int64_t tail_computes = 0;
    std::int64_t tail_depth = 0;

    /** One ATA tail round: a maximal run of SWAP slots plus the
     *  compute phase it enables. */
    struct AtaRound
    {
        std::int64_t swaps = 0;
        std::int64_t computes = 0;
    };
    /** Cap on stored per-round rows (ata_rounds keeps the true
     *  total; a fabric-scale tail can run to thousands of rounds). */
    static constexpr std::size_t kMaxAtaRounds = 64;
    std::int32_t ata_rounds = 0;
    std::vector<AtaRound> rounds;

    // --------------------------------------------- cache behavior
    std::int64_t schedule_cache_hits = 0;
    std::int64_t schedule_cache_misses = 0;
    std::int64_t pull_cache_hits = 0;
    std::int64_t pull_cache_misses = 0;

    // ----------------------------------------- shard attribution
    /** One compiled band of a sharded compile. */
    struct Band
    {
        std::int32_t index = 0;
        std::int32_t qubits = 0;
        std::int64_t edges = 0;
        std::int64_t depth = 0;
        std::int64_t swaps = 0;
        std::int64_t cx = 0;
        double seconds = 0.0;
        std::string selected;
        /** Tier the band compile was served at. The sharder resolves
         *  the tier once and stamps it into every band, so this
         *  differs from the top-level tier_served only when a band
         *  individually fell back (e.g. fast on an unbandable
         *  sub-device shape). */
        std::string tier;
    };
    /** 0 = unsharded compile. */
    std::int32_t shard_regions = 0;
    std::vector<Band> bands;
    std::int64_t stitched_edges = 0;
    std::int64_t stitch_swaps = 0;
    std::int64_t stitch_depth = 0;

    // ------------------------------------------------ sweep summary
    /** Angle-sweep summary, populated by permuqc --sweep (the
     *  compiler itself never fills it; points == 0 means no sweep
     *  ran and the JSON section stays zeroed). */
    struct Sweep
    {
        std::int64_t points = 0;
        std::int32_t batch = 0;
        std::int32_t layers = 0;
        /** "ideal" | "noisy". */
        std::string mode;
        double best_gamma = 0.0;
        double best_beta = 0.0;
        double best_value = 0.0;
        double seconds = 0.0;
        double points_per_sec = 0.0;
        /** Buffer bytes the sweep owns beyond its objectives (0:
         *  every point runs in its objective's scratch state). */
        std::int64_t memory_bytes = 0;
        /** Multi-problem mode (1 = single problem). */
        std::int32_t problems = 1;
        std::int32_t problems_in_flight = 1;
        /** Cached state of the swept objectives (statevector plus cut
         *  spectrum each), all held for the whole sweep. */
        std::int64_t peak_memory_bytes = 0;
    };
    Sweep sweep;

    // ------------------------------------------------ final result
    std::int64_t depth = 0;
    std::int64_t cx_count = 0;
    std::int64_t swap_count = 0;
    double fidelity = 1.0;

    /** Serialize as a single JSON object (what --report writes). */
    std::string to_json() const;
};

/**
 * Fill the prefix/tail and per-ATA-round fields of @p report by
 * walking @p circuit's op stream: ops [0, prefix_ops) are the greedy
 * prefix, the rest the ATA tail. A new tail round starts at every
 * Compute->SWAP transition (the replay emits each round as one SWAP
 * phase followed by the compute phase it enables). @p prefix_ops is
 * clamped to the op count.
 */
void attribute_prefix_tail(const circuit::Circuit& circuit,
                           std::int64_t prefix_ops,
                           CompileReport& report);

} // namespace permuq::core

#endif // PERMUQ_CORE_REPORT_H
