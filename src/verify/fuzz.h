/**
 * @file
 * Compiler fuzzing: randomized (problem x topology x options x
 * compiler) configurations, a battery of semantic and structural
 * checks over the compiled result, and greedy shrinking of failing
 * configurations into minimal self-contained reproducer files.
 *
 * A FuzzConfig is fully self-describing (the problem is an explicit
 * edge list, not a generator seed), so a reproducer file replays a
 * failure without any other state and shrinking can drop edges and
 * vertices one at a time.
 */
#ifndef PERMUQ_VERIFY_FUZZ_H
#define PERMUQ_VERIFY_FUZZ_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "arch/coupling_graph.h"
#include "common/types.h"
#include "graph/graph.h"

namespace permuq::verify {

/** One self-contained fuzz case: problem, device, compiler, options. */
struct FuzzConfig
{
    /** Architecture name from arch::named_devices(); the device is
     *  arch::named_device(arch, num_vertices). */
    std::string arch = "line";
    std::int32_t num_vertices = 4;
    /** Explicit problem edges (0 <= a < b < num_vertices). */
    std::vector<VertexPair> edges;
    /** Compiler under test: ours, greedy, ata, paulihedral, qaim,
     *  2qan, sabre, olsq, or satmap. */
    std::string compiler = "ours";

    /** @name CompilerOptions / baseline knobs
     *  @{ */
    bool crosstalk = false;
    bool noise = false;
    std::uint64_t noise_seed = 1;
    double alpha = 0.5;
    std::int32_t candidates = 4;
    double snapshot_fraction = 0.04;
    bool smart_placement = true;
    std::int32_t placement_trials = 1;
    /** Placement seed for "ours", annealing seed for "2qan". */
    std::uint64_t compiler_seed = 1;
    /** Region-sharded compilation ("ours" on line/grid/sycamore only;
     *  0 disables). Exercised so Tier A/B differential checks and
     *  shrinking cover the sharded path and its boundary stitcher. */
    std::int32_t shard_regions = 0;
    /** Minimum extra band height (boundary width) under sharding. */
    std::int32_t shard_margin = 0;
    /** Latency/quality tier for "ours": "fast", "balanced", or
     *  "best". Keeps the single-pass fast pipeline and the balanced
     *  budget clamps under the same differential checks as the full
     *  hybrid ("auto" is excluded: it reads PERMUQ_TIER, which would
     *  make reproducers environment-dependent). */
    std::string tier = "best";
    /** @} */

    /** Also lint the full-QAOA QASM surround (H / RX / measure). */
    bool full_qaoa_qasm = false;
    /** Compare the compiled depth against the A* optimum (only honored
     *  on devices the solver accepts; expensive). */
    bool check_optimal = false;
    /** Tier A cutoff in physical qubits. */
    std::int32_t tier_a_max = 14;

    /** Mutation to inject after compiling ("none" = sound circuit).
     *  A non-none value makes checker *silence* the bug. */
    std::string inject = "none";
    std::uint64_t inject_seed = 1;
};

/** Outcome of checking one configuration. */
struct CheckResult
{
    /** True when every applicable check passed. */
    bool ok = true;
    /** Failure class: "tier-a", "tier-b", "disagree" (checkers
     *  contradict each other), "metrics", "qasm", "depth-optimal",
     *  "exception", or "inject-unsupported". Empty when ok. */
    std::string kind;
    /** Human-readable description of the failure. */
    std::string failure;
    /** Whether the exact tier ran (device small enough). */
    bool tier_a_ran = false;
};

/** Compiler names random_config() draws from. */
const std::vector<std::string>& fuzz_compilers();

/** Deterministically derive configuration @p index of stream @p seed.
 *  Exact-search compilers (olsq/satmap) are paired with small problems
 *  and devices; everything else ranges up to @p max_vertices program
 *  qubits. */
FuzzConfig random_config(std::uint64_t seed, std::int64_t index,
                         std::int32_t max_vertices = 10);

/** Materialize the problem graph from the explicit edge list. */
graph::Graph build_problem(const FuzzConfig& config);

/** Compile per the config, inject the mutation if any, and run every
 *  applicable check. Never throws: internal errors surface as kind
 *  "exception". */
CheckResult run_config(const FuzzConfig& config);

/**
 * Greedily minimize @p config while run_config() keeps failing with
 * @p original.kind (so shrinking cannot hijack onto an unrelated
 * failure): drop edges to a fixpoint, drop isolated vertices, then
 * reset option knobs to defaults where the failure survives.
 * @p steps, when non-null, receives the number of candidate
 * evaluations spent.
 */
FuzzConfig shrink_config(const FuzzConfig& config,
                         const CheckResult& original,
                         std::int64_t* steps = nullptr);

/** Serialize a config (plus the failure as a comment) into the
 *  reproducer file format. */
std::string serialize_reproducer(const FuzzConfig& config,
                                 const CheckResult& result);

/** Parse a reproducer file. Returns false and sets @p error on any
 *  syntactic or semantic problem (unknown keys are rejected so stale
 *  files fail loudly). */
bool parse_reproducer(std::istream& in, FuzzConfig& out,
                      std::string* error);

} // namespace permuq::verify

#endif // PERMUQ_VERIFY_FUZZ_H
