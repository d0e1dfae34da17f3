#include "fuzz.h"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <optional>
#include <set>
#include <sstream>

#include "arch/noise_model.h"
#include "baselines/baselines.h"
#include "circuit/metrics.h"
#include "circuit/qasm.h"
#include "common/error.h"
#include "common/log/flight_recorder.h"
#include "common/rng.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "solver/astar.h"
#include "verify/equivalence.h"
#include "verify/mutate.h"
#include "verify/qasm_check.h"

namespace permuq::verify {

const std::vector<std::string>&
fuzz_compilers()
{
    static const std::vector<std::string> names = {
        "ours", "greedy", "ata",  "paulihedral", "qaim",
        "2qan", "sabre",  "olsq", "satmap",
    };
    return names;
}

graph::Graph
build_problem(const FuzzConfig& config)
{
    graph::Graph g(config.num_vertices);
    for (const auto& e : config.edges)
        g.add_edge(e.a, e.b);
    return g;
}

namespace {

circuit::Circuit
compile_circuit(const arch::CouplingGraph& device,
                const graph::Graph& problem, const FuzzConfig& config,
                const arch::NoiseModel* noise)
{
    const std::string& name = config.compiler;
    if (name == "ours") {
        core::CompilerOptions opts;
        opts.use_ata_prediction = true;
        opts.crosstalk_aware = config.crosstalk;
        opts.noise = noise;
        opts.alpha = config.alpha;
        opts.max_materialized_candidates = config.candidates;
        opts.snapshot_fraction = config.snapshot_fraction;
        opts.smart_placement = config.smart_placement;
        opts.num_placement_trials = config.placement_trials;
        opts.placement_seed = config.compiler_seed;
        opts.shard_regions = config.shard_regions;
        opts.shard_margin = config.shard_margin;
        core::CompileTier tier = core::CompileTier::Best;
        if (!core::parse_tier(config.tier, tier) ||
            tier == core::CompileTier::Auto)
            throw FatalError("unknown tier: " + config.tier);
        opts.tier = tier;
        return core::compile(device, problem, opts).circuit;
    }
    if (name == "greedy")
        return baselines::greedy_only(device, problem, noise).circuit;
    if (name == "ata")
        return baselines::ata_only(device, problem).circuit;
    if (name == "paulihedral")
        return baselines::paulihedral_like(device, problem).circuit;
    if (name == "qaim")
        return baselines::qaim_like(device, problem, noise).circuit;
    if (name == "2qan")
        return baselines::tqan_like(device, problem, config.compiler_seed)
            .circuit;
    if (name == "sabre")
        return baselines::sabre_like(device, problem).circuit;
    if (name == "olsq")
        return baselines::olsq_like(device, problem).circuit;
    if (name == "satmap")
        return baselines::satmap_like(device, problem).circuit;
    throw FatalError("unknown compiler: " + name);
}

/** Structural invariants every compiled circuit (even a semantically
 *  wrong mutant) must satisfy; returns "" or a description. */
std::string
metrics_invariants(const circuit::Circuit& circ,
                   const arch::NoiseModel* noise)
{
    auto m = circuit::compute_metrics(circ, noise);
    std::ostringstream os;
    if (m.compute_gates != circ.num_compute() ||
        m.swap_gates != circ.num_swaps()) {
        os << "metrics gate counts (" << m.compute_gates << ","
           << m.swap_gates << ") != circuit counts ("
           << circ.num_compute() << "," << circ.num_swaps() << ")";
        return os.str();
    }
    if (m.cx_count !=
        2 * m.compute_gates + 3 * m.swap_gates - 2 * m.merged_pairs) {
        os << "cx_count " << m.cx_count
           << " breaks the decomposition identity (compute="
           << m.compute_gates << " swap=" << m.swap_gates
           << " merged=" << m.merged_pairs << ")";
        return os.str();
    }
    if (m.depth != circ.depth()) {
        os << "metrics depth " << m.depth << " != circuit depth "
           << circ.depth();
        return os.str();
    }
    if (!(m.fidelity > 0.0 && m.fidelity <= 1.0)) {
        os << "fidelity " << m.fidelity << " outside (0, 1]";
        return os.str();
    }
    if (noise == nullptr && m.fidelity != 1.0) {
        os << "fidelity " << m.fidelity << " != 1 on ideal hardware";
        return os.str();
    }

    // Schedule legality: each qubit runs at most one op per cycle, the
    // recorded depth is the last busy cycle + 1, and no schedule may
    // beat an independent ASAP replay of the same op sequence. All
    // three hold in the presence of barrier().
    const auto n = static_cast<std::size_t>(
        circ.initial_mapping().num_physical());
    std::vector<Cycle> last(n, -1), busy(n, 0);
    Cycle max_end = 0, asap = 0;
    for (std::size_t i = 0; i < circ.ops().size(); ++i) {
        const auto& op = circ.ops()[i];
        const auto p = static_cast<std::size_t>(op.p);
        const auto q = static_cast<std::size_t>(op.q);
        if (op.cycle < 0 || op.cycle <= last[p] || op.cycle <= last[q]) {
            os << "op " << i << " at cycle " << op.cycle
               << " overlaps earlier work on its qubits";
            return os.str();
        }
        last[p] = last[q] = op.cycle;
        max_end = std::max(max_end, op.cycle + 1);
        Cycle start = std::max(busy[p], busy[q]);
        busy[p] = busy[q] = start + 1;
        asap = std::max(asap, start + 1);
    }
    if (!circ.ops().empty() && max_end != circ.depth()) {
        os << "last busy cycle + 1 = " << max_end << " != depth "
           << circ.depth();
        return os.str();
    }
    if (asap > circ.depth()) {
        os << "ASAP replay needs " << asap
           << " cycles but the circuit claims depth " << circ.depth();
        return os.str();
    }
    return "";
}

std::string
one_line(std::string s)
{
    std::replace(s.begin(), s.end(), '\n', ';');
    return s;
}

} // namespace

CheckResult
run_config(const FuzzConfig& config)
{
    CheckResult result;
    auto fail = [&](const char* kind, std::string why) {
        result.ok = false;
        result.kind = kind;
        result.failure = std::move(why);
    };
    try {
        const auto device =
            arch::named_device(config.arch, config.num_vertices);
        const auto problem = build_problem(config);
        std::optional<arch::NoiseModel> noise;
        if (config.noise)
            noise = arch::NoiseModel::calibrated(device,
                                                 config.noise_seed);
        const arch::NoiseModel* noise_ptr =
            noise ? &*noise : nullptr;

        // Flight-recorder phase markers: if the compiler or a checker
        // crashes, the dump's last verify.phase note names the stage.
        flight::note(flight::Kind::Note, "verify.phase", "compile",
                     config.num_vertices);
        circuit::Circuit circ =
            compile_circuit(device, problem, config, noise_ptr);

        // The exact-search baselines (olsq/satmap) pad the problem with
        // isolated vertices up to the device size; lift the problem to
        // the circuit's logical space so the checkers compare like with
        // like. A circuit with *fewer* logical qubits than the problem
        // is left alone for the checkers to flag.
        graph::Graph checked = problem;
        if (circ.initial_mapping().num_logical() >
            problem.num_vertices()) {
            graph::Graph padded(circ.initial_mapping().num_logical());
            for (const auto& e : problem.edges())
                padded.add_edge(e.a, e.b);
            checked = std::move(padded);
        }

        const bool mutated = config.inject != "none";
        if (mutated) {
            Mutation m;
            if (!parse_mutation(config.inject, m)) {
                fail("exception", "unknown mutation: " + config.inject);
                return result;
            }
            Xoshiro256 rng(config.inject_seed);
            try {
                circ = inject_mutation(device, circ, m, rng);
            } catch (const PanicError& e) {
                // Circuit admits no such mutant (e.g. swap-free);
                // not a checker failure.
                result.kind = "inject-unsupported";
                result.failure = e.what();
                return result;
            }
        }

        // Tier B and the legacy structural validator, cross-checked.
        flight::note(flight::Kind::Note, "verify.phase", "tier-b",
                     config.num_vertices);
        const auto symbolic = check_symbolic(device, checked, circ);
        const auto legacy = circuit::validate(circ, device, checked);
        if (symbolic.ok != legacy.ok) {
            fail("disagree",
                 "tier B says " + symbolic.summary() +
                     " but circuit::validate says " +
                     (legacy.ok ? "ok" : one_line(legacy.message)));
            return result;
        }

        // Tier A, cross-checked against Tier B.
        if (device.num_qubits() <= config.tier_a_max) {
            flight::note(flight::Kind::Note, "verify.phase", "tier-a",
                         config.num_vertices);
            ExactOptions exact_options;
            exact_options.max_qubits = config.tier_a_max;
            const auto exact =
                check_exact(device, checked, circ, exact_options);
            if (!exact.skipped) {
                result.tier_a_ran = true;
                if (exact.ok != symbolic.ok) {
                    fail("disagree",
                         std::string("tier A says ") +
                             (exact.ok ? "ok" : exact.message) +
                             " but tier B says " + symbolic.summary());
                    return result;
                }
                if (!exact.ok) {
                    fail("tier-a", exact.message +
                                       "; tier B agrees: " +
                                       symbolic.summary());
                    return result;
                }
            }
        }
        if (!symbolic.ok) {
            fail("tier-b", symbolic.summary());
            return result;
        }

        // Structural invariants and the QASM differential (apply to
        // mutants too: a mutant is wrong, not malformed).
        if (auto why = metrics_invariants(circ, noise_ptr); !why.empty()) {
            fail("metrics", why);
            return result;
        }
        for (bool merge : {true, false}) {
            circuit::QasmOptions qasm_options;
            qasm_options.merge_pairs = merge;
            qasm_options.full_qaoa = config.full_qaoa_qasm;
            const auto text = circuit::to_qasm(circ, qasm_options);
            const auto lint =
                qasm_lint(text, device, circ, qasm_options);
            if (!lint.empty()) {
                fail("qasm", std::string(merge ? "merged" : "unmerged") +
                                 " lowering: " + lint);
                return result;
            }
        }

        // Depth can never beat the A* optimum (sound circuits only:
        // a dropped-gate mutant legitimately undercuts the bound).
        // The solver requires a fully mapped device, so the problem is
        // padded with isolated vertices onto the circuit's empty
        // positions; riding pad qubits along never changes the depth,
        // so the padded optimum still lower-bounds the compiled depth.
        if (config.check_optimal && !mutated &&
            device.num_qubits() <= 16 && problem.num_edges() <= 128) {
            const std::int32_t nq = device.num_qubits();
            graph::Graph padded(nq);
            for (const auto& e : problem.edges())
                padded.add_edge(e.a, e.b);
            const auto& init = circ.initial_mapping();
            std::vector<PhysicalQubit> phys_of(
                static_cast<std::size_t>(nq), kInvalidQubit);
            std::vector<bool> occupied(static_cast<std::size_t>(nq),
                                       false);
            for (LogicalQubit l = 0; l < init.num_logical(); ++l) {
                phys_of[static_cast<std::size_t>(l)] =
                    init.physical_of(l);
                occupied[static_cast<std::size_t>(init.physical_of(l))] =
                    true;
            }
            LogicalQubit next = init.num_logical();
            for (PhysicalQubit p = 0; p < nq; ++p)
                if (!occupied[static_cast<std::size_t>(p)])
                    phys_of[static_cast<std::size_t>(next++)] = p;
            const circuit::Mapping full(phys_of, nq);
            solver::SolverOptions solver_options;
            solver_options.max_expansions = 50'000;
            const auto optimal = solver::solve_depth_optimal(
                device, padded, full, solver_options);
            if (optimal.solved && circ.depth() < optimal.depth) {
                std::ostringstream os;
                os << "compiled depth " << circ.depth()
                   << " beats the A* optimum " << optimal.depth;
                fail("depth-optimal", os.str());
                return result;
            }
        }
    } catch (const std::exception& e) {
        fail("exception", e.what());
    }
    return result;
}

FuzzConfig
random_config(std::uint64_t seed, std::int64_t index,
              std::int32_t max_vertices)
{
    SplitMix64 mix(seed);
    const std::uint64_t stream =
        mix.next() ^
        (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index + 1));
    Xoshiro256 rng(stream);

    FuzzConfig config;
    const auto& compilers = fuzz_compilers();
    config.compiler = compilers[rng.next_below(compilers.size())];
    const bool exact_search =
        config.compiler == "olsq" || config.compiler == "satmap";
    if (exact_search) {
        // Exact searches explode on large/dense instances; pair them
        // with the small devices the evaluation uses them on.
        static const char* small_archs[] = {"line", "grid", "hexagon"};
        config.arch = small_archs[rng.next_below(3)];
        config.num_vertices = static_cast<std::int32_t>(rng.next_int(4, 6));
    } else {
        const auto& archs = arch::named_devices();
        config.arch = archs[rng.next_below(archs.size())];
        std::int32_t hi = std::max(max_vertices, 4);
        if (config.arch == "lattice3d")
            hi = std::min(hi, 8); // next cube is 27 qubits
        config.num_vertices =
            static_cast<std::int32_t>(rng.next_int(4, hi));
    }

    const std::uint64_t family = rng.next_below(3);
    graph::Graph g(config.num_vertices);
    if (family == 0) {
        g = problem::clique(config.num_vertices);
    } else if (family == 1) {
        g = problem::random_graph(config.num_vertices,
                                  0.2 + 0.6 * rng.next_double(), rng());
    } else {
        // The configuration model can fail to converge for awkward
        // (n, degree) draws; fall back to an ER graph of the same
        // density rather than aborting the stream.
        const double density = 0.3 + 0.4 * rng.next_double();
        const std::uint64_t graph_seed = rng();
        try {
            g = problem::regular_graph_with_density(
                config.num_vertices, density, graph_seed);
        } catch (const std::exception&) {
            g = problem::random_graph(config.num_vertices, density,
                                      graph_seed);
        }
    }
    config.edges = g.edges();
    if (config.edges.empty())
        config.edges.push_back(VertexPair(0, 1));

    config.crosstalk = rng.next_double() < 0.25;
    config.noise = rng.next_double() < 0.3;
    config.noise_seed = rng();
    static const double alphas[] = {0.0, 0.3, 0.5, 0.7, 1.0};
    config.alpha = alphas[rng.next_below(5)];
    static const std::int32_t candidate_counts[] = {1, 2, 4, 8};
    config.candidates = candidate_counts[rng.next_below(4)];
    static const double snapshot_fractions[] = {0.02, 0.04, 0.1};
    config.snapshot_fraction = snapshot_fractions[rng.next_below(3)];
    config.smart_placement = rng.next_double() < 0.75;
    static const std::int32_t trial_counts[] = {1, 2, 4};
    config.placement_trials = trial_counts[rng.next_below(3)];
    config.compiler_seed = rng();
    // Tier axis for "ours": best keeps most of the stream so the deep
    // hybrid pipeline retains its coverage; fast/balanced ride along
    // so the single-pass pipeline and the reduced-budget clamps stay
    // under the same differential checks.
    if (config.compiler == "ours") {
        static const char* const tiers[] = {"best", "best", "balanced",
                                            "fast"};
        config.tier = tiers[rng.next_below(4)];
    }
    // Sharded compilation only applies to "ours" on bandable fabrics;
    // eligible configs are rare (~5% of the stream), so draw sharding
    // for half of them to keep the stitcher under steady differential
    // coverage.
    const bool bandable = config.arch == "line" ||
                          config.arch == "grid" ||
                          config.arch == "sycamore";
    if (config.compiler == "ours" && bandable &&
        rng.next_double() < 0.5) {
        static const std::int32_t region_counts[] = {2, 3, 4};
        config.shard_regions = region_counts[rng.next_below(3)];
        config.shard_margin =
            rng.next_double() < 0.5 ? 0 : 1;
    }
    config.full_qaoa_qasm = rng.next_double() < 0.5;
    config.check_optimal = config.num_vertices <= 6 &&
                           config.edges.size() <= 9 &&
                           config.arch != "mumbai" &&
                           rng.next_double() < 0.3;
    return config;
}

FuzzConfig
shrink_config(const FuzzConfig& config, const CheckResult& original,
              std::int64_t* steps)
{
    std::int64_t spent = 0;
    auto still_fails = [&](const FuzzConfig& candidate) {
        ++spent;
        const auto r = run_config(candidate);
        return !r.ok && r.kind == original.kind;
    };

    FuzzConfig best = config;
    if (!original.ok) {
        // Drop edges to a fixpoint.
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t i = 0;
                 i < best.edges.size() && best.edges.size() > 1; ++i) {
                FuzzConfig candidate = best;
                candidate.edges.erase(
                    candidate.edges.begin() +
                    static_cast<std::ptrdiff_t>(i));
                if (still_fails(candidate)) {
                    best = std::move(candidate);
                    changed = true;
                    --i;
                }
            }
        }

        // Compact away isolated vertices.
        std::vector<std::int32_t> remap(
            static_cast<std::size_t>(best.num_vertices), -1);
        for (const auto& e : best.edges)
            remap[static_cast<std::size_t>(e.a)] =
                remap[static_cast<std::size_t>(e.b)] = 0;
        std::int32_t next = 0;
        for (auto& r : remap)
            if (r == 0)
                r = next++;
        if (next >= 2 && next < best.num_vertices) {
            FuzzConfig candidate = best;
            candidate.num_vertices = next;
            for (auto& e : candidate.edges)
                e = VertexPair(remap[static_cast<std::size_t>(e.a)],
                               remap[static_cast<std::size_t>(e.b)]);
            if (still_fails(candidate))
                best = std::move(candidate);
        }

        // Reset option knobs to defaults where the failure survives.
        const FuzzConfig defaults;
        auto simplify = [&](auto&& mutate_fn) {
            FuzzConfig candidate = best;
            mutate_fn(candidate);
            if (still_fails(candidate))
                best = std::move(candidate);
        };
        if (best.noise)
            simplify([](FuzzConfig& c) { c.noise = false; });
        if (best.crosstalk)
            simplify([](FuzzConfig& c) { c.crosstalk = false; });
        if (best.placement_trials != defaults.placement_trials)
            simplify([&](FuzzConfig& c) {
                c.placement_trials = defaults.placement_trials;
            });
        if (best.candidates != defaults.candidates)
            simplify([&](FuzzConfig& c) {
                c.candidates = defaults.candidates;
            });
        if (best.snapshot_fraction != defaults.snapshot_fraction)
            simplify([&](FuzzConfig& c) {
                c.snapshot_fraction = defaults.snapshot_fraction;
            });
        if (best.shard_regions != defaults.shard_regions)
            simplify([&](FuzzConfig& c) {
                c.shard_regions = defaults.shard_regions;
            });
        if (best.shard_margin != defaults.shard_margin)
            simplify([&](FuzzConfig& c) {
                c.shard_margin = defaults.shard_margin;
            });
        if (best.tier != defaults.tier)
            simplify([&](FuzzConfig& c) { c.tier = defaults.tier; });
        if (best.alpha != defaults.alpha)
            simplify([&](FuzzConfig& c) { c.alpha = defaults.alpha; });
        if (!best.smart_placement)
            simplify([](FuzzConfig& c) { c.smart_placement = true; });
        if (best.full_qaoa_qasm)
            simplify([](FuzzConfig& c) { c.full_qaoa_qasm = false; });
        if (best.check_optimal && original.kind != "depth-optimal")
            simplify([](FuzzConfig& c) { c.check_optimal = false; });
    }
    if (steps != nullptr)
        *steps = spent;
    return best;
}

std::string
serialize_reproducer(const FuzzConfig& config, const CheckResult& result)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "# permuq-fuzz reproducer; replay with:\n"
        << "#   permuq-fuzz --replay <this-file>\n"
        << "version 1\n"
        << "arch " << config.arch << "\n"
        << "vertices " << config.num_vertices << "\n";
    for (const auto& e : config.edges)
        out << "edge " << e.a << " " << e.b << "\n";
    out << "compiler " << config.compiler << "\n"
        << "crosstalk " << static_cast<int>(config.crosstalk) << "\n"
        << "noise " << static_cast<int>(config.noise) << "\n"
        << "noise_seed " << config.noise_seed << "\n"
        << "alpha " << config.alpha << "\n"
        << "candidates " << config.candidates << "\n"
        << "snapshot_fraction " << config.snapshot_fraction << "\n"
        << "smart_placement " << static_cast<int>(config.smart_placement)
        << "\n"
        << "placement_trials " << config.placement_trials << "\n"
        << "compiler_seed " << config.compiler_seed << "\n"
        << "shard_regions " << config.shard_regions << "\n"
        << "shard_margin " << config.shard_margin << "\n"
        << "tier " << config.tier << "\n"
        << "full_qaoa_qasm " << static_cast<int>(config.full_qaoa_qasm)
        << "\n"
        << "check_optimal " << static_cast<int>(config.check_optimal)
        << "\n"
        << "tier_a_max " << config.tier_a_max << "\n"
        << "inject " << config.inject << "\n"
        << "inject_seed " << config.inject_seed << "\n";
    if (!result.kind.empty())
        out << "# failure " << result.kind << ": "
            << one_line(result.failure) << "\n";
    return out.str();
}

bool
parse_reproducer(std::istream& in, FuzzConfig& out, std::string* error)
{
    auto bad = [&](const std::string& why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    FuzzConfig config;
    config.edges.clear();
    bool saw_version = false;
    std::string line;
    std::int64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        const std::string where =
            "line " + std::to_string(line_no) + ": ";
        auto take = [&](auto& value) {
            fields >> value;
            return !fields.fail();
        };
        bool parsed = true;
        if (key == "version") {
            std::int64_t v = 0;
            parsed = take(v);
            if (parsed && v != 1)
                return bad(where + "unsupported version " +
                           std::to_string(v));
            saw_version = parsed;
        } else if (key == "arch") {
            parsed = take(config.arch);
        } else if (key == "vertices") {
            parsed = take(config.num_vertices);
        } else if (key == "edge") {
            std::int32_t a = -1, b = -1;
            parsed = take(a) && take(b);
            if (parsed)
                config.edges.push_back(VertexPair(a, b));
        } else if (key == "compiler") {
            parsed = take(config.compiler);
        } else if (key == "crosstalk") {
            parsed = take(config.crosstalk);
        } else if (key == "noise") {
            parsed = take(config.noise);
        } else if (key == "noise_seed") {
            parsed = take(config.noise_seed);
        } else if (key == "alpha") {
            parsed = take(config.alpha);
        } else if (key == "candidates") {
            parsed = take(config.candidates);
        } else if (key == "snapshot_fraction") {
            parsed = take(config.snapshot_fraction);
        } else if (key == "smart_placement") {
            parsed = take(config.smart_placement);
        } else if (key == "placement_trials") {
            parsed = take(config.placement_trials);
        } else if (key == "compiler_seed") {
            parsed = take(config.compiler_seed);
        } else if (key == "shard_regions") {
            parsed = take(config.shard_regions);
        } else if (key == "shard_margin") {
            parsed = take(config.shard_margin);
        } else if (key == "tier") {
            parsed = take(config.tier);
        } else if (key == "full_qaoa_qasm") {
            parsed = take(config.full_qaoa_qasm);
        } else if (key == "check_optimal") {
            parsed = take(config.check_optimal);
        } else if (key == "tier_a_max") {
            parsed = take(config.tier_a_max);
        } else if (key == "inject") {
            parsed = take(config.inject);
        } else if (key == "inject_seed") {
            parsed = take(config.inject_seed);
        } else {
            return bad(where + "unknown key \"" + key + "\"");
        }
        if (!parsed)
            return bad(where + "malformed value for \"" + key + "\"");
    }

    if (!saw_version)
        return bad("missing \"version\" line");
    const auto& archs = arch::named_devices();
    if (std::find(archs.begin(), archs.end(), config.arch) == archs.end())
        return bad("unknown architecture \"" + config.arch + "\"");
    const auto& compilers = fuzz_compilers();
    if (std::find(compilers.begin(), compilers.end(), config.compiler) ==
        compilers.end())
        return bad("unknown compiler \"" + config.compiler + "\"");
    if (config.tier != "fast" && config.tier != "balanced" &&
        config.tier != "best")
        return bad("unknown tier \"" + config.tier + "\"");
    if (config.num_vertices < 2 || config.num_vertices > 4096)
        return bad("vertices out of range");
    if (config.edges.empty())
        return bad("reproducer has no edges");
    std::set<VertexPair> seen;
    for (const auto& e : config.edges) {
        if (e.a < 0 || e.a >= e.b || e.b >= config.num_vertices)
            return bad("edge (" + std::to_string(e.a) + "," +
                       std::to_string(e.b) + ") out of range");
        if (!seen.insert(e).second)
            return bad("duplicate edge (" + std::to_string(e.a) + "," +
                       std::to_string(e.b) + ")");
    }
    if (config.tier_a_max < 0 || config.tier_a_max > 26)
        return bad("tier_a_max out of range");
    Mutation m;
    if (config.inject != "none" && !parse_mutation(config.inject, m))
        return bad("unknown mutation \"" + config.inject + "\"");
    out = std::move(config);
    return true;
}

} // namespace permuq::verify
