/**
 * @file
 * Tests of the hybrid compiler (paper §5/§6): validity on every
 * architecture, the Theorem 6.1 never-worse-than-ATA guarantee, noise
 * and crosstalk handling, determinism, and the selector cost.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "baselines/baselines.h"
#include "circuit/fingerprint.h"
#include "circuit/metrics.h"
#include "common/log/log.h"
#include "common/telemetry/telemetry.h"
#include "core/compiler.h"
#include "core/crosstalk.h"
#include "core/placement.h"
#include "core/prediction.h"
#include "problem/generators.h"
#include "problem/hamiltonians.h"

namespace permuq::core {
namespace {

struct CompileCase
{
    arch::ArchKind kind;
    std::int32_t n;
    double density;
};

class CompileTest : public ::testing::TestWithParam<CompileCase>
{
};

TEST_P(CompileTest, ProducesValidCircuit)
{
    auto c = GetParam();
    auto device = arch::smallest_arch(c.kind, c.n);
    auto problem = problem::random_graph(c.n, c.density, 17);
    auto result = compile(device, problem);
    circuit::expect_valid(result.circuit, device, problem);
    EXPECT_GT(result.metrics.depth, 0);
    EXPECT_EQ(result.metrics.compute_gates, problem.num_edges());
}

TEST_P(CompileTest, NeverWorseThanPureAta)
{
    // Theorem 6.1: the selector output costs at most as much as cc0
    // (the pure solver-guided solution) under the cost function F. The
    // guarantee is exact against the compiler's own cc0 candidate; the
    // ata_only baseline used as a proxy here differs in two benign
    // ways (identity placement, dead swaps kept), so allow 2% slack.
    auto c = GetParam();
    auto device = arch::smallest_arch(c.kind, c.n);
    auto problem = problem::random_graph(c.n, c.density, 29);
    CompilerOptions options;
    // The theorem is about the full hybrid (the selector always holds
    // the cc0 candidate); the fast tier never materializes cc0, so the
    // bound must not shift under PERMUQ_TIER.
    options.tier = CompileTier::Best;
    auto ours = compile(device, problem, options);
    auto ata = baselines::ata_only(device, problem);
    double ours_cost = selector_cost(ours.metrics, ours.metrics, nullptr,
                                     options.alpha);
    double ata_cost = selector_cost(ata.metrics, ours.metrics, nullptr,
                                    options.alpha);
    EXPECT_LE(ours_cost, ata_cost * 1.02 + 1e-9);
}

TEST_P(CompileTest, LinearDepthBound)
{
    auto c = GetParam();
    auto device = arch::smallest_arch(c.kind, c.n);
    auto problem = problem::random_graph(c.n, c.density, 31);
    auto result = compile(device, problem);
    // Worst-case linear-depth guarantee (generous constant).
    EXPECT_LE(result.metrics.depth, 10 * device.num_qubits() + 64);
}

TEST_P(CompileTest, Deterministic)
{
    auto c = GetParam();
    auto device = arch::smallest_arch(c.kind, c.n);
    auto problem = problem::random_graph(c.n, c.density, 37);
    auto a = compile(device, problem);
    auto b = compile(device, problem);
    EXPECT_EQ(a.metrics.depth, b.metrics.depth);
    EXPECT_EQ(a.metrics.cx_count, b.metrics.cx_count);
    EXPECT_EQ(a.circuit.ops().size(), b.circuit.ops().size());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompileTest,
    ::testing::Values(CompileCase{arch::ArchKind::HeavyHex, 32, 0.3},
                      CompileCase{arch::ArchKind::HeavyHex, 64, 0.1},
                      CompileCase{arch::ArchKind::HeavyHex, 64, 0.5},
                      CompileCase{arch::ArchKind::Sycamore, 32, 0.3},
                      CompileCase{arch::ArchKind::Sycamore, 64, 0.5},
                      CompileCase{arch::ArchKind::Grid, 36, 0.3},
                      CompileCase{arch::ArchKind::Grid, 64, 0.7},
                      CompileCase{arch::ArchKind::Hexagon, 36, 0.3},
                      CompileCase{arch::ArchKind::Line, 16, 0.4}));

TEST(CompileTest, ReportAttributesPhasesPrefixTailAndCaches)
{
    auto device = arch::smallest_arch(arch::ArchKind::Sycamore, 32);
    auto problem = problem::random_graph(32, 0.3, 17);
    // Pin the tier: this test asserts balanced-path attribution
    // (schedule caches, greedy timing), which PERMUQ_TIER=fast would
    // route around. The fast tier has its own report test below.
    CompilerOptions options;
    options.tier = CompileTier::Best;
    auto result = compile(device, problem, options);
    const CompileReport& rep = result.report;

    EXPECT_FALSE(rep.tier_requested.empty());
    EXPECT_FALSE(rep.tier_served.empty());
    EXPECT_EQ(rep.selected, result.selected);
    EXPECT_EQ(rep.problem_qubits, problem.num_vertices());
    EXPECT_EQ(rep.problem_edges, problem.num_edges());
    EXPECT_EQ(rep.device_qubits, device.num_qubits());
    EXPECT_GT(rep.trials, 0);
    EXPECT_GT(rep.total_seconds, 0.0);
    EXPECT_GT(rep.greedy_seconds, 0.0);
    // One placement trial: the phases are disjoint intervals of the
    // compile, so they fit inside its total.
    EXPECT_GT(rep.setup_seconds, 0.0);
    EXPECT_LE(rep.setup_seconds + rep.placement_seconds +
                  rep.greedy_seconds + rep.materialize_seconds +
                  rep.stitch_seconds,
              rep.total_seconds);

    // Prefix + tail partition the op stream and its metrics exactly.
    const auto total_ops =
        static_cast<std::int64_t>(result.circuit.ops().size());
    EXPECT_EQ(rep.prefix_swaps + rep.prefix_computes, rep.prefix_ops);
    EXPECT_EQ(rep.prefix_ops + rep.tail_swaps + rep.tail_computes,
              total_ops);
    EXPECT_EQ(rep.prefix_swaps + rep.tail_swaps,
              result.metrics.swap_gates);
    EXPECT_EQ(rep.prefix_computes + rep.tail_computes,
              result.metrics.compute_gates);
    EXPECT_EQ(rep.prefix_depth + rep.tail_depth, result.metrics.depth);
    // The per-round rows account for the whole tail (when present).
    std::int64_t round_swaps = 0, round_computes = 0;
    for (const auto& round : rep.rounds) {
        round_swaps += round.swaps;
        round_computes += round.computes;
    }
    if (rep.ata_rounds ==
        static_cast<std::int64_t>(rep.rounds.size())) {
        EXPECT_EQ(round_swaps, rep.tail_swaps);
        EXPECT_EQ(round_computes, rep.tail_computes);
    }

    // A 32-qubit hybrid compile exercises the schedule cache.
    EXPECT_GT(rep.schedule_cache_hits + rep.schedule_cache_misses, 0);
    EXPECT_GT(rep.pull_cache_hits + rep.pull_cache_misses, 0);

    EXPECT_EQ(rep.depth, result.metrics.depth);
    EXPECT_EQ(rep.cx_count, result.metrics.cx_count);
    EXPECT_EQ(rep.swap_count, result.metrics.swap_gates);

    const std::string json = rep.to_json();
    EXPECT_NE(json.find("\"permuq_report\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"phase_seconds\": {\"setup\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"caches\""), std::string::npos);
}

TEST(CompileTest, FastTierReportCoversPrefixAndTail)
{
    auto device = arch::smallest_arch(arch::ArchKind::Grid, 36);
    auto problem = problem::random_graph(36, 0.4, 23);
    CompilerOptions options;
    options.tier = CompileTier::Fast;
    auto result = compile(device, problem, options);
    const CompileReport& rep = result.report;
    EXPECT_EQ(rep.tier_served, "fast");
    EXPECT_EQ(rep.prefix_ops + rep.tail_swaps + rep.tail_computes,
              static_cast<std::int64_t>(result.circuit.ops().size()));
    EXPECT_EQ(rep.prefix_depth + rep.tail_depth, result.metrics.depth);
    EXPECT_GT(rep.total_seconds, 0.0);
    EXPECT_GT(rep.setup_seconds, 0.0);
    EXPECT_LE(rep.setup_seconds + rep.placement_seconds +
                  rep.greedy_seconds + rep.materialize_seconds +
                  rep.stitch_seconds,
              rep.total_seconds);
}

TEST(CompileTest, OutputBitIdenticalWithObservabilityEnabled)
{
    // The acceptance bar for the observability layer: debug logging
    // and telemetry recording must not perturb compilation.
    auto device = arch::smallest_arch(arch::ArchKind::Sycamore, 32);
    auto problem = problem::random_graph(32, 0.5, 29);
    auto quiet = compile(device, problem);

    const logging::Level level_before = logging::level();
    logging::set_level(logging::Level::Debug);
    const std::string sink = ::testing::TempDir() +
                             "permuq_obs_identity.log";
    logging::set_sink_file(sink);
    telemetry::set_enabled(true);
    auto loud = compile(device, problem);
    telemetry::set_enabled(false);
    telemetry::Registry::instance().reset();
    logging::flush();
    logging::set_sink_stderr();
    logging::set_level(level_before);
    std::remove(sink.c_str());

    const auto& a = quiet.circuit.ops();
    const auto& b = loud.circuit.ops();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].p, b[i].p);
        EXPECT_EQ(a[i].q, b[i].q);
        EXPECT_EQ(a[i].cycle, b[i].cycle);
    }
    EXPECT_EQ(quiet.metrics.depth, loud.metrics.depth);
}

TEST(CompileTest, CliqueSelectsStructuredSolution)
{
    // On a clique input the rigid ATA pattern is near-optimal; the
    // selector must not return something drastically worse.
    auto device = arch::make_grid(5, 5);
    auto problem = graph::Graph::clique(25);
    auto ours = compile(device, problem);
    auto ata = baselines::ata_only(device, problem);
    circuit::expect_valid(ours.circuit, device, problem);
    EXPECT_LE(ours.metrics.depth, ata.metrics.depth * 3 / 2 + 4);
}

TEST(CompileTest, EmptyProblem)
{
    auto device = arch::make_grid(3, 3);
    graph::Graph problem(9);
    auto result = compile(device, problem);
    EXPECT_EQ(result.metrics.depth, 0);
    EXPECT_EQ(result.metrics.cx_count, 0);
}

TEST(CompileTest, SingleGate)
{
    auto device = arch::make_grid(3, 3);
    graph::Graph problem(9);
    problem.add_edge(0, 8);
    auto result = compile(device, problem);
    circuit::expect_valid(result.circuit, device, problem);
    EXPECT_GE(result.metrics.compute_gates, 1);
}

TEST(CompileTest, ProblemSmallerThanDevice)
{
    auto device = arch::make_sycamore(6, 6);
    auto problem = problem::random_graph(10, 0.4, 3);
    auto result = compile(device, problem);
    circuit::expect_valid(result.circuit, device, problem);
}

TEST(CompileTest, NoiseAwareStillValidAndPrefersGoodLinks)
{
    // Direct mechanism test (robust to route-length confounds): under
    // a high-contrast calibration, the error-weighted SWAP selection
    // must steer swaps toward lower-error links on average, without
    // inflating the gate count much.
    auto device = arch::smallest_arch(arch::ArchKind::HeavyHex, 32);
    auto noise =
        arch::NoiseModel::calibrated(device, 8, 1e-2, 2e-2, 1.2);
    auto mean_swap_link_error = [&](const circuit::Circuit& circ) {
        double sum = 0.0;
        std::int64_t swaps = 0;
        for (const auto& op : circ.ops()) {
            if (op.kind != circuit::OpKind::Swap)
                continue;
            sum += noise.cx_error(op.p, op.q);
            ++swaps;
        }
        return sum / std::max<std::int64_t>(1, swaps);
    };
    double err_aware = 0.0, err_blind = 0.0;
    double cx_aware = 0.0, cx_blind = 0.0;
    for (std::uint64_t seed = 11; seed < 19; ++seed) {
        auto problem = problem::random_graph(32, 0.3, seed);
        CompilerOptions options;
        options.noise = &noise;
        auto noisy = compile(device, problem, options);
        circuit::expect_valid(noisy.circuit, device, problem);
        auto plain = compile(device, problem);
        err_aware += mean_swap_link_error(noisy.circuit);
        err_blind += mean_swap_link_error(plain.circuit);
        cx_aware += static_cast<double>(
            circuit::compute_metrics(noisy.circuit).cx_count);
        cx_blind += static_cast<double>(
            circuit::compute_metrics(plain.circuit).cx_count);
    }
    EXPECT_LT(err_aware, err_blind);
    EXPECT_LT(cx_aware, cx_blind * 1.10);
}

TEST(CompileTest, CrosstalkAwareAvoidsParallelAdjacentGates)
{
    auto device = arch::make_grid(4, 4);
    auto problem = problem::random_graph(16, 0.5, 13);
    CompilerOptions options;
    options.crosstalk_aware = true;
    auto result = compile(device, problem, options);
    circuit::expect_valid(result.circuit, device, problem);

    // No two compute gates in the same cycle on crosstalking couplers.
    CrosstalkMap map(device);
    std::vector<const circuit::ScheduledOp*> computes;
    for (const auto& op : result.circuit.ops())
        if (op.kind == circuit::OpKind::Compute)
            computes.push_back(&op);
    std::unordered_map<VertexPair, std::int32_t, VertexPairHash> index;
    const auto& couplers = device.couplers();
    for (std::int32_t i = 0;
         i < static_cast<std::int32_t>(couplers.size()); ++i)
        index.emplace(couplers[static_cast<std::size_t>(i)], i);
    std::int64_t violations = 0;
    for (std::size_t i = 0; i < computes.size(); ++i) {
        for (std::size_t j = i + 1; j < computes.size(); ++j) {
            if (computes[i]->cycle != computes[j]->cycle)
                continue;
            std::int32_t ci = index.at(
                VertexPair(computes[i]->p, computes[i]->q));
            std::int32_t cj = index.at(
                VertexPair(computes[j]->p, computes[j]->q));
            const auto& nbrs = map.neighbors(ci);
            if (std::find(nbrs.begin(), nbrs.end(), cj) != nbrs.end())
                ++violations;
        }
    }
    // The greedy stage enforces this for the gates it schedules; the
    // ASAP re-packing and ATA tails may reintroduce a few overlaps, so
    // require a large reduction rather than zero.
    CompilerOptions off;
    off.crosstalk_aware = false;
    // (Just assert the aware run has bounded violations.)
    EXPECT_LE(violations,
              static_cast<std::int64_t>(computes.size()) / 4 + 2);
}

TEST(CompileTest, CustomArchitectureFallsBackToGreedy)
{
    // An irregular device (paper 6.5): a random connected coupling
    // graph with no unit decomposition. The compiler must fall back to
    // pure greedy and still produce a valid circuit.
    std::vector<VertexPair> couplers;
    // A ring with chords.
    for (std::int32_t i = 0; i < 12; ++i)
        couplers.emplace_back(i, (i + 1) % 12);
    couplers.emplace_back(0, 6);
    couplers.emplace_back(3, 9);
    couplers.emplace_back(2, 7);
    auto device = arch::make_custom(12, couplers, "ring-with-chords");
    auto problem = problem::random_graph(12, 0.4, 43);
    auto result = compile(device, problem);
    circuit::expect_valid(result.circuit, device, problem);
    EXPECT_EQ(result.selected, "greedy");
}

TEST(CompileTest, CustomArchitectureStallFallbackTerminates)
{
    // A barely-connected custom device (a star) forces heavy routing
    // through the hub; compilation must still terminate and validate.
    std::vector<VertexPair> couplers;
    for (std::int32_t i = 1; i < 10; ++i)
        couplers.emplace_back(0, i);
    auto device = arch::make_custom(10, couplers, "star");
    auto problem = problem::random_graph(10, 0.5, 47);
    auto result = compile(device, problem);
    circuit::expect_valid(result.circuit, device, problem);
}

TEST(SelectorCostTest, Behaviour)
{
    circuit::Metrics ref;
    ref.depth = 100;
    ref.cx_count = 1000;
    circuit::Metrics half = ref;
    half.depth = 50;
    half.cx_count = 500;
    EXPECT_NEAR(selector_cost(ref, ref, nullptr, 0.5), 1.0, 1e-12);
    EXPECT_NEAR(selector_cost(half, ref, nullptr, 0.5), 0.5, 1e-12);
    // Alpha weighs depth vs gates.
    circuit::Metrics deep = ref;
    deep.depth = 200;
    EXPECT_NEAR(selector_cost(deep, ref, nullptr, 1.0), 2.0, 1e-12);
    EXPECT_NEAR(selector_cost(deep, ref, nullptr, 0.0), 1.0, 1e-12);
}

TEST(PredictionTest, RegionsShrinkWithProgress)
{
    auto device = arch::make_grid(8, 8);
    auto problem = problem::random_graph(64, 0.2, 41);
    circuit::Mapping mapping(64, 64);
    std::vector<bool> done(static_cast<std::size_t>(problem.num_edges()),
                           false);
    auto full_plan = detect_regions(device, problem, done, mapping);
    // Execute most edges: keep only gates among logicals 0..7.
    for (std::int32_t e = 0; e < problem.num_edges(); ++e) {
        const auto& edge = problem.edges()[static_cast<std::size_t>(e)];
        if (edge.a >= 8 || edge.b >= 8)
            done[static_cast<std::size_t>(e)] = true;
    }
    auto small_plan = detect_regions(device, problem, done, mapping);
    EXPECT_LE(small_plan.max_positions, full_plan.max_positions);
    EXPECT_LT(estimate_tail_depth(device, small_plan),
              estimate_tail_depth(device, full_plan) + 1e-9);
}

TEST(PredictionTest, EmptyRemainderYieldsEmptyPlan)
{
    auto device = arch::make_grid(3, 3);
    auto problem = problem::random_graph(9, 0.3, 2);
    circuit::Mapping mapping(9, 9);
    std::vector<bool> done(static_cast<std::size_t>(problem.num_edges()),
                           true);
    auto plan = detect_regions(device, problem, done, mapping);
    EXPECT_TRUE(plan.regions.empty());
    EXPECT_EQ(tail_schedule(device, plan).num_slots(), 0);
}

TEST(PlacementTest, ConnectivityStrengthIsInjective)
{
    auto device = arch::make_heavy_hex(3, 7);
    auto problem = problem::random_graph(20, 0.4, 19);
    auto mapping = connectivity_strength_placement(device, problem);
    std::vector<bool> seen(
        static_cast<std::size_t>(device.num_qubits()), false);
    for (std::int32_t l = 0; l < 20; ++l) {
        PhysicalQubit p = mapping.physical_of(l);
        EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
        seen[static_cast<std::size_t>(p)] = true;
    }
}

TEST(PlacementTest, ReducesTotalDistanceVsIdentity)
{
    auto device = arch::make_grid(8, 8);
    auto problem = problem::random_graph(30, 0.2, 23);
    auto smart = connectivity_strength_placement(device, problem);
    circuit::Mapping identity(30, 64);
    auto total = [&](const circuit::Mapping& m) {
        std::int64_t sum = 0;
        for (const auto& e : problem.edges())
            sum += device.distance(m.physical_of(e.a),
                                   m.physical_of(e.b));
        return sum;
    };
    EXPECT_LT(total(smart), total(identity));
}

TEST(PlacementTest, MatchesPinnedMappings)
{
    // The golden compile hashes only reach connected devices of at
    // most 256 qubits. These pin the whole placement on a device of
    // two disconnected 4x4 grids, where every closeness and placement
    // sum counts unreachable pairs, and on ~300q regular devices.
    std::vector<VertexPair> couplers;
    for (std::int32_t q = 0; q < 32; ++q) {
        if (q % 4 != 3)
            couplers.emplace_back(q, q + 1);
        if (q % 16 < 12)
            couplers.emplace_back(q, q + 4);
    }
    struct Pin
    {
        arch::CouplingGraph device;
        graph::Graph problem;
        std::uint64_t hash;
    };
    const Pin pins[] = {
        {arch::make_custom(32, couplers, "two-grids"),
         problem::random_graph(24, 0.3, 5),
         0x7b8657bbcc3edd18ull},
        {arch::smallest_arch(arch::ArchKind::HeavyHex, 300),
         problem::random_graph(300, 0.02, 7),
         0x34f787fb1e96c866ull},
        {arch::smallest_arch(arch::ArchKind::Sycamore, 300),
         problem::random_graph(300, 0.02, 7),
         0x80855e773f9d8aaeull},
        {arch::smallest_arch(arch::ArchKind::Grid, 300),
         problem::random_graph(300, 0.02, 7),
         0x0edfceaabbf983a1ull},
    };
    for (const Pin& pin : pins) {
        // An op-free circuit's fingerprint hashes its whole mapping.
        auto mapping =
            connectivity_strength_placement(pin.device, pin.problem);
        EXPECT_EQ(circuit::fingerprint(circuit::Circuit(mapping)),
                  pin.hash)
            << pin.device.name();
    }
}

TEST(CrosstalkTest, GridPairsAreParallelAdjacent)
{
    auto device = arch::make_grid(3, 3);
    CrosstalkMap map(device);
    // On a grid every interior coupler has parallel neighbors.
    EXPECT_GT(map.total_pairs(), 0);
    const auto& couplers = device.couplers();
    for (std::int32_t c = 0;
         c < static_cast<std::int32_t>(couplers.size()); ++c) {
        for (std::int32_t other : map.neighbors(c)) {
            const auto& e1 = couplers[static_cast<std::size_t>(c)];
            const auto& e2 = couplers[static_cast<std::size_t>(other)];
            // Disjoint endpoints.
            EXPECT_NE(e1.a, e2.a);
            EXPECT_NE(e1.b, e2.b);
            EXPECT_NE(e1.a, e2.b);
            EXPECT_NE(e1.b, e2.a);
        }
    }
}

TEST(HamiltonianCompileTest, AllThreeModelsCompileValid)
{
    auto device = arch::smallest_arch(arch::ArchKind::HeavyHex, 64);
    for (const auto& problem :
         {problem::nnn_ising_1d(64), problem::nnn_xy_2d(8, 8),
          problem::nnn_heisenberg_3d(4, 4, 4)}) {
        auto result = compile(device, problem);
        circuit::expect_valid(result.circuit, device, problem);
    }
}

} // namespace
} // namespace permuq::core
