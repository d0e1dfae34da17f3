/**
 * @file
 * Region-sharded hierarchical compilation: band planning on the
 * regular architectures (including the Sycamore parity clamp and the
 * degenerate-device edge cases), semantic correctness of sharded
 * output under the Tier B symbolic checker, determinism across thread
 * counts and across repeated runs, the fallback contract on
 * unshardable devices, and the arena/BFS building blocks underneath.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/coupling_graph.h"
#include "circuit/fingerprint.h"
#include "circuit/metrics.h"
#include "circuit/op_arena.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/compiler.h"
#include "core/shard.h"
#include "graph/components.h"
#include "graph/distance.h"
#include "problem/generators.h"
#include "verify/equivalence.h"

namespace permuq {
namespace {

// ---------------------------------------------------------------- plan

TEST(ShardPlan, GridBandsAreContiguousAndCoverTheDevice)
{
    auto device = arch::make_grid(8, 8);
    auto plan = core::plan_shards(device, 4, 0);
    ASSERT_TRUE(plan.shardable);
    ASSERT_EQ(plan.regions.size(), 4u);
    std::int32_t next = 0;
    for (const auto& region : plan.regions) {
        EXPECT_EQ(region.first_qubit, next);
        EXPECT_EQ(region.num_qubits, region.num_units * 8);
        next += region.num_qubits;
    }
    EXPECT_EQ(next, device.num_qubits());
}

TEST(ShardPlan, SycamoreBandsStartOnEvenRows)
{
    auto device = arch::make_sycamore(10, 6);
    auto plan = core::plan_shards(device, 3, 0);
    ASSERT_TRUE(plan.shardable);
    ASSERT_GE(plan.regions.size(), 2u);
    for (const auto& region : plan.regions)
        EXPECT_EQ(region.first_unit % 2, 0) << "zig-zag parity clamp";
}

TEST(ShardPlan, LineBandsByQubitRange)
{
    auto device = arch::make_line(20);
    auto plan = core::plan_shards(device, 4, 0);
    ASSERT_TRUE(plan.shardable);
    EXPECT_EQ(plan.regions.size(), 4u);
    EXPECT_EQ(plan.regions[0].num_qubits, 5);
}

TEST(ShardPlan, MarginRaisesMinimumBandHeight)
{
    auto device = arch::make_grid(8, 4);
    // Margin 3 => bands of >= 4 rows => at most 2 regions.
    auto plan = core::plan_shards(device, 8, 3);
    ASSERT_TRUE(plan.shardable);
    EXPECT_EQ(plan.regions.size(), 2u);
    for (const auto& region : plan.regions)
        EXPECT_GE(region.num_units, 4);
}

TEST(ShardPlan, UnshardableDevicesAndDegenerateCounts)
{
    // Irregular and bridge-qubit architectures never band.
    EXPECT_FALSE(core::plan_shards(arch::make_heavy_hex(3, 7), 2, 0)
                     .shardable);
    // A single row cannot make two bands.
    EXPECT_FALSE(core::plan_shards(arch::make_grid(1, 16), 4, 0)
                     .shardable);
    // A single-qubit device cannot shard at all.
    EXPECT_FALSE(core::plan_shards(arch::make_line(1), 2, 0).shardable);
    // Region count below two means "off".
    EXPECT_FALSE(core::plan_shards(arch::make_grid(8, 8), 1, 0)
                     .shardable);
}

TEST(ShardPlan, BandDevicesAreExactSubfabrics)
{
    auto device = arch::make_sycamore(8, 5);
    auto plan = core::plan_shards(device, 4, 0);
    ASSERT_TRUE(plan.shardable);
    for (const auto& region : plan.regions) {
        auto band = core::make_band_device(device, region);
        ASSERT_EQ(band.num_qubits(), region.num_qubits);
        // Every band coupler must be a device coupler under the
        // offset translation (exact sub-device, not an approximation).
        for (const auto& link : band.connectivity().edges()) {
            EXPECT_TRUE(device.connectivity().has_edge(
                link.a + region.first_qubit,
                link.b + region.first_qubit))
                << "band coupler " << link.a << "-" << link.b
                << " missing at offset " << region.first_qubit;
        }
    }
}

// ------------------------------------------------------- compile + verify

TEST(ShardCompile, SymbolicallyCorrectOnGrid)
{
    auto device = arch::make_grid(8, 8);
    auto problem = problem::fabric_local_graph(8, 8, 0.5, 2, 7);
    core::CompilerOptions options;
    options.shard_regions = 4;
    auto result = core::compile(device, problem, options);
    EXPECT_EQ(result.selected, "sharded");
    auto report = verify::check_symbolic(device, problem, result.circuit);
    EXPECT_TRUE(report.ok) << report.summary();
    circuit::expect_valid(result.circuit, device, problem);
}

TEST(ShardCompile, SymbolicallyCorrectOnSycamoreAndLine)
{
    {
        auto device = arch::make_sycamore(8, 4);
        auto problem = problem::fabric_local_graph(8, 4, 0.6, 2, 11);
        core::CompilerOptions options;
        options.shard_regions = 3;
        auto result = core::compile(device, problem, options);
        EXPECT_EQ(result.selected, "sharded");
        auto report =
            verify::check_symbolic(device, problem, result.circuit);
        EXPECT_TRUE(report.ok) << report.summary();
    }
    {
        auto device = arch::make_line(24);
        auto problem = problem::fabric_local_graph(1, 24, 0.5, 3, 13);
        core::CompilerOptions options;
        options.shard_regions = 3;
        auto result = core::compile(device, problem, options);
        EXPECT_EQ(result.selected, "sharded");
        auto report =
            verify::check_symbolic(device, problem, result.circuit);
        EXPECT_TRUE(report.ok) << report.summary();
    }
}

TEST(ShardCompile, ProblemSmallerThanDeviceLeavesEmptyBands)
{
    auto device = arch::make_grid(8, 4);
    // Only 6 program qubits: bands 2..3 own no logicals at all.
    auto problem = problem::fabric_local_graph(2, 3, 0.9, 2, 3);
    core::CompilerOptions options;
    options.shard_regions = 4;
    auto result = core::compile(device, problem, options);
    EXPECT_EQ(result.selected, "sharded");
    auto report = verify::check_symbolic(device, problem, result.circuit);
    EXPECT_TRUE(report.ok) << report.summary();
}

TEST(ShardCompile, DisconnectedProblemStitches)
{
    auto device = arch::make_grid(6, 4);
    // Two far-apart cliques plus isolated vertices in between.
    graph::Graph problem(24);
    problem.add_edge(0, 1);
    problem.add_edge(1, 2);
    problem.add_edge(0, 2);
    problem.add_edge(21, 22);
    problem.add_edge(22, 23);
    // One long-range cross-band edge forces a multi-hop stitch route.
    problem.add_edge(2, 21);
    core::CompilerOptions options;
    options.shard_regions = 3;
    auto result = core::compile(device, problem, options);
    auto report = verify::check_symbolic(device, problem, result.circuit);
    EXPECT_TRUE(report.ok) << report.summary();
}

TEST(ShardCompile, FallsBackOnUnshardableDevice)
{
    auto device = arch::make_heavy_hex(3, 7);
    auto problem = problem::random_graph(12, 0.3, 5);
    core::CompilerOptions sharded;
    sharded.shard_regions = 4;
    core::CompilerOptions off;
    auto a = core::compile(device, problem, sharded);
    auto b = core::compile(device, problem, off);
    EXPECT_EQ(circuit::fingerprint(a.circuit),
              circuit::fingerprint(b.circuit));
    EXPECT_NE(a.selected, "sharded");
}

TEST(ShardCompile, DeterministicAcrossThreadCountsAndReruns)
{
    auto device = arch::make_grid(8, 6);
    auto problem = problem::fabric_local_graph(8, 6, 0.5, 2, 3);
    core::CompilerOptions options;
    options.shard_regions = 4;
    options.num_placement_trials = 3;

    const int saved = common::num_threads();
    common::set_num_threads(1);
    auto serial = core::compile(device, problem, options);
    common::set_num_threads(4);
    auto parallel = core::compile(device, problem, options);
    auto parallel2 = core::compile(device, problem, options);
    common::set_num_threads(saved);

    EXPECT_EQ(circuit::fingerprint(serial.circuit),
              circuit::fingerprint(parallel.circuit));
    EXPECT_EQ(circuit::fingerprint(parallel.circuit),
              circuit::fingerprint(parallel2.circuit));
}

TEST(ShardCompile, MatchesGoldenFingerprint)
{
    // The golden hashes in test_compile_determinism.cpp never shard;
    // this pins one sharded compile end to end: band placement and
    // compiles, then the stitcher's routes for every cross-band edge.
    auto device = arch::make_grid(16, 16);
    auto problem = problem::random_graph(256, 0.02, 12345);
    core::CompilerOptions options;
    options.tier = core::CompileTier::Best;
    options.shard_regions = 4;
    auto result = core::compile(device, problem, options);
    ASSERT_EQ(result.selected, "sharded");
    EXPECT_EQ(circuit::fingerprint(result.circuit), 0x51a0ab1523918746ull);
}

TEST(ShardCompile, ReportAttributesBandsAndStitch)
{
    auto device = arch::make_grid(8, 8);
    auto problem = problem::fabric_local_graph(8, 8, 0.5, 2, 7);
    core::CompilerOptions options;
    options.shard_regions = 4;
    auto result = core::compile(device, problem, options);
    ASSERT_EQ(result.selected, "sharded");
    const core::CompileReport& rep = result.report;

    EXPECT_EQ(rep.selected, "sharded");
    EXPECT_EQ(rep.shard_regions, 4);
    ASSERT_EQ(rep.bands.size(), 4u);
    std::int64_t band_swaps = 0, band_edges = 0;
    for (std::size_t i = 0; i < rep.bands.size(); ++i) {
        const auto& band = rep.bands[i];
        EXPECT_EQ(band.index, static_cast<std::int32_t>(i));
        EXPECT_GT(band.qubits, 0);
        if (band.cx > 0) {
            EXPECT_GT(band.depth, 0) << "band " << i;
        }
        band_swaps += band.swaps;
        band_edges += band.edges;
    }
    // Bands plus the stitch tail account for every swap, and band
    // edges plus stitched cross-band edges cover the problem.
    EXPECT_EQ(band_swaps + rep.stitch_swaps,
              result.metrics.swap_gates);
    EXPECT_EQ(band_edges + rep.stitched_edges,
              static_cast<std::int64_t>(problem.num_edges()));
    EXPECT_GT(rep.stitched_edges, 0);
    EXPECT_GT(rep.schedule_cache_hits + rep.schedule_cache_misses +
                  rep.pull_cache_hits + rep.pull_cache_misses,
              0);
    EXPECT_GT(rep.trials, 0);
    EXPECT_GT(rep.total_seconds, 0.0);
    EXPECT_EQ(rep.depth, result.metrics.depth);

    const std::string json = rep.to_json();
    EXPECT_NE(json.find("\"bands\": ["), std::string::npos);
    EXPECT_NE(json.find("\"stitched_edges\""), std::string::npos);
}

TEST(ShardCompile, ReportPhasesIncludeSetupAndFitTotal)
{
    // Bands compile one after another on one thread, so the phases
    // summed over bands are disjoint intervals of the sharded total.
    const int saved = common::num_threads();
    common::set_num_threads(1);
    auto device = arch::make_grid(8, 8);
    auto problem = problem::fabric_local_graph(8, 8, 0.5, 2, 7);
    core::CompilerOptions options;
    options.shard_regions = 4;
    auto result = core::compile(device, problem, options);
    common::set_num_threads(saved);
    ASSERT_EQ(result.selected, "sharded");
    const core::CompileReport& rep = result.report;
    EXPECT_GT(rep.setup_seconds, 0.0);
    EXPECT_LE(rep.setup_seconds + rep.placement_seconds +
                  rep.greedy_seconds + rep.materialize_seconds +
                  rep.stitch_seconds,
              rep.total_seconds);
}

TEST(ShardCompile, ResolvedTierReachesEveryBand)
{
    auto device = arch::make_grid(8, 8);
    auto problem = problem::fabric_local_graph(8, 8, 0.5, 2, 7);
    core::CompilerOptions options;
    options.shard_regions = 4;
    options.tier = core::CompileTier::Fast;
    auto result = core::compile(device, problem, options);
    ASSERT_EQ(result.selected, "sharded");
    EXPECT_EQ(result.tier, "fast");
    EXPECT_EQ(result.report.tier_served, "fast");
    // The sharder resolves the tier once and stamps it into every
    // band compile: each band runs the single-pass fast pipeline
    // instead of the full multi-start budget.
    ASSERT_EQ(result.report.bands.size(), 4u);
    for (const auto& band : result.report.bands) {
        EXPECT_EQ(band.tier, "fast") << "band " << band.index;
        EXPECT_EQ(band.selected, "fast") << "band " << band.index;
    }
    EXPECT_NE(result.report.to_json().find("\"tier\": \"fast\""),
              std::string::npos);

    // The default (Auto -> best) keeps the historical full budget.
    core::CompilerOptions best = options;
    best.tier = core::CompileTier::Best;
    auto full = core::compile(device, problem, best);
    for (const auto& band : full.report.bands)
        EXPECT_EQ(band.tier, "best") << "band " << band.index;
}

TEST(ShardCompile, MetricsMatchAssembledCircuit)
{
    auto device = arch::make_grid(6, 6);
    auto problem = problem::fabric_local_graph(6, 6, 0.4, 2, 17);
    core::CompilerOptions options;
    options.shard_regions = 3;
    auto result = core::compile(device, problem, options);
    auto recomputed = circuit::compute_metrics(result.circuit, nullptr);
    EXPECT_EQ(result.metrics.depth, recomputed.depth);
    EXPECT_EQ(result.metrics.compute_gates, recomputed.compute_gates);
    EXPECT_EQ(result.metrics.swap_gates, recomputed.swap_gates);
    EXPECT_EQ(result.metrics.cx_count, recomputed.cx_count);
}

// ------------------------------------------------------ building blocks

TEST(BfsOracle, MatchesDenseDistanceMatrix)
{
    auto device = arch::make_sycamore(5, 4);
    const auto& g = device.connectivity();
    graph::DistanceMatrix dense(g);
    graph::FlatAdjacency adjacency(g);
    graph::BfsOracle oracle(adjacency);
    for (std::int32_t u = 0; u < g.num_vertices(); ++u) {
        const auto& row = oracle.distances_from(u);
        for (std::int32_t v = 0; v < g.num_vertices(); ++v)
            EXPECT_EQ(row[static_cast<std::size_t>(v)], dense.at(u, v));
    }
    // Early-exit queries agree at the target too.
    const std::int32_t last = g.num_vertices() - 1;
    EXPECT_EQ(oracle.distances_from(0, last)[static_cast<std::size_t>(last)],
              dense.at(0, last));
    EXPECT_EQ(oracle.distances_from(3, 3)[3], 0);
}

TEST(BfsOracle, DisconnectedVerticesAreUnreachable)
{
    graph::Graph g(4);
    g.add_edge(0, 1);
    graph::FlatAdjacency adjacency(g);
    graph::BfsOracle oracle(adjacency);
    EXPECT_EQ(oracle.distances_from(0, 3)[3], kUnreachable);
    EXPECT_EQ(oracle.distances_from(0, 1)[1], 1);
}

TEST(BfsOracle, EarlyExitRowIsExactUpToTheTarget)
{
    // The stitcher reads only vertices closer to the stationary
    // endpoint than the mobile one: a BFS stopped at the target must
    // agree with the full row there, and elsewhere hold the exact
    // distance or kUnreachable.
    Xoshiro256 rng(2024);
    for (const std::string& name : arch::named_devices()) {
        for (std::int32_t qubits : {64, 300}) {
            auto device = arch::named_device(name, qubits);
            graph::FlatAdjacency adjacency(device.connectivity());
            graph::BfsOracle full(adjacency);
            graph::BfsOracle early(adjacency);
            const auto n = static_cast<std::uint64_t>(device.num_qubits());
            for (int pair = 0; pair < 16; ++pair) {
                const auto source =
                    static_cast<std::int32_t>(rng.next_below(n));
                const auto target =
                    static_cast<std::int32_t>(rng.next_below(n));
                const auto& want = full.distances_from(source);
                const auto& got = early.distances_from(source, target);
                const std::int32_t bound =
                    want[static_cast<std::size_t>(target)];
                for (std::size_t v = 0; v < want.size(); ++v) {
                    const bool exact = got[v] == want[v];
                    ASSERT_TRUE(exact || (want[v] > bound &&
                                          got[v] == kUnreachable))
                        << name << " " << device.num_qubits() << "q "
                        << source << "->" << target << " at " << v
                        << ": " << got[v] << " vs " << want[v];
                }
            }
        }
    }
}

TEST(OpArena, PushIndexIterateAndCopy)
{
    circuit::OpArena arena;
    EXPECT_TRUE(arena.empty());
    const std::size_t count = circuit::OpArena::kChunkOps * 2 + 17;
    for (std::size_t i = 0; i < count; ++i) {
        circuit::ScheduledOp op;
        op.kind = circuit::OpKind::Compute;
        op.p = static_cast<PhysicalQubit>(i % 97);
        op.q = static_cast<PhysicalQubit>(i % 89 + 100);
        op.cycle = static_cast<Cycle>(i);
        arena.push_back(op);
    }
    EXPECT_EQ(arena.size(), count);
    EXPECT_EQ(arena[0].cycle, 0);
    EXPECT_EQ(arena.back().cycle, static_cast<Cycle>(count - 1));
    std::size_t seen = 0;
    for (const auto& op : arena) {
        EXPECT_EQ(op.cycle, static_cast<Cycle>(seen));
        ++seen;
    }
    EXPECT_EQ(seen, count);
    // Copies are deep and element-exact.
    circuit::OpArena copy = arena;
    EXPECT_EQ(copy.size(), arena.size());
    EXPECT_EQ(copy[circuit::OpArena::kChunkOps].cycle,
              arena[circuit::OpArena::kChunkOps].cycle);
    EXPECT_GE(arena.memory_bytes(),
              count * sizeof(circuit::ScheduledOp));
}

TEST(OpArena, ReferencesStableAcrossGrowth)
{
    circuit::OpArena arena;
    circuit::ScheduledOp op;
    op.cycle = 42;
    const circuit::ScheduledOp& first = arena.push_back(op);
    for (std::size_t i = 0; i < circuit::OpArena::kChunkOps * 3; ++i)
        arena.push_back(op);
    EXPECT_EQ(first.cycle, 42) << "push_back must never relocate ops";
}

TEST(Components, OutOfRangeEdgesAreRejected)
{
    std::vector<VertexPair> edges{VertexPair(0, 5)};
    EXPECT_THROW(graph::edge_subset_components(3, edges), FatalError);
    EXPECT_THROW(graph::edge_subset_components(-1, {}), FatalError);
}

TEST(Components, EmptyAndIsolatedInputs)
{
    auto none = graph::edge_subset_components(0, {});
    EXPECT_TRUE(none.members.empty());
    auto isolated = graph::edge_subset_components(4, {});
    EXPECT_TRUE(isolated.members.empty());
    EXPECT_EQ(isolated.component_of,
              (std::vector<std::int32_t>{-1, -1, -1, -1}));
    graph::Graph g(1);
    auto single = graph::connected_components(g, /*skip_isolated=*/false);
    ASSERT_EQ(single.members.size(), 1u);
    EXPECT_EQ(single.members[0], (std::vector<std::int32_t>{0}));
}

TEST(CircuitMemory, MemoryBytesTracksArena)
{
    circuit::Circuit circ(circuit::Mapping(4, 4));
    const std::size_t before = circ.memory_bytes();
    circ.add_compute(0, 1);
    circ.add_swap(1, 2);
    EXPECT_GT(circ.memory_bytes(), before);
    EXPECT_GE(circ.memory_bytes(), circ.ops().memory_bytes());
}

} // namespace
} // namespace permuq
