/**
 * @file
 * Bit-identity guarantees of the compiler after the incremental-engine
 * rework: golden circuit hashes (circuit::fingerprint) frozen from the
 * pre-rework implementation, invariance of the output under the worker
 * thread count (the parallel candidate materialization and multi-start
 * fan-out must not leak scheduling order into the result), determinism
 * of the multi-start winner, and the shared shortest-path walk being
 * swap-for-swap identical to the routine it replaced.
 */
#include <gtest/gtest.h>

#include <vector>

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "circuit/fingerprint.h"
#include "common/parallel.h"
#include "core/compiler.h"
#include "graph/routing.h"
#include "problem/generators.h"

namespace permuq {
namespace {

arch::CouplingGraph
ring_with_chords()
{
    std::vector<VertexPair> couplers;
    for (std::int32_t i = 0; i < 12; ++i)
        couplers.emplace_back(i, (i + 1) % 12);
    couplers.emplace_back(0, 6);
    couplers.emplace_back(3, 9);
    couplers.emplace_back(2, 7);
    return arch::make_custom(12, couplers, "ring-with-chords");
}

struct GoldenCase
{
    arch::ArchKind kind;
    std::int32_t n;
    double density;
    std::uint64_t seed;
    bool crosstalk;
    bool noise;
    std::uint64_t hash;
};

// Frozen from the pre-rework implementation (hash-map indices, full
// per-cycle coupler scans, serial single-start pipeline). The reworked
// engine must reproduce these outputs bit for bit. The last six rows
// are the sizes bench_compile_scaling times (density 0.3, seed 12345);
// at 256 qubits they reach the pull cache's multi-cycle reuse, which
// the smaller rows above never do.
const GoldenCase kGolden[] = {
    {arch::ArchKind::HeavyHex, 32, 0.3, 17, false, false,
     0x2bf117cd5e38403aull},
    {arch::ArchKind::HeavyHex, 64, 0.5, 29, false, false,
     0x46d9410744d8eddaull},
    {arch::ArchKind::Sycamore, 64, 0.3, 7, false, false,
     0x08b5abe534cd92efull},
    {arch::ArchKind::Grid, 36, 0.4, 11, false, false,
     0x606ec4e52e4bf6ffull},
    {arch::ArchKind::Hexagon, 36, 0.3, 13, false, false,
     0x41c34a84125fbd12ull},
    {arch::ArchKind::Line, 16, 0.4, 5, false, false,
     0xdf4402e979ee20dcull},
    {arch::ArchKind::Grid, 25, 0.5, 3, true, false,
     0x2c018a7b5ce54cd3ull},
    {arch::ArchKind::HeavyHex, 32, 0.3, 19, false, true,
     0x9e3c04f9262ba47cull},
    {arch::ArchKind::Custom, 0, 0.0, 0, false, false,
     0x640245cc9244b2d6ull},
    {arch::ArchKind::Grid, 64, 0.3, 12345, false, false,
     0x5e285620dafb4bf8ull},
    {arch::ArchKind::Grid, 256, 0.3, 12345, false, false,
     0x09cc8af33bb6181eull},
    {arch::ArchKind::HeavyHex, 64, 0.3, 12345, false, false,
     0x1cdc0a6895bfcaa6ull},
    {arch::ArchKind::HeavyHex, 256, 0.3, 12345, false, false,
     0x2c0fca1960f47ac6ull},
    {arch::ArchKind::Sycamore, 64, 0.3, 12345, false, false,
     0x50e6791b52130bc0ull},
    {arch::ArchKind::Sycamore, 256, 0.3, 12345, false, false,
     0x8e21a1cd918f9816ull},
};

std::uint64_t
compile_case_hash(const GoldenCase& c, std::int32_t trials)
{
    core::CompilerOptions options;
    // These hashes pin the Best pipeline; stay put under PERMUQ_TIER.
    options.tier = core::CompileTier::Best;
    arch::CouplingGraph device = c.kind == arch::ArchKind::Custom
                                     ? ring_with_chords()
                                     : arch::smallest_arch(c.kind, c.n);
    auto problem = c.kind == arch::ArchKind::Custom
                       ? problem::random_graph(12, 0.4, 43)
                       : problem::random_graph(c.n, c.density, c.seed);
    options.crosstalk_aware = c.crosstalk;
    options.num_placement_trials = trials;
    auto noise = arch::NoiseModel::calibrated(device, 8, 1e-2, 2e-2, 1.2);
    if (c.noise)
        options.noise = &noise;
    auto result = core::compile(device, problem, options);
    return circuit::fingerprint(result.circuit);
}

TEST(CompileDeterminismTest, MatchesPreReworkGoldenHashes)
{
    for (const auto& c : kGolden)
        EXPECT_EQ(compile_case_hash(c, 1), c.hash)
            << "arch " << static_cast<int>(c.kind) << " n=" << c.n
            << " seed=" << c.seed;
}

TEST(CompileDeterminismTest, InvariantUnderThreadCount)
{
    // The parallel sections (candidate materialization, multi-start
    // trials) must produce the same circuit at any pool width.
    int saved = common::num_threads();
    for (const auto& c : kGolden) {
        common::set_num_threads(1);
        std::uint64_t h1 = compile_case_hash(c, 1);
        common::set_num_threads(4);
        std::uint64_t h4 = compile_case_hash(c, 1);
        EXPECT_EQ(h1, h4)
            << "arch " << static_cast<int>(c.kind) << " n=" << c.n;
        EXPECT_EQ(h1, c.hash);
    }
    common::set_num_threads(saved);
}

TEST(CompileDeterminismTest, MultiStartInvariantUnderThreadCount)
{
    // 4 placement trials; winner picked by (absolute cost, trial
    // index), so thread scheduling must not affect the result.
    const GoldenCase& c = kGolden[0];
    int saved = common::num_threads();
    common::set_num_threads(1);
    std::uint64_t h1 = compile_case_hash(c, 4);
    common::set_num_threads(2);
    std::uint64_t h2 = compile_case_hash(c, 4);
    common::set_num_threads(8);
    std::uint64_t h8 = compile_case_hash(c, 4);
    common::set_num_threads(saved);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(h1, h8);
}

TEST(CompileDeterminismTest, MultiStartTrialZeroIsSingleStart)
{
    // Trial 0 is defined as the historical deterministic placement, so
    // a multi-start run can only improve on (never silently change)
    // the single-start baseline unless a perturbed trial wins.
    const GoldenCase& c = kGolden[3];
    core::CompilerOptions options;
    options.tier = core::CompileTier::Best;
    auto device = arch::smallest_arch(c.kind, c.n);
    auto problem = problem::random_graph(c.n, c.density, c.seed);
    auto single = core::compile(device, problem, options);
    options.num_placement_trials = 3;
    auto multi = core::compile(device, problem, options);
    double alpha = options.alpha;
    auto cost = [&](const circuit::Metrics& m) {
        return alpha * m.depth + (1.0 - alpha) * m.cx_count;
    };
    EXPECT_LE(cost(multi.metrics), cost(single.metrics));
}

TEST(CompileDeterminismTest, WalkTowardMatchesInlineReference)
{
    // The shared walk must be swap-for-swap identical to the loop it
    // replaced in route_remaining/focus mode/router_util.
    auto device = arch::smallest_arch(arch::ArchKind::HeavyHex, 27);
    const auto& dist = device.distances();
    const auto& g = device.connectivity();
    for (std::int32_t from = 0; from < device.num_qubits(); from += 3) {
        for (std::int32_t to = 0; to < device.num_qubits(); to += 5) {
            if (from == to)
                continue;
            // Reference: the historical hand-inlined walk.
            std::vector<std::pair<std::int32_t, std::int32_t>> ref;
            std::int32_t cur = from;
            while (dist.at(cur, to) > 1) {
                std::int32_t d = dist.at(cur, to);
                std::int32_t next = kInvalidQubit;
                for (std::int32_t nb : g.neighbors(cur)) {
                    if (dist.at(nb, to) < d) {
                        next = nb;
                        break;
                    }
                }
                ASSERT_NE(next, kInvalidQubit);
                ref.emplace_back(cur, next);
                cur = next;
            }
            std::vector<std::pair<std::int32_t, std::int32_t>> got;
            std::int32_t end = graph::walk_toward(
                g, dist, from, to,
                [&](std::int32_t a, std::int32_t b) {
                    got.emplace_back(a, b);
                });
            EXPECT_EQ(got, ref);
            EXPECT_EQ(end, cur);
        }
    }
}

} // namespace
} // namespace permuq
