/**
 * @file
 * Semantics of the compiler tier dial (CompilerOptions::tier):
 *
 *  - `best` (and the unset-env default) stays byte-identical to the
 *    pre-tier compiler, pinned by golden hashes shared with
 *    test_compile_determinism.cpp;
 *  - `auto` resolves the PERMUQ_TIER environment variable;
 *  - `fast` and `balanced` are thread-count invariant;
 *  - every fast-tier plan passes Tier B symbolic verification and
 *    expect_valid() on every regular topology, and falls back to
 *    `balanced` (counting permuq.compile.fast.fallback) on custom
 *    devices that have no ATA pattern;
 *  - fuzz reproducers round-trip the tier axis.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "arch/coupling_graph.h"
#include "circuit/fingerprint.h"
#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "verify/equivalence.h"
#include "verify/fuzz.h"

namespace permuq {
namespace {

std::uint64_t
compile_hash(arch::ArchKind kind, std::int32_t n, double density,
             std::uint64_t seed, core::CompileTier tier)
{
    auto device = arch::smallest_arch(kind, n);
    auto problem = problem::random_graph(n, density, seed);
    core::CompilerOptions options;
    options.tier = tier;
    auto result = core::compile(device, problem, options);
    return circuit::fingerprint(result.circuit);
}

/** RAII guard: sets PERMUQ_TIER for one scope, restores on exit. */
class ScopedTierEnv
{
public:
    explicit ScopedTierEnv(const char* value)
    {
        const char* old = std::getenv("PERMUQ_TIER");
        had_ = old != nullptr;
        if (had_)
            saved_ = old;
        if (value)
            setenv("PERMUQ_TIER", value, 1);
        else
            unsetenv("PERMUQ_TIER");
    }
    ~ScopedTierEnv()
    {
        if (had_)
            setenv("PERMUQ_TIER", saved_.c_str(), 1);
        else
            unsetenv("PERMUQ_TIER");
    }

private:
    bool had_ = false;
    std::string saved_;
};

// A slice of test_compile_determinism.cpp's frozen PR 1 hashes: tier
// Best (explicitly and as the unset-env Auto default) must keep
// reproducing the historical compiler bit for bit.
struct GoldenCase
{
    arch::ArchKind kind;
    std::int32_t n;
    double density;
    std::uint64_t seed;
    std::uint64_t hash;
};

const GoldenCase kGolden[] = {
    {arch::ArchKind::HeavyHex, 32, 0.3, 17, 0x2bf117cd5e38403aull},
    {arch::ArchKind::Sycamore, 64, 0.3, 7, 0x08b5abe534cd92efull},
    {arch::ArchKind::Grid, 36, 0.4, 11, 0x606ec4e52e4bf6ffull},
};

TEST(TierTest, BestStaysByteIdenticalToGoldenHashes)
{
    ScopedTierEnv env(nullptr);
    for (const auto& c : kGolden) {
        EXPECT_EQ(compile_hash(c.kind, c.n, c.density, c.seed,
                               core::CompileTier::Best),
                  c.hash)
            << "arch " << static_cast<int>(c.kind) << " n=" << c.n;
        // Auto with no PERMUQ_TIER is the same thing.
        EXPECT_EQ(compile_hash(c.kind, c.n, c.density, c.seed,
                               core::CompileTier::Auto),
                  c.hash);
    }
}

TEST(TierTest, AutoResolvesEnvironment)
{
    {
        ScopedTierEnv env("fast");
        EXPECT_EQ(core::resolve_tier(core::CompileTier::Auto),
                  core::CompileTier::Fast);
        // Explicit options win over the environment.
        EXPECT_EQ(core::resolve_tier(core::CompileTier::Best),
                  core::CompileTier::Best);
    }
    {
        ScopedTierEnv env("balanced");
        EXPECT_EQ(core::resolve_tier(core::CompileTier::Auto),
                  core::CompileTier::Balanced);
    }
    {
        // Unknown values fall back to the historical default.
        ScopedTierEnv env("ludicrous");
        EXPECT_EQ(core::resolve_tier(core::CompileTier::Auto),
                  core::CompileTier::Best);
    }
    {
        ScopedTierEnv env(nullptr);
        EXPECT_EQ(core::resolve_tier(core::CompileTier::Auto),
                  core::CompileTier::Best);
    }
}

TEST(TierTest, AutoEnvCompilesLikeExplicitTier)
{
    const auto& c = kGolden[2];
    const std::uint64_t fast = compile_hash(c.kind, c.n, c.density,
                                            c.seed,
                                            core::CompileTier::Fast);
    ScopedTierEnv env("fast");
    EXPECT_EQ(compile_hash(c.kind, c.n, c.density, c.seed,
                           core::CompileTier::Auto),
              fast);
}

TEST(TierTest, FastAndBalancedInvariantUnderThreadCount)
{
    int saved = common::num_threads();
    for (core::CompileTier tier :
         {core::CompileTier::Fast, core::CompileTier::Balanced}) {
        for (const auto& c : kGolden) {
            common::set_num_threads(1);
            std::uint64_t h1 =
                compile_hash(c.kind, c.n, c.density, c.seed, tier);
            common::set_num_threads(4);
            std::uint64_t h4 =
                compile_hash(c.kind, c.n, c.density, c.seed, tier);
            EXPECT_EQ(h1, h4)
                << core::tier_name(tier) << " arch "
                << static_cast<int>(c.kind) << " n=" << c.n;
        }
    }
    common::set_num_threads(saved);
}

TEST(TierTest, FastPlansVerifyOnEveryRegularTopology)
{
    const arch::ArchKind kinds[] = {
        arch::ArchKind::Line,    arch::ArchKind::Grid,
        arch::ArchKind::Sycamore, arch::ArchKind::HeavyHex,
        arch::ArchKind::Hexagon, arch::ArchKind::Lattice3D,
    };
    for (arch::ArchKind kind : kinds) {
        auto device = arch::smallest_arch(kind, 32);
        auto problem = problem::random_graph(32, 0.3, 23);
        core::CompilerOptions options;
        options.tier = core::CompileTier::Fast;
        auto result = core::compile(device, problem, options);
        EXPECT_EQ(result.selected, "fast")
            << "arch " << static_cast<int>(kind);
        ASSERT_NO_THROW(
            circuit::expect_valid(result.circuit, device, problem));
        auto report =
            verify::check_symbolic(device, problem, result.circuit);
        EXPECT_TRUE(report.ok)
            << "arch " << static_cast<int>(kind) << ": "
            << report.summary();
    }
    // The fixed 27-qubit Mumbai device is heavy-hex, so it takes the
    // fast path too.
    auto mumbai = arch::make_mumbai();
    auto problem = problem::random_graph(20, 0.3, 31);
    core::CompilerOptions options;
    options.tier = core::CompileTier::Fast;
    auto result = core::compile(mumbai, problem, options);
    EXPECT_EQ(result.selected, "fast");
    EXPECT_TRUE(verify::check_symbolic(mumbai, problem, result.circuit).ok);
}

TEST(TierTest, FastFallsBackToBalancedOnCustomDevices)
{
    std::vector<VertexPair> couplers;
    for (std::int32_t i = 0; i < 12; ++i)
        couplers.emplace_back(i, (i + 1) % 12);
    couplers.emplace_back(0, 6);
    couplers.emplace_back(3, 9);
    auto device = arch::make_custom(12, couplers, "ring-with-chords");
    auto problem = problem::random_graph(12, 0.4, 43);

    auto& fallbacks =
        telemetry::counter("permuq.compile.fast.fallback");
    const bool was_enabled = telemetry::enabled();
    telemetry::set_enabled(true);
    const std::int64_t before = fallbacks.value();
    core::CompilerOptions options;
    options.tier = core::CompileTier::Fast;
    auto result = core::compile(device, problem, options);
    EXPECT_NE(result.selected, "fast");
    EXPECT_EQ(fallbacks.value(), before + 1);
    telemetry::set_enabled(was_enabled);
    ASSERT_NO_THROW(
        circuit::expect_valid(result.circuit, device, problem));
    EXPECT_TRUE(verify::check_symbolic(device, problem, result.circuit).ok);

    // Same circuit as asking for balanced directly.
    options.tier = core::CompileTier::Balanced;
    auto balanced = core::compile(device, problem, options);
    EXPECT_EQ(circuit::fingerprint(result.circuit),
              circuit::fingerprint(balanced.circuit));
}

TEST(TierTest, FastDepthWithinQualityBound)
{
    // The acceptance bound the bench gates enforce at 256q, held here
    // at a CI-friendly size: fast depth <= 1.5x best depth.
    for (arch::ArchKind kind :
         {arch::ArchKind::Grid, arch::ArchKind::Sycamore}) {
        auto device = arch::smallest_arch(kind, 64);
        auto problem = problem::random_regular_graph(64, 3, 12345);
        core::CompilerOptions options;
        options.tier = core::CompileTier::Fast;
        auto fast = core::compile(device, problem, options);
        options.tier = core::CompileTier::Best;
        auto best = core::compile(device, problem, options);
        EXPECT_LE(fast.metrics.depth, 1.5 * best.metrics.depth)
            << "arch " << static_cast<int>(kind);
    }
}

TEST(TierTest, ReproducerRoundTripsTier)
{
    verify::FuzzConfig config;
    config.arch = "grid";
    config.num_vertices = 6;
    config.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
    config.tier = "fast";
    const auto text =
        verify::serialize_reproducer(config, verify::CheckResult{});

    verify::FuzzConfig parsed;
    std::istringstream in(text);
    std::string error;
    ASSERT_TRUE(verify::parse_reproducer(in, parsed, &error)) << error;
    EXPECT_EQ(parsed.tier, "fast");
    EXPECT_TRUE(verify::run_config(parsed).ok);

    // Unknown tiers are rejected loudly, not defaulted.
    config.tier = "warp";
    const auto bad =
        verify::serialize_reproducer(config, verify::CheckResult{});
    std::istringstream bad_in(bad);
    EXPECT_FALSE(verify::parse_reproducer(bad_in, parsed, &error));
    EXPECT_NE(error.find("tier"), std::string::npos) << error;
}

} // namespace
} // namespace permuq
