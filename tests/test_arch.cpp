/**
 * @file
 * Tests of the architecture topologies (paper Fig 1, §7.1): structural
 * counts, regularity properties, unit/path metadata, and noise models.
 */
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "common/error.h"

namespace permuq::arch {
namespace {

TEST(LineTest, Structure)
{
    auto dev = make_line(7);
    EXPECT_EQ(dev.kind(), ArchKind::Line);
    EXPECT_EQ(dev.num_qubits(), 7);
    EXPECT_EQ(dev.connectivity().num_edges(), 6);
    EXPECT_EQ(dev.num_units(), 1);
    EXPECT_EQ(dev.longest_path().size(), 7u);
    EXPECT_EQ(dev.distance(0, 6), 6);
}

TEST(GridTest, Structure)
{
    auto dev = make_grid(4, 5);
    EXPECT_EQ(dev.num_qubits(), 20);
    // Edges: 4*4 horizontal per row + 5*3 vertical.
    EXPECT_EQ(dev.connectivity().num_edges(), 4 * 4 + 5 * 3);
    EXPECT_EQ(dev.num_units(), 4);
    for (const auto& unit : dev.units())
        EXPECT_EQ(unit.size(), 5u);
    // Manhattan distances.
    EXPECT_EQ(dev.distance(0, 19), 3 + 4);
}

TEST(GridTest, UnitsAreInternalPaths)
{
    auto dev = make_grid(3, 6);
    for (const auto& unit : dev.units())
        for (std::size_t i = 0; i + 1 < unit.size(); ++i)
            EXPECT_TRUE(dev.coupled(unit[i], unit[i + 1]));
}

TEST(SycamoreTest, Structure)
{
    auto dev = make_sycamore(4, 5);
    EXPECT_EQ(dev.num_qubits(), 20);
    EXPECT_EQ(dev.num_units(), 4);
    // No intra-unit couplers (rotated lattice).
    for (const auto& unit : dev.units())
        for (std::size_t i = 0; i + 1 < unit.size(); ++i)
            EXPECT_FALSE(dev.coupled(unit[i], unit[i + 1]));
    // Each row gap is a zig-zag line: 2*cols - 1 couplers.
    EXPECT_EQ(dev.connectivity().num_edges(), 3 * (2 * 5 - 1));
    // Interior vertices have degree 4 like a rotated square lattice.
    std::int32_t deg4 = 0;
    for (std::int32_t q = 0; q < dev.num_qubits(); ++q)
        if (dev.connectivity().degree(q) == 4)
            ++deg4;
    EXPECT_GT(deg4, 0);
}

TEST(SycamoreTest, AlignedVerticalLinksExist)
{
    auto dev = make_sycamore(5, 4);
    for (std::int32_t r = 0; r + 1 < 5; ++r)
        for (std::int32_t c = 0; c < 4; ++c)
            EXPECT_TRUE(dev.coupled(dev.units()[static_cast<std::size_t>(
                                        r)][static_cast<std::size_t>(c)],
                                    dev.units()[static_cast<std::size_t>(
                                        r + 1)][static_cast<std::size_t>(
                                        c)]));
}

TEST(HeavyHexTest, Structure)
{
    auto dev = make_heavy_hex(3, 11);
    // 3 chains of 11 plus 2 gaps x 3 bridges.
    EXPECT_EQ(dev.num_qubits(), 3 * 11 + 2 * 3);
    // Degree <= 3 everywhere (heavy-hex property).
    for (std::int32_t q = 0; q < dev.num_qubits(); ++q)
        EXPECT_LE(dev.connectivity().degree(q), 3);
}

TEST(HeavyHexTest, PathAndOffPathPartition)
{
    auto dev = make_heavy_hex(4, 7);
    const auto& path = dev.longest_path();
    // Path is a simple path over couplers.
    std::set<PhysicalQubit> on_path(path.begin(), path.end());
    EXPECT_EQ(on_path.size(), path.size());
    for (std::size_t i = 1; i < path.size(); ++i)
        EXPECT_TRUE(dev.coupled(path[i - 1], path[i]));
    // Off-path qubits are attached to the path and disjoint from it.
    for (const auto& att : dev.off_path()) {
        EXPECT_EQ(on_path.count(att.off_qubit), 0u);
        EXPECT_TRUE(dev.coupled(
            att.off_qubit,
            path[static_cast<std::size_t>(att.path_index)]));
    }
    EXPECT_EQ(on_path.size() + dev.off_path().size(),
              static_cast<std::size_t>(dev.num_qubits()));
}

TEST(HeavyHexTest, RejectsBadRowLength)
{
    EXPECT_THROW(make_heavy_hex(3, 8), FatalError);
    EXPECT_THROW(make_heavy_hex(3, 5), FatalError);
}

TEST(HexagonTest, Structure)
{
    auto dev = make_hexagon(6, 5);
    EXPECT_EQ(dev.num_qubits(), 30);
    EXPECT_EQ(dev.num_units(), 5); // columns
    // Honeycomb: degree <= 3.
    for (std::int32_t q = 0; q < dev.num_qubits(); ++q)
        EXPECT_LE(dev.connectivity().degree(q), 3);
    // Units are internal vertical paths.
    for (const auto& unit : dev.units())
        for (std::size_t i = 0; i + 1 < unit.size(); ++i)
            EXPECT_TRUE(dev.coupled(unit[i], unit[i + 1]));
}

TEST(HexagonTest, RungsAlternate)
{
    auto dev = make_hexagon(6, 4);
    for (std::int32_t c = 0; c + 1 < 4; ++c) {
        const auto& a = dev.units()[static_cast<std::size_t>(c)];
        const auto& b = dev.units()[static_cast<std::size_t>(c + 1)];
        for (std::int32_t r = 0; r < 6; ++r)
            EXPECT_EQ(dev.coupled(a[static_cast<std::size_t>(r)],
                                  b[static_cast<std::size_t>(r)]),
                      (r + c) % 2 == 0);
    }
}

TEST(Lattice3dTest, Structure)
{
    auto dev = make_lattice3d(3, 3, 3);
    EXPECT_EQ(dev.num_qubits(), 27);
    // 6-neighborhood: 3 * 2*3*3 directed... = 3 faces * 18 edges.
    EXPECT_EQ(dev.connectivity().num_edges(), 3 * 2 * 3 * 3);
    EXPECT_EQ(dev.distance(0, 26), 6);
}

TEST(MumbaiTest, MatchesFalconTopology)
{
    auto dev = make_mumbai();
    EXPECT_EQ(dev.num_qubits(), 27);
    EXPECT_EQ(dev.connectivity().num_edges(), 28);
    for (std::int32_t q = 0; q < 27; ++q)
        EXPECT_LE(dev.connectivity().degree(q), 3);
    EXPECT_EQ(dev.longest_path().size() + dev.off_path().size(), 27u);
}

class SmallestArchTest
    : public ::testing::TestWithParam<std::tuple<ArchKind, std::int32_t>>
{
};

TEST_P(SmallestArchTest, CoversRequestedSize)
{
    auto [kind, n] = GetParam();
    auto dev = smallest_arch(kind, n);
    EXPECT_GE(dev.num_qubits(), n);
    // Not wasteful: at most ~2.5x the request.
    EXPECT_LE(dev.num_qubits(), n * 5 / 2 + 8);
    EXPECT_EQ(dev.kind(), kind);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SmallestArchTest,
    ::testing::Combine(::testing::Values(ArchKind::Line, ArchKind::Grid,
                                         ArchKind::Sycamore,
                                         ArchKind::HeavyHex,
                                         ArchKind::Hexagon),
                       ::testing::Values(16, 64, 100, 256, 1024)));

/** Same family, name, couplers, units, path and coordinates. */
void
expect_same_device(const CouplingGraph& got, const CouplingGraph& want)
{
    EXPECT_EQ(got.kind(), want.kind());
    EXPECT_EQ(got.name(), want.name());
    EXPECT_EQ(got.couplers(), want.couplers());
    EXPECT_EQ(got.units(), want.units());
    EXPECT_EQ(got.unit_groups(), want.unit_groups());
    EXPECT_EQ(got.longest_path(), want.longest_path());
    EXPECT_EQ(got.off_path().size(), want.off_path().size());
    EXPECT_EQ(got.coordinates(), want.coordinates());
}

TEST(NamedDeviceTest, EveryFamilyIsItsSmallestArch)
{
    const std::pair<const char*, ArchKind> families[] = {
        {"line", ArchKind::Line},         {"grid", ArchKind::Grid},
        {"sycamore", ArchKind::Sycamore}, {"heavyhex", ArchKind::HeavyHex},
        {"hexagon", ArchKind::Hexagon},   {"lattice3d", ArchKind::Lattice3D},
    };
    for (const auto& [name, kind] : families)
        for (const std::int32_t qubits : {1, 10, 27, 64}) {
            SCOPED_TRACE(std::string(name) + " " + std::to_string(qubits));
            expect_same_device(named_device(name, qubits),
                               smallest_arch(kind, qubits));
        }
}

TEST(NamedDeviceTest, MumbaiIsTheFixedFalcon)
{
    for (const std::int32_t qubits : {5, 27})
        expect_same_device(named_device("mumbai", qubits), make_mumbai());
}

TEST(NamedDeviceTest, TheTableListsExactlyTheAcceptedNames)
{
    const std::vector<std::string> want = {
        "line",    "grid",      "sycamore", "heavyhex",
        "hexagon", "lattice3d", "mumbai",
    };
    EXPECT_EQ(named_devices(), want);
    for (const std::string& name : named_devices())
        EXPECT_NO_THROW(named_device(name, 8)) << name;
    for (const char* name : {"warp", "heavy-hex", "HeavyHex", "custom", ""})
        EXPECT_THROW(named_device(name, 8), std::invalid_argument)
            << name;
}

TEST(NoiseModelTest, IdealIsZero)
{
    auto dev = make_grid(3, 3);
    auto noise = NoiseModel::ideal(dev);
    EXPECT_TRUE(noise.is_ideal());
    for (const auto& c : dev.couplers())
        EXPECT_DOUBLE_EQ(noise.cx_error(c.a, c.b), 0.0);
}

TEST(NoiseModelTest, CalibratedSpreadAroundMedian)
{
    auto dev = make_grid(8, 8);
    auto noise = NoiseModel::calibrated(dev, 99, 1e-2, 2e-2);
    EXPECT_FALSE(noise.is_ideal());
    double lo = 1.0, hi = 0.0, sum = 0.0;
    for (const auto& c : dev.couplers()) {
        double e = noise.cx_error(c.a, c.b);
        lo = std::min(lo, e);
        hi = std::max(hi, e);
        sum += e;
        EXPECT_GT(e, 0.0);
        EXPECT_LT(e, 0.1);
    }
    EXPECT_LT(lo, hi); // genuine variability
    double avg = sum / dev.connectivity().num_edges();
    EXPECT_GT(avg, 0.5e-2);
    EXPECT_LT(avg, 2.5e-2);
}

TEST(NoiseModelTest, Deterministic)
{
    auto dev = make_grid(4, 4);
    auto a = NoiseModel::calibrated(dev, 5);
    auto b = NoiseModel::calibrated(dev, 5);
    for (const auto& c : dev.couplers())
        EXPECT_DOUBLE_EQ(a.cx_error(c.a, c.b), b.cx_error(c.a, c.b));
}

TEST(NoiseModelTest, RejectsNonCoupler)
{
    auto dev = make_line(4);
    auto noise = NoiseModel::calibrated(dev, 1);
    EXPECT_THROW(noise.cx_error(0, 2), FatalError);
}

} // namespace
} // namespace permuq::arch
