/**
 * @file
 * Hardware coupling graphs for the regular architectures studied in the
 * paper (Fig 1, §3, §7.1): line, 2D grid, Google Sycamore (rotated
 * lattice), IBM heavy-hex, hexagon/honeycomb, and a 3D lattice.
 *
 * Besides plain connectivity, a CouplingGraph carries the structural
 * metadata the ATA patterns consume:
 *   - units: the 1xUnit decomposition (rows for grid/Sycamore, columns
 *     for hexagon) in physical order along each unit;
 *   - longest_path / off-path attachments for heavy-hex (§5.1, Fig 16).
 */
#ifndef PERMUQ_ARCH_COUPLING_GRAPH_H
#define PERMUQ_ARCH_COUPLING_GRAPH_H

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/distance.h"
#include "graph/graph.h"

namespace permuq::arch {

/** The regular architecture families supported by the pattern library. */
enum class ArchKind
{
    Line,
    Grid,
    Sycamore,
    HeavyHex,
    Hexagon,
    Lattice3D,
    Custom,
};

/** Human-readable name of an ArchKind. */
std::string to_string(ArchKind kind);

/** An off-path qubit of a heavy-hex device and where it hangs. */
struct OffPathAttachment
{
    PhysicalQubit off_qubit = kInvalidQubit;
    /** Index into longest_path() of one on-path neighbor. */
    std::int32_t path_index = -1;
};

/**
 * A quantum chip: an undirected coupling graph plus regularity
 * metadata. Immutable after construction; builders live in the
 * make_*() factories below.
 */
class CouplingGraph
{
  public:
    /** @name Basic connectivity
     *  @{ */
    const graph::Graph& connectivity() const { return graph_; }
    std::int32_t num_qubits() const { return graph_.num_vertices(); }
    bool
    coupled(PhysicalQubit p, PhysicalQubit q) const
    {
        return graph_.has_edge(p, q);
    }
    const std::vector<VertexPair>& couplers() const { return graph_.edges(); }
    /** @} */

    /** Architecture family this chip belongs to. */
    ArchKind kind() const { return kind_; }

    /** Display name, e.g. "sycamore-8x8". */
    const std::string& name() const { return name_; }

    /**
     * All-pairs shortest-path distances; built lazily on first use and
     * cached (the table is the workhorse of both compilers).
     */
    const graph::DistanceMatrix& distances() const;

    /** Shortest-path distance between two physical qubits. */
    std::int32_t
    distance(PhysicalQubit p, PhysicalQubit q) const
    {
        return distances().at(p, q);
    }

    /** @name 1xUnit decomposition (grid / Sycamore / hexagon / line)
     *  Unit u is an ordered list of physical qubits; consecutive units
     *  are adjacent in the sense required by the 2xUnit patterns.
     *  Empty for architectures without a unit decomposition.
     *  @{ */
    const std::vector<std::vector<PhysicalQubit>>&
    units() const
    {
        return units_;
    }
    std::int32_t
    num_units() const
    {
        return static_cast<std::int32_t>(units_.size());
    }

    /**
     * Number of unit groups (3D lattice: one group per z-plane, each
     * holding ny consecutive units). 1 for two-dimensional devices.
     */
    std::int32_t unit_groups() const { return unit_groups_; }
    /** @} */

    /** @name Heavy-hex path decomposition (§5.1)
     *  @{ */
    const std::vector<PhysicalQubit>& longest_path() const { return path_; }
    const std::vector<OffPathAttachment>&
    off_path() const
    {
        return off_path_;
    }
    /** @} */

    /** Row/column coordinates for layout-aware passes; (row, col). */
    const std::vector<std::pair<std::int32_t, std::int32_t>>&
    coordinates() const
    {
        return coords_;
    }

  private:
    friend class CouplingGraphBuilder;

    graph::Graph graph_;
    ArchKind kind_ = ArchKind::Custom;
    std::string name_;
    std::vector<std::vector<PhysicalQubit>> units_;
    std::int32_t unit_groups_ = 1;
    std::vector<PhysicalQubit> path_;
    std::vector<OffPathAttachment> off_path_;
    std::vector<std::pair<std::int32_t, std::int32_t>> coords_;
    mutable std::unique_ptr<graph::DistanceMatrix> distances_;
};

/** Mutable builder used by the topology factories. */
class CouplingGraphBuilder
{
  public:
    CouplingGraphBuilder(std::int32_t n, ArchKind kind, std::string name);

    void add_coupler(PhysicalQubit p, PhysicalQubit q);
    void add_unit(std::vector<PhysicalQubit> unit);
    void set_longest_path(std::vector<PhysicalQubit> path,
                          std::vector<OffPathAttachment> off);
    void set_unit_groups(std::int32_t groups);
    void set_coordinate(PhysicalQubit q, std::int32_t row, std::int32_t col);

    /** Validate invariants and freeze into an immutable CouplingGraph. */
    CouplingGraph build();

  private:
    CouplingGraph result_;
};

/** A 1 x n line of qubits (IBM Manila-like, Fig 6). */
CouplingGraph make_line(std::int32_t n);

/** A rows x cols 2D grid (Fig 5). Units are the rows. */
CouplingGraph make_grid(std::int32_t rows, std::int32_t cols);

/**
 * Google Sycamore rotated lattice (Fig 10): @p rows horizontal units of
 * @p cols qubits each; consecutive units are joined by a zig-zag line
 * and there are no intra-unit couplers.
 */
CouplingGraph make_sycamore(std::int32_t rows, std::int32_t cols);

/**
 * IBM heavy-hex (Fig 16): @p rows horizontal chains of @p cols qubits
 * (cols must satisfy cols % 4 == 3) linked by bridge qubits every 4
 * columns, alternating offset per row gap. The snake through the chain
 * ends is recorded as the longest path; bridges off the snake are the
 * off-path qubits.
 */
CouplingGraph make_heavy_hex(std::int32_t rows, std::int32_t cols);

/**
 * Hexagon / honeycomb in brick-wall layout (Fig 12): @p cols vertical
 * units of @p rows qubits; horizontal links between adjacent units at
 * alternating heights. Units are the columns.
 */
CouplingGraph make_hexagon(std::int32_t rows, std::int32_t cols);

/** A 3D lattice (Fig 13), kept for the multi-dimensional discussion. */
CouplingGraph make_lattice3d(std::int32_t nx, std::int32_t ny,
                             std::int32_t nz);

/** The 27-qubit IBM Falcon (Mumbai) device used in §7.4. */
CouplingGraph make_mumbai();

/**
 * An arbitrary (irregular) device from an explicit coupler list. Such
 * devices carry no unit/path decomposition, so the ATA patterns do not
 * apply (the paper's §6.5 limitation); the compiler falls back to its
 * pure greedy mode on them.
 */
CouplingGraph make_custom(std::int32_t num_qubits,
                          const std::vector<VertexPair>& couplers,
                          std::string name = "custom");

/**
 * Smallest instance of @p kind with at least @p min_qubits qubits and
 * near-square shape (paper §7.1: "the minimum size of architecture that
 * can handle the corresponding input problem graph").
 */
CouplingGraph smallest_arch(ArchKind kind, std::int32_t min_qubits);

/**
 * The names named_device() accepts, in table order: the six regular
 * families ("line", "grid", "sycamore", "heavyhex", "hexagon",
 * "lattice3d"), then "mumbai".
 */
const std::vector<std::string>& named_devices();

/**
 * The device a named architecture gives a @p qubits-qubit problem:
 * smallest_arch() of the family for the six regular names, the fixed
 * make_mumbai() for "mumbai". Every front end (permuqc, permuqd,
 * permuq-fuzz) sizes its devices here. Throws std::invalid_argument
 * for a name outside named_devices().
 */
CouplingGraph named_device(const std::string& name, std::int32_t qubits);

} // namespace permuq::arch

#endif // PERMUQ_ARCH_COUPLING_GRAPH_H
