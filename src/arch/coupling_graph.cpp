#include "coupling_graph.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common/error.h"

namespace permuq::arch {

std::string
to_string(ArchKind kind)
{
    switch (kind) {
      case ArchKind::Line: return "line";
      case ArchKind::Grid: return "grid";
      case ArchKind::Sycamore: return "sycamore";
      case ArchKind::HeavyHex: return "heavy-hex";
      case ArchKind::Hexagon: return "hexagon";
      case ArchKind::Lattice3D: return "lattice3d";
      case ArchKind::Custom: return "custom";
    }
    return "unknown";
}

const graph::DistanceMatrix&
CouplingGraph::distances() const
{
    if (!distances_)
        distances_ = std::make_unique<graph::DistanceMatrix>(graph_);
    return *distances_;
}

CouplingGraphBuilder::CouplingGraphBuilder(std::int32_t n, ArchKind kind,
                                           std::string name)
{
    fatal_unless(n > 0, "architecture needs at least one qubit");
    result_.graph_ = graph::Graph(n);
    result_.kind_ = kind;
    result_.name_ = std::move(name);
    result_.coords_.assign(static_cast<std::size_t>(n), {0, 0});
}

void
CouplingGraphBuilder::add_coupler(PhysicalQubit p, PhysicalQubit q)
{
    result_.graph_.add_edge(p, q);
}

void
CouplingGraphBuilder::add_unit(std::vector<PhysicalQubit> unit)
{
    fatal_unless(!unit.empty(), "unit must be non-empty");
    result_.units_.push_back(std::move(unit));
}

void
CouplingGraphBuilder::set_longest_path(std::vector<PhysicalQubit> path,
                                       std::vector<OffPathAttachment> off)
{
    result_.path_ = std::move(path);
    result_.off_path_ = std::move(off);
}

void
CouplingGraphBuilder::set_unit_groups(std::int32_t groups)
{
    fatal_unless(groups >= 1, "need at least one unit group");
    result_.unit_groups_ = groups;
}

void
CouplingGraphBuilder::set_coordinate(PhysicalQubit q, std::int32_t row,
                                     std::int32_t col)
{
    result_.coords_[static_cast<std::size_t>(q)] = {row, col};
}

CouplingGraph
CouplingGraphBuilder::build()
{
    // Validate the longest path really is a path in the graph, and the
    // off-path attachments point at genuine couplers.
    const auto& path = result_.path_;
    for (std::size_t i = 1; i < path.size(); ++i) {
        panic_unless(result_.graph_.has_edge(path[i - 1], path[i]),
                     "longest path uses a missing coupler");
    }
    for (const auto& att : result_.off_path_) {
        panic_unless(att.path_index >= 0 &&
                         att.path_index <
                             static_cast<std::int32_t>(path.size()),
                     "off-path attachment index out of range");
        panic_unless(
            result_.graph_.has_edge(
                att.off_qubit,
                path[static_cast<std::size_t>(att.path_index)]),
            "off-path attachment not adjacent to its path node");
    }
    // Validate units: consecutive qubits in a unit need not be coupled
    // (Sycamore units are not), but every qubit may appear in at most
    // one unit.
    std::vector<bool> seen(static_cast<std::size_t>(
                               result_.graph_.num_vertices()),
                           false);
    for (const auto& unit : result_.units_) {
        for (PhysicalQubit q : unit) {
            panic_unless(q >= 0 && q < result_.graph_.num_vertices(),
                         "unit qubit out of range");
            panic_unless(!seen[static_cast<std::size_t>(q)],
                         "qubit assigned to two units");
            seen[static_cast<std::size_t>(q)] = true;
        }
    }
    return std::move(result_);
}

CouplingGraph
make_line(std::int32_t n)
{
    fatal_unless(n >= 1, "line needs >= 1 qubit");
    CouplingGraphBuilder b(n, ArchKind::Line, "line-" + std::to_string(n));
    std::vector<PhysicalQubit> unit;
    for (std::int32_t i = 0; i < n; ++i) {
        if (i + 1 < n)
            b.add_coupler(i, i + 1);
        b.set_coordinate(i, 0, i);
        unit.push_back(i);
    }
    b.add_unit(unit);
    b.set_longest_path(unit, {});
    return b.build();
}

CouplingGraph
make_grid(std::int32_t rows, std::int32_t cols)
{
    fatal_unless(rows >= 1 && cols >= 1, "grid needs positive dimensions");
    auto id = [cols](std::int32_t r, std::int32_t c) { return r * cols + c; };
    CouplingGraphBuilder b(rows * cols, ArchKind::Grid,
                           "grid-" + std::to_string(rows) + "x" +
                               std::to_string(cols));
    for (std::int32_t r = 0; r < rows; ++r) {
        std::vector<PhysicalQubit> unit;
        for (std::int32_t c = 0; c < cols; ++c) {
            b.set_coordinate(id(r, c), r, c);
            unit.push_back(id(r, c));
            if (c + 1 < cols)
                b.add_coupler(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                b.add_coupler(id(r, c), id(r + 1, c));
        }
        b.add_unit(std::move(unit));
    }
    return b.build();
}

CouplingGraph
make_sycamore(std::int32_t rows, std::int32_t cols)
{
    fatal_unless(rows >= 1 && cols >= 1,
                 "sycamore needs positive dimensions");
    auto id = [cols](std::int32_t r, std::int32_t c) { return r * cols + c; };
    CouplingGraphBuilder b(rows * cols, ArchKind::Sycamore,
                           "sycamore-" + std::to_string(rows) + "x" +
                               std::to_string(cols));
    for (std::int32_t r = 0; r < rows; ++r) {
        std::vector<PhysicalQubit> unit;
        for (std::int32_t c = 0; c < cols; ++c) {
            b.set_coordinate(id(r, c), r, c);
            unit.push_back(id(r, c));
        }
        b.add_unit(std::move(unit));
    }
    // Rotated-lattice couplers: each row gap is a zig-zag line covering
    // both rows; zig-zag direction alternates with the gap parity.
    for (std::int32_t r = 0; r + 1 < rows; ++r) {
        for (std::int32_t c = 0; c < cols; ++c) {
            b.add_coupler(id(r, c), id(r + 1, c));
            if (r % 2 == 0) {
                if (c >= 1)
                    b.add_coupler(id(r, c), id(r + 1, c - 1));
            } else {
                if (c + 1 < cols)
                    b.add_coupler(id(r, c), id(r + 1, c + 1));
            }
        }
    }
    return b.build();
}

CouplingGraph
make_heavy_hex(std::int32_t rows, std::int32_t cols)
{
    fatal_unless(rows >= 1, "heavy-hex needs >= 1 row");
    fatal_unless(cols >= 3 && cols % 4 == 3,
                 "heavy-hex row length must satisfy cols % 4 == 3");
    auto id = [cols](std::int32_t r, std::int32_t c) { return r * cols + c; };
    // Bridge qubits between rows r and r+1 sit at columns
    //   c % 4 == 2 for even r (includes the right end, col == cols-1),
    //   c % 4 == 0 for odd r  (includes the left end, col == 0),
    // which is exactly what lets the longest path snake row by row.
    std::int32_t bridges_per_gap = (cols + 1) / 4;
    std::int32_t n = rows * cols + (rows - 1) * bridges_per_gap;
    CouplingGraphBuilder b(n, ArchKind::HeavyHex,
                           "heavy-hex-" + std::to_string(rows) + "x" +
                               std::to_string(cols));

    for (std::int32_t r = 0; r < rows; ++r) {
        for (std::int32_t c = 0; c < cols; ++c) {
            b.set_coordinate(id(r, c), 2 * r, c);
            if (c + 1 < cols)
                b.add_coupler(id(r, c), id(r, c + 1));
        }
    }

    // path_pos[q] is filled while laying out the snake below.
    std::vector<PhysicalQubit> path;
    for (std::int32_t r = 0; r < rows; ++r) {
        if (r % 2 == 0) {
            for (std::int32_t c = 0; c < cols; ++c)
                path.push_back(id(r, c));
        } else {
            for (std::int32_t c = cols - 1; c >= 0; --c)
                path.push_back(id(r, c));
        }
        if (r + 1 < rows) {
            // The snake uses the end-column bridge; placeholder is
            // patched once bridge ids are known.
            path.push_back(kInvalidQubit);
        }
    }

    std::vector<OffPathAttachment> off;
    std::int32_t next = rows * cols;
    std::size_t placeholder = 0;
    auto find_placeholder = [&](std::size_t from) {
        while (from < path.size() && path[from] != kInvalidQubit)
            ++from;
        return from;
    };
    std::vector<std::int32_t> path_index_of(static_cast<std::size_t>(n), -1);
    for (std::int32_t r = 0; r + 1 < rows; ++r) {
        std::int32_t phase = (r % 2 == 0) ? 2 : 0;
        std::int32_t snake_col = (r % 2 == 0) ? cols - 1 : 0;
        for (std::int32_t c = phase; c < cols; c += 4) {
            PhysicalQubit bridge = next++;
            b.set_coordinate(bridge, 2 * r + 1, c);
            b.add_coupler(id(r, c), bridge);
            b.add_coupler(bridge, id(r + 1, c));
            if (c == snake_col) {
                placeholder = find_placeholder(placeholder);
                path[placeholder] = bridge;
            } else {
                // Attach to the upper neighbor; its snake index is
                // resolved after the path is complete.
                off.push_back({bridge, id(r, c)});
            }
        }
    }
    for (std::size_t i = 0; i < path.size(); ++i) {
        panic_unless(path[i] != kInvalidQubit, "unpatched snake placeholder");
        path_index_of[static_cast<std::size_t>(path[i])] =
            static_cast<std::int32_t>(i);
    }
    for (auto& att : off) {
        // att.path_index currently holds the on-path neighbor qubit id.
        att.path_index =
            path_index_of[static_cast<std::size_t>(att.path_index)];
    }
    b.set_longest_path(std::move(path), std::move(off));
    return b.build();
}

CouplingGraph
make_hexagon(std::int32_t rows, std::int32_t cols)
{
    fatal_unless(rows >= 1 && cols >= 1,
                 "hexagon needs positive dimensions");
    auto id = [rows](std::int32_t c, std::int32_t r) { return c * rows + r; };
    CouplingGraphBuilder b(rows * cols, ArchKind::Hexagon,
                           "hexagon-" + std::to_string(rows) + "x" +
                               std::to_string(cols));
    for (std::int32_t c = 0; c < cols; ++c) {
        std::vector<PhysicalQubit> unit;
        for (std::int32_t r = 0; r < rows; ++r) {
            b.set_coordinate(id(c, r), r, c);
            unit.push_back(id(c, r));
            if (r + 1 < rows)
                b.add_coupler(id(c, r), id(c, r + 1));
            // Brick-wall horizontal links at alternating heights.
            if (c + 1 < cols && (r + c) % 2 == 0)
                b.add_coupler(id(c, r), id(c + 1, r));
        }
        b.add_unit(std::move(unit));
    }
    return b.build();
}

CouplingGraph
make_lattice3d(std::int32_t nx, std::int32_t ny, std::int32_t nz)
{
    fatal_unless(nx >= 1 && ny >= 1 && nz >= 1,
                 "lattice3d needs positive dimensions");
    auto id = [nx, ny](std::int32_t x, std::int32_t y, std::int32_t z) {
        return (z * ny + y) * nx + x;
    };
    CouplingGraphBuilder b(nx * ny * nz, ArchKind::Lattice3D,
                           "lattice3d-" + std::to_string(nx) + "x" +
                               std::to_string(ny) + "x" +
                               std::to_string(nz));
    b.set_unit_groups(nz);
    for (std::int32_t z = 0; z < nz; ++z) {
        for (std::int32_t y = 0; y < ny; ++y) {
            std::vector<PhysicalQubit> unit;
            for (std::int32_t x = 0; x < nx; ++x) {
                b.set_coordinate(id(x, y, z), z * ny + y, x);
                unit.push_back(id(x, y, z));
                if (x + 1 < nx)
                    b.add_coupler(id(x, y, z), id(x + 1, y, z));
                if (y + 1 < ny)
                    b.add_coupler(id(x, y, z), id(x, y + 1, z));
                if (z + 1 < nz)
                    b.add_coupler(id(x, y, z), id(x, y, z + 1));
            }
            b.add_unit(std::move(unit));
        }
    }
    return b.build();
}

CouplingGraph
make_mumbai()
{
    // 27-qubit IBM Falcon coupling map (ibmq_mumbai).
    static const std::int32_t kEdges[][2] = {
        {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},
        {5, 8},   {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12},
        {11, 14}, {12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18},
        {16, 19}, {17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23},
        {22, 25}, {23, 24}, {24, 25}, {25, 26},
    };
    CouplingGraphBuilder b(27, ArchKind::HeavyHex, "ibmq-mumbai");
    for (const auto& e : kEdges)
        b.add_coupler(e[0], e[1]);

    // A longest simple path through the device plus where the six
    // remaining qubits hang off it.
    std::vector<PhysicalQubit> path = {9,  8,  5,  3,  2,  1,  4,
                                       7,  10, 12, 13, 14, 16, 19,
                                       22, 25, 24, 23, 21, 18, 17};
    std::vector<std::int32_t> path_index_of(27, -1);
    for (std::size_t i = 0; i < path.size(); ++i)
        path_index_of[static_cast<std::size_t>(path[i])] =
            static_cast<std::int32_t>(i);
    std::vector<OffPathAttachment> off = {
        {0, path_index_of[1]},   {6, path_index_of[7]},
        {11, path_index_of[8]},  {15, path_index_of[12]},
        {20, path_index_of[19]}, {26, path_index_of[25]},
    };
    b.set_longest_path(std::move(path), std::move(off));
    return b.build();
}

CouplingGraph
make_custom(std::int32_t num_qubits,
            const std::vector<VertexPair>& couplers, std::string name)
{
    CouplingGraphBuilder b(num_qubits, ArchKind::Custom, std::move(name));
    for (const auto& c : couplers)
        b.add_coupler(c.a, c.b);
    return b.build();
}

CouplingGraph
smallest_arch(ArchKind kind, std::int32_t min_qubits)
{
    fatal_unless(min_qubits >= 1, "need at least one qubit");
    auto square_dims = [&](std::int32_t n) {
        std::int32_t rows = static_cast<std::int32_t>(
            std::ceil(std::sqrt(static_cast<double>(n))));
        std::int32_t cols = (n + rows - 1) / rows;
        return std::pair<std::int32_t, std::int32_t>(rows, cols);
    };

    switch (kind) {
      case ArchKind::Line:
        return make_line(min_qubits);
      case ArchKind::Grid: {
        auto [r, c] = square_dims(min_qubits);
        return make_grid(r, c);
      }
      case ArchKind::Sycamore: {
        auto [r, c] = square_dims(min_qubits);
        return make_sycamore(r, c);
      }
      case ArchKind::Hexagon: {
        auto [r, c] = square_dims(min_qubits);
        return make_hexagon(r, c);
      }
      case ArchKind::HeavyHex: {
        // Search row lengths L (L % 4 == 3) for a small device covering
        // min_qubits while keeping the drawn shape near square (§7.1).
        // Rows are two coordinate rows apart, so "square" means
        // 2*rows ~ cols; the score trades qubit overhead against
        // aspect-ratio distortion.
        std::int64_t best_score = -1;
        std::int32_t best_rows = 0, best_cols = 0;
        for (std::int32_t cols = 3; cols <= 1027; cols += 4) {
            std::int32_t per_gap = (cols + 1) / 4;
            std::int32_t rows =
                (min_qubits + per_gap + cols + per_gap - 1) /
                (cols + per_gap);
            rows = std::max(rows, 1);
            std::int32_t total = rows * cols + (rows - 1) * per_gap;
            while (total < min_qubits) {
                ++rows;
                total = rows * cols + (rows - 1) * per_gap;
            }
            std::int64_t score =
                total + 2ll * std::abs(2 * rows - cols);
            if (best_score < 0 || score < best_score) {
                best_score = score;
                best_rows = rows;
                best_cols = cols;
            }
        }
        return make_heavy_hex(best_rows, best_cols);
      }
      case ArchKind::Lattice3D: {
        std::int32_t s = 1;
        while (s * s * s < min_qubits)
            ++s;
        return make_lattice3d(s, s, s);
      }
      case ArchKind::Custom:
        break;
    }
    throw FatalError("smallest_arch: unsupported architecture kind");
}

namespace {

/** The name table behind named_device(); no family means the fixed
 *  Mumbai device. */
struct NamedDevice
{
    const char* name;
    std::optional<ArchKind> family;
};

constexpr NamedDevice kNamedDevices[] = {
    {"line", ArchKind::Line},         {"grid", ArchKind::Grid},
    {"sycamore", ArchKind::Sycamore}, {"heavyhex", ArchKind::HeavyHex},
    {"hexagon", ArchKind::Hexagon},   {"lattice3d", ArchKind::Lattice3D},
    {"mumbai", std::nullopt},
};

} // namespace

const std::vector<std::string>&
named_devices()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const NamedDevice& device : kNamedDevices)
            out.emplace_back(device.name);
        return out;
    }();
    return names;
}

CouplingGraph
named_device(const std::string& name, std::int32_t qubits)
{
    for (const NamedDevice& device : kNamedDevices)
        if (name == device.name)
            return device.family ? smallest_arch(*device.family, qubits)
                                 : make_mumbai();
    throw std::invalid_argument("unknown arch \"" + name + "\"");
}

} // namespace permuq::arch
