#include "placement.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"

namespace permuq::core {

circuit::Mapping
connectivity_strength_placement(const arch::CouplingGraph& device,
                                const graph::Graph& problem)
{
    telemetry::ScopedSpan span("placement.connectivity");
    std::int32_t n = problem.num_vertices();
    std::int32_t num_phys = device.num_qubits();
    const auto& dist = device.distances();

    // Physical centrality: degree, tie-broken by closeness (the summed
    // distance row; an unreachable pair adds kUnreachable).
    using graph::DistanceMatrix;
    std::vector<std::int64_t> closeness(
        static_cast<std::size_t>(num_phys), 0);
    for (std::int32_t p = 0; p < num_phys; ++p) {
        const std::uint16_t* row = dist.row(p);
        std::int64_t sum = 0;
        for (std::int32_t q = 0; q < num_phys; ++q)
            sum += DistanceMatrix::decode(row[static_cast<std::size_t>(q)]);
        closeness[static_cast<std::size_t>(p)] = sum;
    }

    std::vector<PhysicalQubit> phys_of(
        static_cast<std::size_t>(n), kInvalidQubit);
    std::vector<std::uint8_t> pos_used(
        static_cast<std::size_t>(num_phys), 0);
    std::vector<bool> placed(static_cast<std::size_t>(n), false);
    // Number of already-placed problem neighbors of each vertex,
    // maintained incrementally instead of recounted per step.
    std::vector<std::int32_t> placed_nbrs(static_cast<std::size_t>(n), 0);
    // Summed distance from each position to the placed neighbors of
    // the current pick; reused across steps. 64-bit, because on a
    // disconnected device each unreachable pair adds kUnreachable.
    std::vector<std::int64_t> acc(static_cast<std::size_t>(num_phys), 0);

    auto best_free_central = [&] {
        PhysicalQubit best = kInvalidQubit;
        for (std::int32_t p = 0; p < num_phys; ++p) {
            if (pos_used[static_cast<std::size_t>(p)] != 0)
                continue;
            if (best == kInvalidQubit ||
                device.connectivity().degree(p) >
                    device.connectivity().degree(best) ||
                (device.connectivity().degree(p) ==
                     device.connectivity().degree(best) &&
                 closeness[static_cast<std::size_t>(p)] <
                     closeness[static_cast<std::size_t>(best)]))
                best = p;
        }
        return best;
    };

    for (std::int32_t step = 0; step < n; ++step) {
        // Vertex with the most already-placed neighbors; ties by degree.
        std::int32_t pick = -1, pick_placed = -1;
        for (std::int32_t v = 0; v < n; ++v) {
            if (placed[static_cast<std::size_t>(v)])
                continue;
            std::int32_t num_placed =
                placed_nbrs[static_cast<std::size_t>(v)];
            if (pick == -1 || num_placed > pick_placed ||
                (num_placed == pick_placed &&
                 problem.degree(v) > problem.degree(pick))) {
                pick = v;
                pick_placed = num_placed;
            }
        }
        PhysicalQubit where = kInvalidQubit;
        if (pick_placed == 0) {
            where = best_free_central();
        } else {
            // Sum distances row-major: one sequential pass over the
            // distance row of each placed neighbor, then the first
            // strict minimum over free positions in ascending order.
            std::fill(acc.begin(), acc.end(), 0);
            for (std::int32_t w : problem.neighbors(pick)) {
                if (!placed[static_cast<std::size_t>(w)])
                    continue;
                const std::uint16_t* row =
                    dist.row(phys_of[static_cast<std::size_t>(w)]);
                for (std::int32_t p = 0; p < num_phys; ++p) {
                    const auto i = static_cast<std::size_t>(p);
                    acc[i] += DistanceMatrix::decode(row[i]);
                }
            }
            std::int64_t best_sum = -1;
            for (std::int32_t p = 0; p < num_phys; ++p) {
                if (pos_used[static_cast<std::size_t>(p)] != 0)
                    continue;
                if (best_sum < 0 ||
                    acc[static_cast<std::size_t>(p)] < best_sum) {
                    best_sum = acc[static_cast<std::size_t>(p)];
                    where = p;
                }
            }
        }
        panic_unless(where != kInvalidQubit, "placement ran out of qubits");
        phys_of[static_cast<std::size_t>(pick)] = where;
        pos_used[static_cast<std::size_t>(where)] = 1;
        placed[static_cast<std::size_t>(pick)] = true;
        for (std::int32_t w : problem.neighbors(pick))
            ++placed_nbrs[static_cast<std::size_t>(w)];
    }
    return circuit::Mapping(std::move(phys_of), device.num_qubits());
}

circuit::Mapping
perturbed_placement(const arch::CouplingGraph& device,
                    const graph::Graph& problem, Xoshiro256& rng)
{
    telemetry::ScopedSpan span("placement.perturbed");
    // Start from the deterministic connectivity-strength embedding and
    // anneal briefly; each multi-start trial draws from its own jump
    // stream so the result depends only on (device, problem, stream).
    std::int32_t n = problem.num_vertices();
    std::int32_t num_phys = device.num_qubits();
    const auto& dist = device.distances();

    auto seeded = connectivity_strength_placement(device, problem);
    std::vector<PhysicalQubit> phys_of(static_cast<std::size_t>(n));
    std::vector<LogicalQubit> logical_at(
        static_cast<std::size_t>(num_phys), kInvalidQubit);
    for (std::int32_t l = 0; l < n; ++l) {
        phys_of[static_cast<std::size_t>(l)] = seeded.physical_of(l);
        logical_at[static_cast<std::size_t>(seeded.physical_of(l))] = l;
    }

    auto vertex_cost = [&](LogicalQubit v, PhysicalQubit at) {
        std::int64_t sum = 0;
        for (std::int32_t w : problem.neighbors(v))
            sum += dist.at(at, phys_of[static_cast<std::size_t>(w)]);
        return sum;
    };

    std::int64_t iterations = 20ll * n;
    double temperature = 2.0;
    double cooling = std::pow(
        1e-2 / temperature,
        1.0 / static_cast<double>(std::max<std::int64_t>(iterations, 1)));
    for (std::int64_t it = 0; it < iterations; ++it) {
        LogicalQubit v = static_cast<LogicalQubit>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        PhysicalQubit to = static_cast<PhysicalQubit>(
            rng.next_below(static_cast<std::uint64_t>(num_phys)));
        PhysicalQubit from = phys_of[static_cast<std::size_t>(v)];
        if (to == from)
            continue;
        LogicalQubit other = logical_at[static_cast<std::size_t>(to)];
        std::int64_t before = vertex_cost(v, from);
        std::int64_t after = vertex_cost(v, to);
        if (other != kInvalidQubit) {
            before += vertex_cost(other, to);
            after += vertex_cost(other, from);
        }
        std::int64_t delta = after - before;
        if (delta <= 0 ||
            rng.next_double() <
                std::exp(-static_cast<double>(delta) /
                         std::max(temperature, 1e-9))) {
            phys_of[static_cast<std::size_t>(v)] = to;
            logical_at[static_cast<std::size_t>(to)] = v;
            logical_at[static_cast<std::size_t>(from)] = other;
            if (other != kInvalidQubit)
                phys_of[static_cast<std::size_t>(other)] = from;
        }
        temperature *= cooling;
    }
    return circuit::Mapping(std::move(phys_of), device.num_qubits());
}

} // namespace permuq::core
