/**
 * @file
 * Compile-time scaling benchmark: compares the incremental greedy
 * engine (executable-edge frontier, flat lookup tables, schedule
 * memoization, parallel candidate materialization) against a faithful
 * replica of the pre-rework compiler (hash-map edge/coupler indices,
 * full per-cycle coupler scans, hash-based replay bookkeeping,
 * serial single-start pipeline) on grid, heavy-hex, and Sycamore
 * devices up to 1024 qubits, and reports multi-start thread scaling.
 * The replica is kept frozen so the speedup is measured against
 * exactly what the rework replaced; both compilers must produce
 * bit-identical circuits (verified in-binary by hashing).
 *
 * A second section measures region-sharded compilation on fabric-scale
 * grids with locality-structured problems (fabric_local_graph):
 * sharded vs unsharded wall time at 1024/4096 qubits, sharded-only
 * completion at 16384, bit-identical output across thread counts, and
 * (full runs only) a 102400-qubit streaming-QASM compile whose peak
 * RSS must stay inside the documented 512 MiB budget.
 *
 * A third section sweeps the interactive tier dial (fast/balanced/
 * best) on 3-regular QAOA instances at 128/256/512 qubits on grid and
 * Sycamore devices, verifying every fast-tier plan symbolically and
 * gating fast-tier latency (<= 1 ms at 256q), the Sycamore 256q
 * speedup (>= 20x vs best), and the fast/best depth ratio (<= 1.5x).
 * Pass --tiers to run only this section (no JSON output).
 *
 * A fourth section measures the compile service's warm path: an
 * in-process permuqd Server compiles a heavy-hex 256q request cold,
 * then the same request is replayed over the socket and served from
 * the plan cache; the client-side round-trip p50 must stay inside the
 * warm-latency budget and every warm response must be byte-identical
 * to the cold one. The same section times the response stage of the
 * largest compile-cold plan (1024q Sycamore, fast tier): the plan
 * fragment written from the circuit plus the gather-written result
 * frame, read back over a socket pair and checked byte-identical to
 * the string path (to_qasm, build_plan_fragment, build_result_payload,
 * encode_frame), against its own budget. Pass --service to run only
 * this section (no JSON output).
 *
 * Emits BENCH_compile.json in the working directory. Pass --smoke to
 * cap the sweep at 256 qubits (CI); the >=3x acceptance gates (legacy
 * vs incremental at 1024, unsharded vs sharded at 4096) apply only to
 * the full run.
 *
 * Knobs: PERMUQ_COMPILE_REPS (timing repetitions, best-of, default 2),
 * PERMUQ_COMPILE_DENSITY_PCT (ER density in percent, default 30).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "arch/coupling_graph.h"
#include "bench_util.h"
#include "circuit/metrics.h"
#include "circuit/qasm.h"
#include "common/json.h"
#include "common/log/log.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/compiler.h"
#include "core/crosstalk.h"
#include "core/prediction.h"
#include "core/shard.h"
#include "graph/coloring.h"
#include "graph/matching.h"
#include "problem/generators.h"
#include "service/client.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/server.h"
#include "verify/equivalence.h"

using namespace permuq;

namespace legacy {

/**
 * Frozen replica of the seed's replay loop: per-slot pending lookups
 * through an unordered_map keyed by logical pair.
 */
circuit::Circuit
replay(const arch::CouplingGraph& /*device*/, const graph::Graph& problem,
       const circuit::Mapping& initial, const ata::SwapSchedule& sched,
       const std::vector<bool>* done)
{
    std::unordered_map<VertexPair, bool, VertexPairHash> pending;
    std::vector<std::int32_t> pending_degree(
        static_cast<std::size_t>(problem.num_vertices()), 0);
    std::int64_t remaining = 0;
    const auto& edges = problem.edges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (done != nullptr && (*done)[i])
            continue;
        pending.emplace(edges[i], true);
        ++pending_degree[static_cast<std::size_t>(edges[i].a)];
        ++pending_degree[static_cast<std::size_t>(edges[i].b)];
        ++remaining;
    }

    circuit::Circuit circ(initial);
    for (const auto& slot : sched.slots) {
        if (remaining == 0)
            break; // stop_early (the production default)
        LogicalQubit a = circ.final_mapping().logical_at(slot.p);
        LogicalQubit b = circ.final_mapping().logical_at(slot.q);
        if (slot.kind == ata::Slot::Kind::Compute) {
            if (a == kInvalidQubit || b == kInvalidQubit)
                continue;
            auto it = pending.find(VertexPair(a, b));
            if (it == pending.end() || !it->second)
                continue;
            circ.add_compute(slot.p, slot.q);
            it->second = false;
            --pending_degree[static_cast<std::size_t>(a)];
            --pending_degree[static_cast<std::size_t>(b)];
            --remaining;
        } else {
            // skip_dead_swaps (the production default).
            bool a_dead =
                a == kInvalidQubit ||
                pending_degree[static_cast<std::size_t>(a)] == 0;
            bool b_dead =
                b == kInvalidQubit ||
                pending_degree[static_cast<std::size_t>(b)] == 0;
            if (a_dead && b_dead)
                continue;
            circ.add_swap(slot.p, slot.q);
        }
    }
    return circ;
}

/** Frozen replica of the seed's O(V^2 * deg) placement. */
circuit::Mapping
placement(const arch::CouplingGraph& device, const graph::Graph& problem)
{
    std::int32_t n = problem.num_vertices();
    const auto& dist = device.distances();

    std::vector<std::int64_t> closeness(
        static_cast<std::size_t>(device.num_qubits()), 0);
    for (std::int32_t p = 0; p < device.num_qubits(); ++p)
        for (std::int32_t q = 0; q < device.num_qubits(); ++q)
            closeness[static_cast<std::size_t>(p)] += dist.at(p, q);

    std::vector<PhysicalQubit> phys_of(
        static_cast<std::size_t>(n), kInvalidQubit);
    std::vector<bool> pos_used(
        static_cast<std::size_t>(device.num_qubits()), false);
    std::vector<bool> placed(static_cast<std::size_t>(n), false);

    auto best_free_central = [&] {
        PhysicalQubit best = kInvalidQubit;
        for (std::int32_t p = 0; p < device.num_qubits(); ++p) {
            if (pos_used[static_cast<std::size_t>(p)])
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
        std::int32_t pick = -1, pick_placed = -1;
        for (std::int32_t v = 0; v < n; ++v) {
            if (placed[static_cast<std::size_t>(v)])
                continue;
            std::int32_t num_placed = 0;
            for (std::int32_t w : problem.neighbors(v))
                if (placed[static_cast<std::size_t>(w)])
                    ++num_placed;
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
            std::int64_t best_sum = -1;
            for (std::int32_t p = 0; p < device.num_qubits(); ++p) {
                if (pos_used[static_cast<std::size_t>(p)])
                    continue;
                std::int64_t sum = 0;
                for (std::int32_t w : problem.neighbors(pick))
                    if (placed[static_cast<std::size_t>(w)])
                        sum += dist.at(
                            p, phys_of[static_cast<std::size_t>(w)]);
                if (best_sum < 0 || sum < best_sum) {
                    best_sum = sum;
                    where = p;
                }
            }
        }
        panic_unless(where != kInvalidQubit, "placement ran out of qubits");
        phys_of[static_cast<std::size_t>(pick)] = where;
        pos_used[static_cast<std::size_t>(where)] = true;
        placed[static_cast<std::size_t>(pick)] = true;
    }
    return circuit::Mapping(std::move(phys_of), device.num_qubits());
}

struct Snapshot
{
    std::int64_t prefix_ops = 0;
    double est_depth = 0.0;
    double est_cx = 0.0;
};

/**
 * Frozen replica of the pre-rework greedy engine: edge and coupler
 * hash indices, a full coupler rescan per cycle for executable gates,
 * unordered_map gain accumulation, no frontier, no schedule cache.
 */
class GreedyEngine
{
  public:
    GreedyEngine(const arch::CouplingGraph& device,
                 const graph::Graph& problem,
                 const core::CompilerOptions& options,
                 const core::CrosstalkMap* crosstalk,
                 circuit::Mapping initial)
        : device_(device),
          problem_(problem),
          options_(options),
          crosstalk_(crosstalk),
          circ_(std::move(initial)),
          done_(static_cast<std::size_t>(problem.num_edges()), false),
          pending_deg_(static_cast<std::size_t>(problem.num_vertices()),
                       0),
          last_swap_cycle_(device.couplers().size(), -10)
    {
        pending_adj_.resize(
            static_cast<std::size_t>(problem.num_vertices()));
        for (std::int32_t e = 0; e < problem.num_edges(); ++e) {
            const auto& edge =
                problem.edges()[static_cast<std::size_t>(e)];
            edge_index_.emplace(edge, e);
            ++pending_deg_[static_cast<std::size_t>(edge.a)];
            ++pending_deg_[static_cast<std::size_t>(edge.b)];
            pending_adj_[static_cast<std::size_t>(edge.a)].emplace_back(
                edge.b, e);
            pending_adj_[static_cast<std::size_t>(edge.b)].emplace_back(
                edge.a, e);
        }
        pending_ = problem.num_edges();
        for (std::int32_t c = 0;
             c < static_cast<std::int32_t>(device.couplers().size()); ++c)
            coupler_index_.emplace(
                device.couplers()[static_cast<std::size_t>(c)], c);
    }

    void
    run()
    {
        std::int64_t max_cycles = static_cast<std::int64_t>(
            options_.max_cycle_factor *
                (4.0 * device_.num_qubits() + 64.0) +
            64.0);
        std::int64_t snapshot_step = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(options_.snapshot_fraction *
                                         problem_.num_edges()));
        std::int64_t next_snapshot = pending_ - snapshot_step;
        maybe_snapshot();

        for (std::int64_t cycle = 0; pending_ > 0 && cycle < max_cycles;
             ++cycle) {
            bool progress = step(cycle);
            if (options_.use_ata_prediction && pending_ <= next_snapshot) {
                maybe_snapshot();
                next_snapshot = pending_ - snapshot_step;
            }
            if (!progress)
                break;
        }
        if (pending_ > 0) {
            if (device_.kind() == arch::ArchKind::Custom) {
                route_remaining();
            } else {
                auto plan =
                    core::detect_regions(device_, problem_, done_,
                                         circ_.final_mapping());
                auto sched = core::tail_schedule(device_, plan);
                auto tail = replay(device_, problem_,
                                   circ_.final_mapping(), sched, &done_);
                circ_.append_circuit(tail);
                pending_ = 0;
            }
        }
    }

    const circuit::Circuit& circuit() const { return circ_; }
    const std::vector<Snapshot>& snapshots() const { return snapshots_; }

  private:
    void
    route_remaining()
    {
        const auto& dist = device_.distances();
        for (std::int32_t e = 0; e < problem_.num_edges(); ++e) {
            if (done_[static_cast<std::size_t>(e)])
                continue;
            const auto& edge =
                problem_.edges()[static_cast<std::size_t>(e)];
            PhysicalQubit pa = circ_.final_mapping().physical_of(edge.a);
            PhysicalQubit pb = circ_.final_mapping().physical_of(edge.b);
            while (dist.at(pa, pb) > 1) {
                std::int32_t d = dist.at(pa, pb);
                for (PhysicalQubit nb :
                     device_.connectivity().neighbors(pa)) {
                    if (dist.at(nb, pb) < d) {
                        circ_.add_swap(pa, nb);
                        pa = nb;
                        break;
                    }
                }
            }
            circ_.add_compute(pa, pb);
            done_[static_cast<std::size_t>(e)] = true;
            --pending_deg_[static_cast<std::size_t>(edge.a)];
            --pending_deg_[static_cast<std::size_t>(edge.b)];
            --pending_;
        }
    }

    bool
    step(std::int64_t cycle)
    {
        const auto& mapping = circ_.final_mapping();
        const auto& couplers = device_.couplers();
        std::int32_t num_couplers =
            static_cast<std::int32_t>(couplers.size());

        if (cycle - last_compute_cycle_ > 8) {
            std::int32_t best_e = -1, best_d = kUnreachable;
            for (std::int32_t e = 0; e < problem_.num_edges(); ++e) {
                if (done_[static_cast<std::size_t>(e)])
                    continue;
                const auto& edge =
                    problem_.edges()[static_cast<std::size_t>(e)];
                std::int32_t d = device_.distances().at(
                    mapping.physical_of(edge.a),
                    mapping.physical_of(edge.b));
                if (d < best_d) {
                    best_d = d;
                    best_e = e;
                }
            }
            panic_unless(best_e >= 0, "pending without edges");
            const auto& edge =
                problem_.edges()[static_cast<std::size_t>(best_e)];
            PhysicalQubit pa = mapping.physical_of(edge.a);
            PhysicalQubit pb = mapping.physical_of(edge.b);
            while (device_.distances().at(pa, pb) > 1) {
                std::int32_t d = device_.distances().at(pa, pb);
                for (PhysicalQubit nb :
                     device_.connectivity().neighbors(pa)) {
                    if (device_.distances().at(nb, pb) < d) {
                        circ_.add_swap(pa, nb);
                        pa = nb;
                        break;
                    }
                }
            }
            circ_.add_compute(pa, pb);
            done_[static_cast<std::size_t>(best_e)] = true;
            --pending_deg_[static_cast<std::size_t>(edge.a)];
            --pending_deg_[static_cast<std::size_t>(edge.b)];
            --pending_;
            last_compute_cycle_ = cycle;
            return true;
        }

        // Full per-cycle executable scan (the rework's frontier
        // replaced exactly this loop).
        struct Executable
        {
            std::int32_t coupler;
            std::int32_t edge;
        };
        std::vector<Executable> executable;
        for (std::int32_t c = 0; c < num_couplers; ++c) {
            const auto& link = couplers[static_cast<std::size_t>(c)];
            LogicalQubit a = mapping.logical_at(link.a);
            LogicalQubit b = mapping.logical_at(link.b);
            if (a == kInvalidQubit || b == kInvalidQubit)
                continue;
            auto it = edge_index_.find(VertexPair(a, b));
            if (it != edge_index_.end() &&
                !done_[static_cast<std::size_t>(it->second)])
                executable.push_back({c, it->second});
        }

        std::vector<bool> used(
            static_cast<std::size_t>(device_.num_qubits()), false);
        bool did_something = false;
        if (!executable.empty()) {
            graph::Graph conflict(
                static_cast<std::int32_t>(executable.size()));
            std::unordered_map<std::int32_t, std::vector<std::int32_t>>
                by_qubit;
            for (std::size_t i = 0; i < executable.size(); ++i) {
                const auto& link = couplers[static_cast<std::size_t>(
                    executable[i].coupler)];
                by_qubit[link.a].push_back(static_cast<std::int32_t>(i));
                by_qubit[link.b].push_back(static_cast<std::int32_t>(i));
            }
            for (const auto& [q, list] : by_qubit)
                for (std::size_t i = 0; i < list.size(); ++i)
                    for (std::size_t j = i + 1; j < list.size(); ++j)
                        if (!conflict.has_edge(list[i], list[j]))
                            conflict.add_edge(list[i], list[j]);
            auto coloring = graph::greedy_coloring(conflict);
            std::int32_t cls = graph::largest_class(coloring);
            for (std::int32_t i :
                 coloring.classes[static_cast<std::size_t>(cls)]) {
                const auto& ex = executable[static_cast<std::size_t>(i)];
                const auto& link =
                    couplers[static_cast<std::size_t>(ex.coupler)];
                circ_.add_compute(link.a, link.b);
                done_[static_cast<std::size_t>(ex.edge)] = true;
                const auto& edge =
                    problem_.edges()[static_cast<std::size_t>(ex.edge)];
                --pending_deg_[static_cast<std::size_t>(edge.a)];
                --pending_deg_[static_cast<std::size_t>(edge.b)];
                --pending_;
                used[static_cast<std::size_t>(link.a)] = true;
                used[static_cast<std::size_t>(link.b)] = true;
                last_compute_cycle_ = cycle;
                did_something = true;
                if (swap_rider_gain(edge.a, edge.b) < 0) {
                    circ_.add_swap(link.a, link.b);
                    last_swap_cycle_[static_cast<std::size_t>(
                        ex.coupler)] = cycle;
                }
            }
        }
        if (pending_ == 0)
            return did_something;

        const auto& dist = device_.distances();
        std::unordered_map<std::int32_t, double> gain;
        if (pull_cache_.empty())
            pull_cache_.resize(
                static_cast<std::size_t>(problem_.num_vertices()));
        for (LogicalQubit a = 0; a < problem_.num_vertices(); ++a) {
            if (pending_deg_[static_cast<std::size_t>(a)] == 0)
                continue;
            PhysicalQubit pa = mapping.physical_of(a);
            if (used[static_cast<std::size_t>(pa)])
                continue;
            auto& cache = pull_cache_[static_cast<std::size_t>(a)];
            std::int32_t best_d;
            PhysicalQubit target;
            if (cache.expires > cycle && cache.partner >= 0 &&
                !done_[static_cast<std::size_t>(cache.edge)]) {
                target = mapping.physical_of(cache.partner);
                best_d = dist.at(pa, target);
            } else {
                best_d = kUnreachable;
                target = kInvalidQubit;
                LogicalQubit partner = kInvalidQubit;
                std::int32_t edge = -1;
                for (const auto& [b, e] :
                     pending_adj_[static_cast<std::size_t>(a)]) {
                    if (done_[static_cast<std::size_t>(e)])
                        continue;
                    std::int32_t d = dist.at(pa, mapping.physical_of(b));
                    if (d < best_d) {
                        best_d = d;
                        target = mapping.physical_of(b);
                        partner = b;
                        edge = e;
                    }
                }
                cache.partner = partner;
                cache.edge = edge;
                cache.expires =
                    cycle + 1 + problem_.num_vertices() / 128;
            }
            if (best_d <= 1 || target == kInvalidQubit)
                continue;
            for (PhysicalQubit nb :
                 device_.connectivity().neighbors(pa)) {
                if (used[static_cast<std::size_t>(nb)])
                    continue;
                if (dist.at(nb, target) >= best_d)
                    continue;
                auto it = coupler_index_.find(VertexPair(pa, nb));
                panic_unless(it != coupler_index_.end(),
                             "neighbor without coupler");
                if (last_swap_cycle_[static_cast<std::size_t>(
                        it->second)] == cycle - 1)
                    continue;
                double w = 1.0 / static_cast<double>(best_d);
                w *= 1.0 + 1e-7 * static_cast<double>(it->second % 97);
                gain[it->second] += w;
            }
        }

        std::vector<graph::WeightedEdge> candidates;
        std::vector<std::int32_t> candidate_coupler;
        for (const auto& [c, w] : gain) {
            const auto& link =
                device_.couplers()[static_cast<std::size_t>(c)];
            candidates.push_back({link.a, link.b, w});
            candidate_coupler.push_back(c);
        }
        auto picks = graph::greedy_max_weight_matching(
            device_.num_qubits(), candidates);
        for (std::int32_t i : picks) {
            const auto& cand = candidates[static_cast<std::size_t>(i)];
            circ_.add_swap(cand.u, cand.v);
            last_swap_cycle_[static_cast<std::size_t>(
                candidate_coupler[static_cast<std::size_t>(i)])] = cycle;
            did_something = true;
        }

        if (!did_something && pending_ > 0) {
            std::int32_t best_e = -1, best_d = kUnreachable;
            for (std::int32_t e = 0; e < problem_.num_edges(); ++e) {
                if (done_[static_cast<std::size_t>(e)])
                    continue;
                const auto& edge =
                    problem_.edges()[static_cast<std::size_t>(e)];
                std::int32_t d = dist.at(mapping.physical_of(edge.a),
                                         mapping.physical_of(edge.b));
                if (d < best_d) {
                    best_d = d;
                    best_e = e;
                }
            }
            panic_unless(best_e >= 0, "pending without edges");
            const auto& edge =
                problem_.edges()[static_cast<std::size_t>(best_e)];
            PhysicalQubit pa = mapping.physical_of(edge.a);
            PhysicalQubit pb = mapping.physical_of(edge.b);
            for (PhysicalQubit nb :
                 device_.connectivity().neighbors(pa)) {
                if (dist.at(nb, pb) < best_d) {
                    circ_.add_swap(pa, nb);
                    did_something = true;
                    break;
                }
            }
        }
        return did_something;
    }

    std::int64_t
    swap_rider_gain(LogicalQubit a, LogicalQubit b) const
    {
        const auto& mapping = circ_.final_mapping();
        const auto& dist = device_.distances();
        PhysicalQubit pa = mapping.physical_of(a);
        PhysicalQubit pb = mapping.physical_of(b);
        std::int64_t delta = 0;
        auto tally = [&](LogicalQubit q, PhysicalQubit from,
                         PhysicalQubit to) {
            for (const auto& [partner, e] :
                 pending_adj_[static_cast<std::size_t>(q)]) {
                if (done_[static_cast<std::size_t>(e)])
                    continue;
                PhysicalQubit pp = mapping.physical_of(partner);
                delta += dist.at(to, pp) - dist.at(from, pp);
            }
        };
        tally(a, pa, pb);
        tally(b, pb, pa);
        return delta;
    }

    void
    maybe_snapshot()
    {
        if (!options_.use_ata_prediction)
            return;
        auto plan = core::detect_regions(device_, problem_, done_,
                                         circ_.final_mapping());
        Snapshot snap;
        snap.prefix_ops = static_cast<std::int64_t>(circ_.ops().size());
        snap.est_depth = static_cast<double>(circ_.depth()) +
                         core::estimate_tail_depth(device_, plan);
        snap.est_cx =
            2.0 * static_cast<double>(circ_.num_compute()) +
            3.0 * static_cast<double>(circ_.num_swaps()) +
            core::estimate_tail_cx(device_, plan, pending_);
        snapshots_.push_back(snap);
    }

    const arch::CouplingGraph& device_;
    const graph::Graph& problem_;
    const core::CompilerOptions& options_;
    const core::CrosstalkMap* crosstalk_;
    circuit::Circuit circ_;
    std::vector<bool> done_;
    std::vector<std::int32_t> pending_deg_;
    std::vector<std::vector<std::pair<LogicalQubit, std::int32_t>>>
        pending_adj_;
    std::vector<std::int64_t> last_swap_cycle_;
    std::unordered_map<VertexPair, std::int32_t, VertexPairHash>
        edge_index_;
    std::unordered_map<VertexPair, std::int32_t, VertexPairHash>
        coupler_index_;
    struct PullCache
    {
        LogicalQubit partner = kInvalidQubit;
        std::int32_t edge = -1;
        std::int64_t expires = -1;
    };
    std::vector<PullCache> pull_cache_;
    std::int64_t pending_ = 0;
    std::int64_t last_compute_cycle_ = 0;
    std::vector<Snapshot> snapshots_;
};

circuit::Circuit
materialize_hybrid(const arch::CouplingGraph& device,
                   const graph::Graph& problem,
                   const circuit::Circuit& greedy,
                   std::int64_t prefix_ops)
{
    circuit::Circuit circ(greedy.initial_mapping());
    std::vector<bool> done(static_cast<std::size_t>(problem.num_edges()),
                           false);
    std::unordered_map<VertexPair, std::int32_t, VertexPairHash>
        edge_index;
    for (std::int32_t e = 0; e < problem.num_edges(); ++e)
        edge_index.emplace(problem.edges()[static_cast<std::size_t>(e)],
                           e);
    for (std::int64_t i = 0; i < prefix_ops; ++i) {
        const auto& op = greedy.ops()[static_cast<std::size_t>(i)];
        if (op.kind == circuit::OpKind::Compute) {
            circ.add_compute(op.p, op.q);
            auto it = edge_index.find(VertexPair(op.a, op.b));
            panic_unless(it != edge_index.end(),
                         "prefix compute on unknown edge");
            done[static_cast<std::size_t>(it->second)] = true;
        } else {
            circ.add_swap(op.p, op.q);
        }
    }
    auto plan =
        core::detect_regions(device, problem, done, circ.final_mapping());
    auto sched = core::tail_schedule(device, plan);
    auto tail =
        replay(device, problem, circ.final_mapping(), sched, &done);
    circ.append_circuit(tail);
    return circ;
}

/** Frozen replica of the pre-rework serial single-start compile(). */
core::CompileResult
compile(const arch::CouplingGraph& device, const graph::Graph& problem,
        const core::CompilerOptions& options_in)
{
    core::CompileResult result;
    core::CompilerOptions options = options_in;
    if (device.kind() == arch::ArchKind::Custom &&
        options.use_ata_prediction)
        options.use_ata_prediction = false;

    std::unique_ptr<core::CrosstalkMap> crosstalk;
    if (options.crosstalk_aware)
        crosstalk = std::make_unique<core::CrosstalkMap>(device);

    circuit::Mapping initial =
        options.smart_placement
            ? placement(device, problem)
            : circuit::Mapping(problem.num_vertices(),
                               device.num_qubits());
    GreedyEngine engine(device, problem, options, crosstalk.get(),
                        std::move(initial));
    engine.run();
    const circuit::Circuit& greedy = engine.circuit();
    auto greedy_metrics = circuit::compute_metrics(greedy, options.noise);

    result.circuit = greedy;
    result.metrics = greedy_metrics;
    result.selected = "greedy";
    result.snapshots =
        static_cast<std::int32_t>(engine.snapshots().size());

    if (options.use_ata_prediction && problem.num_edges() > 0) {
        std::vector<std::size_t> order(engine.snapshots().size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        double ref_depth = std::max<double>(1.0, greedy_metrics.depth);
        double ref_cx = std::max<double>(1.0, greedy_metrics.cx_count);
        auto est_cost = [&](const Snapshot& s) {
            return options.alpha * s.est_depth / ref_depth +
                   (1.0 - options.alpha) * s.est_cx / ref_cx;
        };
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return est_cost(engine.snapshots()[a]) <
                                    est_cost(engine.snapshots()[b]);
                         });

        std::vector<std::int64_t> to_materialize = {0};
        for (std::size_t i = 0;
             i < order.size() &&
             static_cast<std::int32_t>(to_materialize.size()) <
                 options.max_materialized_candidates;
             ++i) {
            std::int64_t prefix =
                engine.snapshots()[order[i]].prefix_ops;
            if (std::find(to_materialize.begin(), to_materialize.end(),
                          prefix) == to_materialize.end())
                to_materialize.push_back(prefix);
        }

        double best_cost =
            core::selector_cost(greedy_metrics, greedy_metrics,
                                options.noise, options.alpha);
        for (std::int64_t prefix : to_materialize) {
            auto candidate =
                materialize_hybrid(device, problem, greedy, prefix);
            auto metrics =
                circuit::compute_metrics(candidate, options.noise);
            double cost = core::selector_cost(metrics, greedy_metrics,
                                              options.noise, options.alpha);
            if (cost < best_cost) {
                best_cost = cost;
                result.circuit = std::move(candidate);
                result.metrics = metrics;
                result.selected = prefix == 0 ? "ata" : "hybrid";
            }
        }
    }
    return result;
}

} // namespace legacy

namespace {

std::uint64_t
circuit_hash(const circuit::Circuit& c)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    for (const auto& op : c.ops()) {
        mix(static_cast<std::uint64_t>(op.kind));
        mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.p)));
        mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.q)));
        mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.a)));
        mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.b)));
        mix(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(op.cycle)));
    }
    mix(static_cast<std::uint64_t>(c.depth()));
    mix(static_cast<std::uint64_t>(c.num_compute()));
    mix(static_cast<std::uint64_t>(c.num_swaps()));
    for (std::int32_t l = 0; l < c.final_mapping().num_logical(); ++l)
        mix(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(c.final_mapping().physical_of(l))));
    return h;
}

std::int32_t
env_int(const char* name, std::int32_t fallback)
{
    const char* v = std::getenv(name);
    if (v != nullptr && std::atoi(v) >= 1)
        return std::atoi(v);
    return fallback;
}

using bench::time_best;

struct Row
{
    std::string arch;
    std::int32_t requested = 0;
    std::int32_t qubits = 0;
    std::int32_t edges = 0;
    double legacy_seconds = 0.0;
    double new_seconds = 0.0;
    bool hash_match = false;
};

struct FabricRow
{
    std::int32_t qubits = 0;
    std::int32_t edges = 0;
    std::int32_t regions = 0;
    double unsharded_seconds = 0.0; // 0 = not measured at this size
    double sharded_seconds = 0.0;
    bool thread_identical = false;
};

long
peak_rss_kib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

// ------------------------------------------------- interactive tiers

struct TierRow
{
    std::string arch;
    std::string tier;
    std::int32_t requested = 0;
    std::int32_t qubits = 0;
    std::int32_t edges = 0;
    double seconds = 0.0;
    std::int32_t depth = 0;
    std::int64_t swaps = 0;
    /** Fast rows: Tier B symbolic verification of the timed plan. */
    bool verified = true;
    /** Fast/balanced rows: hash at 1 thread == hash at 4 threads. */
    bool thread_identical = true;
};

/** The per-tier acceptance gates (ISSUE 7 / EXPERIMENTS.md). */
struct TierGates
{
    /** Slowest fast-tier compile at 256 requested qubits, ms. */
    double fast_ms_256 = 0.0;
    /** best_seconds / fast_seconds on the Sycamore 256q row. */
    double speedup_sycamore_256 = 0.0;
    /** max over rows of fast depth / best depth. */
    double worst_depth_ratio = 0.0;
    bool verified = true;
    bool thread_identical = true;

    bool
    ok() const
    {
        return verified && thread_identical && fast_ms_256 <= 1.0 &&
               speedup_sycamore_256 >= 20.0 && worst_depth_ratio <= 1.5;
    }
};

/**
 * Latency/quality sweep of the tier dial on 3-regular QAOA instances
 * (the canonical service workload). Latencies are steady-state: the
 * device distance cache is built before timing, matching a long-lived
 * `permuqd`-style process serving many requests on one device. The
 * grid best tier replays disproportionately cheaply (its ATA schedule
 * is the bare odd-even transposition sort), so the headline >= 20x
 * speedup gate is held on the Sycamore row; the <= 1 ms fast-tier
 * budget and the <= 1.5x depth bound apply to every 256q row.
 */
TierGates
run_tier_section(bool smoke, std::int32_t reps,
                 std::vector<TierRow>& out)
{
    const arch::ArchKind kinds[] = {arch::ArchKind::Grid,
                                    arch::ArchKind::Sycamore};
    std::vector<std::int32_t> sizes = {128, 256, 512};
    if (smoke)
        sizes = {256};
    const std::int32_t hw_threads = common::num_threads();
    // The fast tier is cheap enough that extra best-of reps are free
    // and smooth out scheduler noise against the 1 ms budget.
    const std::int32_t fast_reps = std::max(reps, 9);

    TierGates gates;
    std::printf("\ninteractive tiers (3-regular QAOA, steady-state "
                "device cache)\n");
    std::printf("| %-9s | %6s | %-8s | %10s | %6s | %6s | %8s |\n",
                "arch", "req n", "tier", "seconds", "depth", "swaps",
                "vs best");
    for (auto kind : kinds) {
        for (std::int32_t n : sizes) {
            arch::CouplingGraph device = arch::smallest_arch(kind, n);
            device.distances(); // steady-state: cache built once
            auto problem = problem::random_regular_graph(n, 3, 12345);

            struct PerTier
            {
                core::CompileTier tier;
                const char* name;
                double seconds = 0.0;
                circuit::Metrics metrics{};
            } per[] = {
                {core::CompileTier::Fast, "fast"},
                {core::CompileTier::Balanced, "balanced"},
                {core::CompileTier::Best, "best"},
            };
            circuit::Circuit fast_circuit;
            auto measure_tiers = [&] {
                for (auto& t : per) {
                    core::CompilerOptions options;
                    options.tier = t.tier;
                    double s = time_best(
                        t.tier == core::CompileTier::Fast ? fast_reps
                                                          : reps,
                        [&] {
                            auto r =
                                core::compile(device, problem, options);
                            t.metrics = r.metrics;
                            if (t.tier == core::CompileTier::Fast)
                                fast_circuit = std::move(r.circuit);
                        });
                    t.seconds =
                        t.seconds == 0.0 ? s : std::min(t.seconds, s);
                }
            };
            measure_tiers();
            // A perf gate on shared hardware must tolerate an unlucky
            // timeslice: while a 256q gate quantity is failing,
            // re-measure (min-of-attempts on every tier, so numerator
            // and denominator stay comparable) up to twice. A real
            // regression fails all three attempts.
            if (n == 256) {
                for (int attempt = 0; attempt < 2; ++attempt) {
                    bool budget_ok = per[0].seconds * 1e3 <= 1.0;
                    bool speedup_ok =
                        kind != arch::ArchKind::Sycamore ||
                        per[2].seconds >= 20.0 * per[0].seconds;
                    if (budget_ok && speedup_ok)
                        break;
                    measure_tiers();
                }
            }
            const double best_seconds = per[2].seconds;

            // Untimed correctness passes on the fast plan: Tier B
            // symbolic verification (subsumes validate()) and hash
            // identity across thread counts for fast and balanced.
            bool verified =
                verify::check_symbolic(device, problem, fast_circuit).ok;
            bool thread_identical = true;
            for (auto tier : {core::CompileTier::Fast,
                              core::CompileTier::Balanced}) {
                core::CompilerOptions options;
                options.tier = tier;
                common::set_num_threads(1);
                auto r1 = core::compile(device, problem, options);
                common::set_num_threads(4);
                auto r4 = core::compile(device, problem, options);
                thread_identical =
                    thread_identical &&
                    circuit_hash(r1.circuit) == circuit_hash(r4.circuit);
            }
            common::set_num_threads(hw_threads);
            gates.verified = gates.verified && verified;
            gates.thread_identical =
                gates.thread_identical && thread_identical;

            for (const auto& t : per) {
                TierRow row;
                row.arch = arch::to_string(kind);
                row.tier = t.name;
                row.requested = n;
                row.qubits = device.num_qubits();
                row.edges = problem.num_edges();
                row.seconds = t.seconds;
                row.depth = t.metrics.depth;
                row.swaps = t.metrics.swap_gates;
                row.verified = verified;
                row.thread_identical = thread_identical;
                std::printf("| %-9s | %6d | %-8s | %10.6f | %6d | "
                            "%6lld | %7.1fx |%s%s\n",
                            row.arch.c_str(), n, t.name, t.seconds,
                            row.depth,
                            static_cast<long long>(row.swaps),
                            best_seconds / t.seconds,
                            verified ? "" : "  TIER-B FAIL",
                            thread_identical ? "" : "  THREAD MISMATCH");
                out.push_back(row);
            }

            const double ratio =
                static_cast<double>(per[0].metrics.depth) /
                static_cast<double>(std::max(1, per[2].metrics.depth));
            gates.worst_depth_ratio =
                std::max(gates.worst_depth_ratio, ratio);
            if (n == 256) {
                gates.fast_ms_256 = std::max(gates.fast_ms_256,
                                             per[0].seconds * 1e3);
                if (kind == arch::ArchKind::Sycamore)
                    gates.speedup_sycamore_256 =
                        best_seconds / per[0].seconds;
            }
        }
    }
    std::printf("tier gates: fast @256q %.3f ms (need <= 1 ms), "
                "sycamore 256q speedup %.1fx (need >= 20x), worst "
                "fast/best depth ratio %.2f (need <= 1.5), verified %s, "
                "thread-identical %s\n",
                gates.fast_ms_256, gates.speedup_sycamore_256,
                gates.worst_depth_ratio, gates.verified ? "yes" : "NO",
                gates.thread_identical ? "yes" : "NO");
    return gates;
}

// ------------------------------------------------- compile service

struct ServiceBench
{
    bool ran = false;
    std::int32_t qubits = 0;
    double cold_ms = 0.0;
    double warm_p50_ms = 0.0;
    double warm_p95_ms = 0.0;
    /** Client-side round-trip budget for the warm p50 (diff_bench.py
     *  fails the diff when raised without a baseline update). */
    double warm_budget_ms = 0.0;
    bool byte_identical = false;

    /** Response stage: fragment from the circuit plus the result frame
     *  of the 1024q Sycamore fast plan (best of a few runs). */
    double response_ms = 0.0;
    /** Its budget (diff_bench.py fails a raise, as for the warm p50). */
    double response_budget_ms = 0.0;
    std::size_t response_bytes = 0;
    bool response_identical = false;

    bool
    ok() const
    {
        return !ran || (byte_identical && warm_p50_ms <= warm_budget_ms &&
                        response_identical &&
                        response_ms <= response_budget_ms);
    }
};

/**
 * One timed response of @p summary / @p circuit as permuqd serves a
 * miss: the exact-size fragment from the circuit, then the result
 * frame as one gather write into a socket pair, drained by a reader
 * thread into @p received. Returns the milliseconds from the start of
 * the fragment to the last byte sent.
 */
double
timed_response(const service::PlanSummary& summary,
               const circuit::Circuit& circuit, const std::string& report,
               std::size_t frame_bytes, std::string& received)
{
    int fds[2];
    panic_unless(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                 "response stage: socketpair failed");
    received.clear();
    received.reserve(frame_bytes);
    std::thread reader([&] {
        std::vector<char> buf(1 << 20);
        for (;;) {
            const ssize_t n = ::recv(fds[1], buf.data(), buf.size(), 0);
            if (n <= 0)
                break;
            received.append(buf.data(), static_cast<std::size_t>(n));
        }
    });
    double ms = 0.0;
    bool sent = false;
    std::exception_ptr failure;
    try {
        Timer timer;
        const circuit::QasmProgram qasm(circuit, {},
                                        common::append_json_escaped);
        const std::string fragment =
            service::build_plan_fragment(summary, qasm, report);
        sent = service::send_result_frame(fds[0], 1, false, 0.0, 0.0,
                                          fragment);
        ms = timer.elapsed_ms();
    } catch (...) {
        failure = std::current_exception();
    }
    ::shutdown(fds[0], SHUT_WR);
    reader.join();
    ::close(fds[0]);
    ::close(fds[1]);
    if (failure)
        std::rethrow_exception(failure);
    panic_unless(sent, "response stage: send_result_frame failed");
    return ms;
}

/**
 * The response stage of the compile-cold ledger: the largest plan the
 * benchmark's daemon serves (1024q Sycamore at density 0.01, fast
 * tier, about 45 MB of QASM) turned into its result frame, best of
 * three runs, and checked byte-identical to the string path.
 */
void
run_response_stage(ServiceBench& out)
{
    // Set from 13 runs on one shared 4-vCPU AVX-512 host, where the
    // best of three took 61-101 ms; the string path it replaced spent
    // 740-900 ms on the same plan before its socket write, so the
    // budget leaves slower CI hardware 2.5x headroom and still fails
    // that path.
    constexpr double kResponseBudgetMs = 250.0;
    constexpr std::int32_t kQubits = 1024;
    out.response_budget_ms = kResponseBudgetMs;

    const auto problem = problem::random_graph(kQubits, 0.01, 1);
    const auto device =
        arch::smallest_arch(arch::ArchKind::Sycamore, kQubits);
    core::CompilerOptions options;
    options.tier = core::CompileTier::Fast;
    const auto result = core::compile(device, problem, options);
    service::PlanSummary summary;
    summary.tier = result.tier;
    summary.selected = result.selected;
    summary.depth = result.metrics.depth;
    summary.cx = result.metrics.cx_count;
    summary.swaps = result.metrics.swap_gates;
    const std::string report = result.report.to_json();

    const std::string want = service::encode_frame(
        service::build_result_payload(
            1, false, 0.0, 0.0,
            service::build_plan_fragment(
                summary, circuit::to_qasm(result.circuit), report)));
    out.response_bytes = want.size();
    out.response_identical = true;
    std::string received;
    auto measure = [&] {
        for (int rep = 0; rep < 3; ++rep) {
            const double ms = timed_response(summary, result.circuit,
                                             report, want.size(), received);
            out.response_identical =
                out.response_identical && received == want;
            if (out.response_ms == 0.0 || ms < out.response_ms)
                out.response_ms = ms;
        }
    };
    measure();
    // Same unlucky-timeslice policy as the warm path.
    for (int attempt = 0;
         attempt < 2 && out.response_ms > kResponseBudgetMs; ++attempt)
        measure();
    std::printf("response stage (sycamore %dq fast, %zu-byte frame): "
                "%.1f ms (budget %.0f ms), byte-identical to the string "
                "path: %s\n",
                kQubits, out.response_bytes, out.response_ms,
                kResponseBudgetMs, out.response_identical ? "yes" : "NO");
}

/**
 * Warm-path latency of the compile service: one in-process permuqd
 * Server, one client, one cold balanced compile of a heavy-hex 256q
 * request, then the identical request replayed and served from the
 * plan cache. Times are client-side round trips (frame encode, socket,
 * cache lookup, frame decode), i.e. what a caller of a long-lived
 * daemon actually observes -- the budget is deliberately loose against
 * loopback noise on shared CI hardware while still pinning the warm
 * path orders of magnitude under the cold compile.
 */
ServiceBench
run_service_section(bool smoke)
{
    constexpr double kWarmP50BudgetMs = 5.0;
    constexpr std::int32_t kQubits = 256;

    ServiceBench out;
    out.warm_budget_ms = kWarmP50BudgetMs;
    out.qubits = kQubits;

    service::ServerOptions server_options;
    server_options.port = 0;
    server_options.workers = 2;
    service::Server server(server_options);
    std::string error;
    if (!server.start(error)) {
        std::printf("\ncompile service section skipped: %s\n",
                    error.c_str());
        return out;
    }
    service::Client client;
    if (!client.connect(server.port(), error)) {
        std::printf("\ncompile service section skipped: %s\n",
                    error.c_str());
        return out;
    }

    // The canonical service workload (same as the tier section): a
    // 3-regular QAOA instance, sent as explicit edges the way a real
    // client ships its problem. The plan payload is what actually
    // rides the socket, so the warm numbers include encoding, the
    // cache lookup, and the client-side parse of the full QASM.
    const auto problem =
        problem::random_regular_graph(kQubits, 3, 12345);
    service::Request request;
    request.arch = "heavyhex";
    request.problem_n = kQubits;
    request.has_edges = true;
    for (const auto& edge : problem.edges())
        request.edges.push_back(edge);
    request.tier = "balanced";

    auto round_trip_ms = [&](std::int64_t id,
                             service::Response& response) {
        request.id = id;
        Timer timer;
        panic_unless(client.call(request, response, error),
                     "service bench call failed: " + error);
        panic_unless(response.type == "result",
                     "service bench got a non-result response");
        return timer.elapsed_ms();
    };

    service::Response cold;
    out.cold_ms = round_trip_ms(1, cold);
    panic_unless(!cold.cached, "first service request was a cache hit");

    const std::int32_t warm_iters = smoke ? 100 : 400;
    out.byte_identical = true;
    auto measure_warm = [&] {
        std::vector<double> warm_ms;
        service::Response warm;
        for (std::int32_t i = 0; i < warm_iters; ++i) {
            warm_ms.push_back(round_trip_ms(2 + i, warm));
            out.byte_identical = out.byte_identical && warm.cached &&
                                 warm.fragment == cold.fragment;
        }
        const double p50 = median(warm_ms);
        const double p95 = percentile(warm_ms, 95.0);
        if (out.warm_p50_ms == 0.0 || p50 < out.warm_p50_ms) {
            out.warm_p50_ms = p50;
            out.warm_p95_ms = p95;
        }
    };
    measure_warm();
    // Same unlucky-timeslice policy as the tier gates: re-measure
    // while the budget is failing; a real regression fails all three.
    for (int attempt = 0;
         attempt < 2 && out.warm_p50_ms > kWarmP50BudgetMs; ++attempt)
        measure_warm();
    out.ran = true;

    std::printf("\ncompile service warm path (heavy-hex %dq, balanced, "
                "loopback round trips)\n",
                kQubits);
    std::printf("cold %.3f ms, warm p50 %.4f ms / p95 %.4f ms "
                "(budget %.1f ms, %.0fx over cold), byte-identical: "
                "%s, cache hits %lld\n",
                out.cold_ms, out.warm_p50_ms, out.warm_p95_ms,
                kWarmP50BudgetMs, out.cold_ms / out.warm_p50_ms,
                out.byte_identical ? "yes" : "NO",
                static_cast<long long>(server.cache().hits()));
    server.stop();
    run_response_stage(out);
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    bool tiers_only = false;
    bool service_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--tiers") == 0)
            tiers_only = true;
        else if (std::strcmp(argv[i], "--service") == 0)
            service_only = true;
    }

    const std::int32_t reps = env_int("PERMUQ_COMPILE_REPS", 2);
    const double density =
        env_int("PERMUQ_COMPILE_DENSITY_PCT", 30) / 100.0;
    const std::int32_t hw_threads = common::num_threads();

    if (tiers_only) {
        // Targeted CI invocation: only the tier latency/quality gates,
        // no legacy replica or fabric sweep and no JSON (the default
        // and --smoke runs emit the tiers rows into BENCH_compile.json).
        bench::banner("compile-time scaling", "interactive tiers only");
        std::vector<TierRow> tier_rows;
        TierGates gates = run_tier_section(smoke, reps, tier_rows);
        return gates.ok() ? 0 : 1;
    }
    if (service_only) {
        // Targeted CI invocation: only the service warm-path gate, no
        // JSON (the default and --smoke runs emit the service section
        // into BENCH_compile.json).
        bench::banner("compile-time scaling", "compile service only");
        ServiceBench service = run_service_section(smoke);
        return service.ok() ? 0 : 1;
    }

    bench::banner("compile-time scaling",
                  smoke ? "incremental engine (smoke)"
                        : "incremental engine");

    // Fabric-scale streaming compile (full runs only): 102400 qubits,
    // QASM streamed band-by-band to a sink so no materialized circuit
    // or dense distance table ever exists. Runs FIRST because
    // ru_maxrss is a process-lifetime high-water mark -- any earlier
    // unsharded compile would mask the streaming footprint. The
    // 512 MiB peak-RSS budget is the documented bound
    // (EXPERIMENTS.md); measured usage is ~120 MiB, most of it the
    // coupling graph and the per-band circuits.
    constexpr long kStreamRssBudgetKib = 512 * 1024;
    double stream_seconds = 0.0;
    long stream_rss_kib = 0;
    core::ShardStreamResult stream;
    if (!smoke) {
        arch::CouplingGraph device = arch::make_grid(320, 320);
        auto problem = problem::fabric_local_graph(320, 320, 0.3, 1, 99);
        core::CompilerOptions options;
        options.shard_regions = 80;
        std::ofstream sink("/dev/null");
        circuit::QasmStreamWriter writer(sink, circuit::QasmOptions{});
        Timer timer;
        stream = core::shard_compile_stream(device, problem, options,
                                            writer);
        stream_seconds = timer.elapsed_seconds();
        stream_rss_kib = peak_rss_kib();
        std::printf("streaming 102400-qubit compile: %.1f s, "
                    "%lld ops, %d regions, %lld stitched edges, "
                    "peak circuit %.1f MiB, peak RSS %ld MiB "
                    "(budget %ld MiB)\n\n",
                    stream_seconds,
                    static_cast<long long>(stream.total_ops),
                    stream.regions,
                    static_cast<long long>(stream.stitched_edges),
                    static_cast<double>(stream.peak_circuit_bytes) /
                        (1024.0 * 1024.0),
                    stream_rss_kib / 1024,
                    kStreamRssBudgetKib / 1024);
    }

    const arch::ArchKind kinds[] = {arch::ArchKind::Grid,
                                    arch::ArchKind::HeavyHex,
                                    arch::ArchKind::Sycamore};
    std::vector<std::int32_t> sizes = {64, 256, 1024};
    if (smoke)
        sizes = {64, 256};

    std::printf("density=%.2f reps=%d threads=%d\n\n", density, reps,
                hw_threads);
    std::printf("| %-9s | %6s | %6s | %7s | %10s | %10s | %8s |\n",
                "arch", "req n", "qubits", "edges", "legacy s",
                "new s", "speedup");

    std::vector<Row> rows;
    bool all_match = true;
    double speedup_1024 = 0.0; // min across archs at the largest size
    for (auto kind : kinds) {
        for (std::int32_t n : sizes) {
            arch::CouplingGraph device = arch::smallest_arch(kind, n);
            auto problem = problem::random_graph(device.num_qubits(),
                                                 density, 12345);
            core::CompilerOptions options;

            Row row;
            row.arch = arch::to_string(kind);
            row.requested = n;
            row.qubits = device.num_qubits();
            row.edges = problem.num_edges();

            std::uint64_t legacy_hash = 0, new_hash = 0;
            row.legacy_seconds = time_best(reps, [&] {
                auto r = legacy::compile(device, problem, options);
                legacy_hash = circuit_hash(r.circuit);
            });
            row.new_seconds = time_best(reps, [&] {
                auto r = core::compile(device, problem, options);
                new_hash = circuit_hash(r.circuit);
            });
            row.hash_match = legacy_hash == new_hash;
            all_match = all_match && row.hash_match;
            double speedup = row.legacy_seconds / row.new_seconds;
            if (!smoke && n == 1024)
                speedup_1024 = speedup_1024 == 0.0
                                   ? speedup
                                   : std::min(speedup_1024, speedup);
            std::printf(
                "| %-9s | %6d | %6d | %7d | %10.3f | %10.3f | %7.2fx |%s\n",
                row.arch.c_str(), row.requested, row.qubits, row.edges,
                row.legacy_seconds, row.new_seconds, speedup,
                row.hash_match ? "" : "  HASH MISMATCH");
            rows.push_back(row);
        }
    }

    // Multi-start thread scaling: 8 perturbed-placement trials on the
    // mid-size heavy-hex instance, 1 thread vs the full pool. The
    // result must be identical; only the wall time may change.
    arch::CouplingGraph ms_device =
        arch::smallest_arch(arch::ArchKind::HeavyHex, 256);
    auto ms_problem =
        problem::random_graph(ms_device.num_qubits(), density, 12345);
    core::CompilerOptions ms_options;
    ms_options.num_placement_trials = 8;
    std::uint64_t ms_hash1 = 0, ms_hashN = 0;
    common::set_num_threads(1);
    double ms_serial = time_best(reps, [&] {
        auto r = core::compile(ms_device, ms_problem, ms_options);
        ms_hash1 = circuit_hash(r.circuit);
    });
    common::set_num_threads(hw_threads);
    double ms_parallel = time_best(reps, [&] {
        auto r = core::compile(ms_device, ms_problem, ms_options);
        ms_hashN = circuit_hash(r.circuit);
    });
    bool ms_match = ms_hash1 == ms_hashN;
    all_match = all_match && ms_match;
    std::printf("\nmulti-start (8 trials, heavy-hex 256): "
                "1 thr %.3f s, %d thr %.3f s (%.2fx, identical: %s)\n",
                ms_serial, hw_threads, ms_parallel,
                ms_serial / ms_parallel, ms_match ? "yes" : "NO");

    // Observability cost: the same compile timed with the telemetry/
    // logging stack cold (recording off, logging off) and hot (spans,
    // counters, and debug logging to a file sink all live). The hot
    // run must produce a bit-identical circuit, and the hot/cold wall
    // ratio is the exported "observability tax" that diff_bench.py
    // gates against the committed budget.
    constexpr double kObsBudgetRatio = 1.25;
    core::CompilerOptions obs_options; // default single-trial compile
    std::uint64_t obs_off_hash = 0, obs_on_hash = 0;
    double obs_off_seconds = 0.0, obs_on_seconds = 0.0;
    auto measure_obs = [&] {
        telemetry::set_enabled(false);
        logging::set_level(logging::Level::Off);
        double off = time_best(reps, [&] {
            auto r = core::compile(ms_device, ms_problem, obs_options);
            obs_off_hash = circuit_hash(r.circuit);
        });
        telemetry::set_enabled(true);
        logging::set_level(logging::Level::Debug);
        logging::set_sink_file("/dev/null");
        double on = time_best(reps, [&] {
            auto r = core::compile(ms_device, ms_problem, obs_options);
            obs_on_hash = circuit_hash(r.circuit);
        });
        logging::flush();
        logging::set_sink_stderr();
        logging::set_level(logging::Level::Warn);
        telemetry::set_enabled(false);
        telemetry::Registry::instance().reset();
        obs_off_seconds = obs_off_seconds == 0.0
                              ? off
                              : std::min(obs_off_seconds, off);
        obs_on_seconds =
            obs_on_seconds == 0.0 ? on : std::min(obs_on_seconds, on);
    };
    measure_obs();
    // Like the tier gates, tolerate an unlucky timeslice: re-measure
    // (min-of-attempts on both sides) while the ratio is failing.
    for (int attempt = 0;
         attempt < 2 &&
         obs_on_seconds > kObsBudgetRatio * obs_off_seconds;
         ++attempt)
        measure_obs();
    const double obs_ratio = obs_on_seconds / obs_off_seconds;
    const bool obs_match = obs_off_hash == obs_on_hash;
    all_match = all_match && obs_match;
    std::printf("telemetry overhead (heavy-hex 256): off %.3f s, "
                "on %.3f s (%.3fx, budget %.2fx, identical: %s)\n",
                obs_off_seconds, obs_on_seconds, obs_ratio,
                kObsBudgetRatio, obs_match ? "yes" : "NO");
    if (!smoke)
        std::printf("speedup at 1024 qubits (min over archs): %.2fx "
                    "(need >= 3x)\n",
                    speedup_1024);

    // Region-sharded fabric scaling: locality-structured problems on
    // square grids, one band per 8 rows. Unsharded compilation builds
    // the dense all-pairs distance table, so it is only timed through
    // 4096 qubits; the 16384-qubit row demonstrates sharded-only
    // completion. Every sharded compile is hashed at 1 and 4 threads
    // to hold the bit-identical guarantee.
    std::vector<std::int32_t> fabric_rows = smoke
                                                ? std::vector<std::int32_t>{16, 32}
                                                : std::vector<std::int32_t>{32, 64, 128};
    std::printf("\nregion-sharded fabric scaling (grid, reach-1 local "
                "problems)\n");
    std::printf("| %7s | %7s | %7s | %11s | %9s | %8s |\n", "qubits",
                "edges", "regions", "unsharded s", "sharded s",
                "speedup");
    std::vector<FabricRow> fabric;
    double fabric_speedup_4096 = 0.0;
    bool fabric_identical = true;
    for (std::int32_t rows_n : fabric_rows) {
        arch::CouplingGraph device = arch::make_grid(rows_n, rows_n);
        auto problem =
            problem::fabric_local_graph(rows_n, rows_n, 0.3, 1, 99);
        FabricRow row;
        row.qubits = device.num_qubits();
        row.edges = problem.num_edges();
        row.regions = rows_n / 8;

        core::CompilerOptions sharded_options;
        sharded_options.shard_regions = row.regions;
        std::uint64_t hash_thr1 = 0, hash_thr4 = 0;
        common::set_num_threads(1);
        row.sharded_seconds = time_best(reps, [&] {
            auto r = core::compile(device, problem, sharded_options);
            hash_thr1 = circuit_hash(r.circuit);
        });
        common::set_num_threads(4);
        {
            auto r = core::compile(device, problem, sharded_options);
            hash_thr4 = circuit_hash(r.circuit);
        }
        common::set_num_threads(hw_threads);
        row.thread_identical = hash_thr1 == hash_thr4;
        fabric_identical = fabric_identical && row.thread_identical;

        if (row.qubits <= 4096) {
            core::CompilerOptions unsharded_options;
            row.unsharded_seconds = time_best(reps, [&] {
                auto r = core::compile(device, problem,
                                       unsharded_options);
                (void)r;
            });
        }
        double speedup = row.unsharded_seconds > 0.0
                             ? row.unsharded_seconds / row.sharded_seconds
                             : 0.0;
        if (!smoke && row.qubits == 4096)
            fabric_speedup_4096 = speedup;
        if (row.unsharded_seconds > 0.0)
            std::printf("| %7d | %7d | %7d | %11.3f | %9.3f | %7.2fx |%s\n",
                        row.qubits, row.edges, row.regions,
                        row.unsharded_seconds, row.sharded_seconds,
                        speedup,
                        row.thread_identical ? "" : "  THREAD MISMATCH");
        else
            std::printf("| %7d | %7d | %7d | %11s | %9.3f | %8s |%s\n",
                        row.qubits, row.edges, row.regions, "-",
                        row.sharded_seconds, "-",
                        row.thread_identical ? "" : "  THREAD MISMATCH");
        fabric.push_back(row);
    }
    if (!smoke)
        std::printf("sharded speedup at 4096 qubits: %.2fx (need >= 3x)\n",
                    fabric_speedup_4096);

    std::vector<TierRow> tier_rows;
    TierGates tier_gates = run_tier_section(smoke, reps, tier_rows);

    ServiceBench service = run_service_section(smoke);

    std::FILE* json = std::fopen("BENCH_compile.json", "w");
    if (json != nullptr) {
        std::fprintf(json,
                     "{\n"
                     "  \"smoke\": %s,\n"
                     "  \"density\": %.3f,\n"
                     "  \"reps\": %d,\n"
                     "  \"threads\": %d,\n"
                     "  \"cases\": [\n",
                     smoke ? "true" : "false", density, reps, hw_threads);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row& r = rows[i];
            std::fprintf(
                json,
                "    {\"arch\": \"%s\", \"requested_n\": %d, "
                "\"qubits\": %d, \"edges\": %d, "
                "\"legacy_seconds\": %.6f, \"new_seconds\": %.6f, "
                "\"speedup\": %.3f, \"bit_identical\": %s}%s\n",
                r.arch.c_str(), r.requested, r.qubits, r.edges,
                r.legacy_seconds, r.new_seconds,
                r.legacy_seconds / r.new_seconds,
                r.hash_match ? "true" : "false",
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"multistart\": {\"trials\": 8, "
                     "\"serial_seconds\": %.6f, "
                     "\"parallel_seconds\": %.6f, "
                     "\"thread_speedup\": %.3f, "
                     "\"bit_identical\": %s},\n"
                     "  \"telemetry_overhead\": {"
                     "\"off_seconds\": %.6f, "
                     "\"on_seconds\": %.6f, "
                     "\"overhead_ratio\": %.4f, "
                     "\"budget_ratio\": %.2f, "
                     "\"bit_identical\": %s},\n"
                     "  \"fabric\": [\n",
                     ms_serial, ms_parallel, ms_serial / ms_parallel,
                     ms_match ? "true" : "false", obs_off_seconds,
                     obs_on_seconds, obs_ratio, kObsBudgetRatio,
                     obs_match ? "true" : "false");
        for (std::size_t i = 0; i < fabric.size(); ++i) {
            const FabricRow& r = fabric[i];
            std::fprintf(json,
                         "    {\"qubits\": %d, \"edges\": %d, "
                         "\"regions\": %d, ",
                         r.qubits, r.edges, r.regions);
            if (r.unsharded_seconds > 0.0)
                std::fprintf(json,
                             "\"unsharded_seconds\": %.6f, "
                             "\"sharded_seconds\": %.6f, "
                             "\"speedup\": %.3f, ",
                             r.unsharded_seconds, r.sharded_seconds,
                             r.unsharded_seconds / r.sharded_seconds);
            else
                std::fprintf(json,
                             "\"unsharded_seconds\": null, "
                             "\"sharded_seconds\": %.6f, "
                             "\"speedup\": null, ",
                             r.sharded_seconds);
            std::fprintf(json, "\"thread_identical\": %s}%s\n",
                         r.thread_identical ? "true" : "false",
                         i + 1 < fabric.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n  \"tiers\": [\n");
        for (std::size_t i = 0; i < tier_rows.size(); ++i) {
            const TierRow& r = tier_rows[i];
            std::fprintf(
                json,
                "    {\"arch\": \"%s\", \"requested_n\": %d, "
                "\"tier\": \"%s\", \"qubits\": %d, \"edges\": %d, "
                "\"seconds\": %.6f, \"depth\": %d, \"swaps\": %lld, "
                "\"verified\": %s, \"thread_identical\": %s}%s\n",
                r.arch.c_str(), r.requested, r.tier.c_str(), r.qubits,
                r.edges, r.seconds, r.depth,
                static_cast<long long>(r.swaps),
                r.verified ? "true" : "false",
                r.thread_identical ? "true" : "false",
                i + 1 < tier_rows.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n");
        if (smoke)
            std::fprintf(json, "  \"stream_100k\": null,\n");
        else
            std::fprintf(json,
                         "  \"stream_100k\": {\"qubits\": 102400, "
                         "\"regions\": %d, \"seconds\": %.3f, "
                         "\"total_ops\": %lld, "
                         "\"stitched_edges\": %lld, "
                         "\"peak_circuit_bytes\": %lld, "
                         "\"peak_rss_kib\": %ld, "
                         "\"rss_budget_kib\": %ld},\n",
                         stream.regions, stream_seconds,
                         static_cast<long long>(stream.total_ops),
                         static_cast<long long>(stream.stitched_edges),
                         static_cast<long long>(stream.peak_circuit_bytes),
                         stream_rss_kib, kStreamRssBudgetKib);
        if (service.ran)
            std::fprintf(json,
                         "  \"service\": {\"qubits\": %d, "
                         "\"tier\": \"balanced\", "
                         "\"cold_ms\": %.4f, "
                         "\"warm_p50_ms\": %.4f, "
                         "\"warm_p95_ms\": %.4f, "
                         "\"warm_budget_ms\": %.2f, "
                         "\"cache_speedup\": %.1f, "
                         "\"byte_identical\": %s, "
                         "\"response_qubits\": 1024, "
                         "\"response_bytes\": %zu, "
                         "\"response_ms\": %.3f, "
                         "\"response_budget_ms\": %.1f, "
                         "\"response_identical\": %s},\n",
                         service.qubits, service.cold_ms,
                         service.warm_p50_ms, service.warm_p95_ms,
                         service.warm_budget_ms,
                         service.cold_ms / service.warm_p50_ms,
                         service.byte_identical ? "true" : "false",
                         service.response_bytes, service.response_ms,
                         service.response_budget_ms,
                         service.response_identical ? "true" : "false");
        else
            std::fprintf(json, "  \"service\": null,\n");
        std::fprintf(json,
                     "  \"speedup_1024_min\": %.3f,\n"
                     "  \"fabric_speedup_4096\": %.3f,\n"
                     "  \"tiers_fast_ms_256\": %.3f,\n"
                     "  \"tiers_speedup_sycamore_256\": %.3f,\n"
                     "  \"tiers_worst_depth_ratio\": %.3f,\n"
                     "  \"all_bit_identical\": %s\n"
                     "}\n",
                     speedup_1024, fabric_speedup_4096,
                     tier_gates.fast_ms_256,
                     tier_gates.speedup_sycamore_256,
                     tier_gates.worst_depth_ratio,
                     all_match && fabric_identical ? "true" : "false");
        std::fclose(json);
        std::printf("wrote BENCH_compile.json\n");
    }
    bench::write_metrics_sidecar("compile_scaling");

    if (!all_match || !fabric_identical)
        return 1;
    if (obs_ratio > kObsBudgetRatio)
        return 1;
    if (!tier_gates.ok())
        return 1;
    if (!service.ok())
        return 1;
    if (!smoke && speedup_1024 < 3.0)
        return 1;
    if (!smoke && fabric_speedup_4096 < 3.0)
        return 1;
    if (!smoke && stream_rss_kib > kStreamRssBudgetKib)
        return 1;
    return 0;
}
