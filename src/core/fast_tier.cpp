/**
 * @file
 * Single-pass fast-tier pipeline (see fast_tier.h). The engine reuses
 * the incremental executable-edge frontier of the greedy engine but
 * strips everything search-shaped: gates are scheduled by first-fit
 * maximal independent set in ascending coupler order (no conflict
 * graph, no coloring, no allocation per cycle), SWAPs by first-fit
 * distance-reducing pulls (no weighted matching), and the run is one
 * bounded burst completed by a single ATA-tail replay (no snapshots,
 * no candidate materialization, no selector).
 */
#include "core/fast_tier.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "ata/replay.h"
#include "common/error.h"
#include "common/telemetry/telemetry.h"
#include "common/timer.h"
#include "core/crosstalk.h"
#include "core/engine_util.h"
#include "core/prediction.h"
#include "graph/routing.h"

namespace permuq::core {

namespace {

/**
 * Cycle budget of the greedy burst. The burst executes the locally
 * cheap gates and pulls distant pairs together; whatever remains is
 * finished by the ATA tail, so a small fixed budget bounds latency
 * without threatening termination. 128 cycles keeps 100-512 qubit
 * compiles well under a millisecond while leaving little work for
 * the (deeper) pattern tail on typical QAOA densities.
 */
constexpr std::int64_t kFastBurstCycles = 128;

/**
 * O(n + E) locality placement: the breadth-first orders of the
 * problem and device graphs, matched index for index. Both orders
 * are expanding balls around the highest-degree vertex/qubit, so
 * problem-adjacent logicals land a few positions — and therefore a
 * few couplers — apart, without touching the distance table and
 * without any annealing or multi-start search. Roots and component
 * restarts break ties by ascending index, so the placement is
 * deterministic.
 */
circuit::Mapping
bfs_locality_placement(const arch::CouplingGraph& device,
                       const graph::Graph& problem)
{
    auto bfs_order = [](const graph::Graph& g) {
        std::int32_t n = g.num_vertices();
        std::vector<std::int32_t> order;
        order.reserve(static_cast<std::size_t>(n));
        std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
        auto visit = [&](std::int32_t v) {
            if (seen[static_cast<std::size_t>(v)] == 0) {
                seen[static_cast<std::size_t>(v)] = 1;
                order.push_back(v);
            }
        };
        std::int32_t root = 0;
        for (std::int32_t v = 1; v < n; ++v)
            if (g.degree(v) > g.degree(root))
                root = v;
        if (n > 0)
            visit(root);
        std::size_t head = 0;
        std::int32_t restart = 0;
        while (order.size() < static_cast<std::size_t>(n)) {
            if (head == order.size()) {
                while (seen[static_cast<std::size_t>(restart)] != 0)
                    ++restart;
                visit(restart);
            }
            std::int32_t v = order[head++];
            for (std::int32_t w : g.neighbors(v))
                visit(w);
        }
        return order;
    };
    auto dev_order = bfs_order(device.connectivity());
    auto prob_order = bfs_order(problem);
    std::vector<PhysicalQubit> phys_of(
        static_cast<std::size_t>(problem.num_vertices()));
    for (std::size_t i = 0; i < prob_order.size(); ++i)
        phys_of[static_cast<std::size_t>(prob_order[i])] =
            dev_order[i];
    return circuit::Mapping(std::move(phys_of), device.num_qubits());
}

/** The fast tier's lean scheduling engine: one object per compile,
 *  fully sequential (trivially thread-count invariant). */
class FastEngine
{
  public:
    FastEngine(const arch::CouplingGraph& device,
               const graph::Graph& problem,
               const CompilerOptions& options,
               const CrosstalkMap* crosstalk, const EdgeTable& edges,
               const DeviceIndex& index, circuit::Mapping initial)
        : device_(device),
          problem_(problem),
          options_(options),
          crosstalk_(crosstalk),
          edges_(edges),
          index_(index),
          circ_(std::move(initial)),
          done_(static_cast<std::size_t>(problem.num_edges()), false),
          done8_(static_cast<std::size_t>(problem.num_edges()), 0),
          pending_deg_(static_cast<std::size_t>(problem.num_vertices()),
                       0),
          last_swap_cycle_(device.couplers().size(), -10)
    {
        // CSR-flattened pending adjacency: one allocation, contiguous
        // per-vertex slices, in-place compaction via adj_len_.
        for (std::int32_t e = 0; e < problem.num_edges(); ++e) {
            const auto& edge =
                problem.edges()[static_cast<std::size_t>(e)];
            ++pending_deg_[static_cast<std::size_t>(edge.a)];
            ++pending_deg_[static_cast<std::size_t>(edge.b)];
        }
        const std::size_t n =
            static_cast<std::size_t>(problem.num_vertices());
        adj_off_.resize(n + 1, 0);
        adj_len_.resize(n, 0);
        for (std::size_t v = 0; v < n; ++v)
            adj_off_[v + 1] = adj_off_[v] + pending_deg_[v];
        adj_flat_.resize(adj_off_[n]);
        for (std::int32_t e = 0; e < problem.num_edges(); ++e) {
            const auto& edge =
                problem.edges()[static_cast<std::size_t>(e)];
            auto place = [&](std::int32_t v, std::int32_t other) {
                std::size_t slot =
                    adj_off_[static_cast<std::size_t>(v)] +
                    static_cast<std::size_t>(
                        adj_len_[static_cast<std::size_t>(v)]++);
                adj_flat_[slot] = {other, e};
            };
            place(edge.a, edge.b);
            place(edge.b, edge.a);
        }
        pending_ = problem.num_edges();
        // Gates plus the typical SWAP volume of sparse QAOA routing
        // (~7 per gate) in one allocation.
        circ_.reserve(static_cast<std::size_t>(problem.num_edges()) * 8);

        std::int32_t num_couplers =
            static_cast<std::int32_t>(device.couplers().size());
        frontier_edge_.assign(static_cast<std::size_t>(num_couplers), -1);
        frontier_bits_.assign(
            (static_cast<std::size_t>(num_couplers) + 63) / 64, 0);
        for (std::int32_t c = 0; c < num_couplers; ++c)
            refresh_coupler(c);

        used_.assign(static_cast<std::size_t>(device.num_qubits()), 0);
        if (crosstalk_ != nullptr)
            xt_busy_.assign(static_cast<std::size_t>(num_couplers), 0);
    }

    /** Run the bounded greedy burst, then finish with one ATA tail. */
    void
    run()
    {
        telemetry::ScopedSpan span("compile.fast");
        span.arg("pending_gates", pending_);
        const std::int64_t max_cycles = static_cast<std::int64_t>(
            options_.max_cycle_factor *
                (4.0 * device_.num_qubits() + 64.0) +
            64.0);
        const std::int64_t burst =
            std::min(max_cycles, kFastBurstCycles);
        std::int64_t cycle = 0;
        for (; pending_ > 0 && cycle < burst; ++cycle)
            if (!step(cycle))
                break; // stalled; the ATA tail finishes it
        if (pending_ > 0) {
            if (device_.kind() == arch::ArchKind::Custom) {
                // Unreached via compile() (fast falls back to balanced
                // on custom devices), but kept so the engine terminates
                // on any input.
                route_remaining();
            } else {
                telemetry::ScopedSpan replay_span("ata.replay");
                prefix_ops_ =
                    static_cast<std::int64_t>(circ_.ops().size());
                auto plan = detect_regions(device_, problem_, done_,
                                           circ_.final_mapping());
                auto sched = tail_schedule(device_, plan);
                auto tail = ata::replay(device_, problem_,
                                        circ_.final_mapping(), sched, {},
                                        &done_);
                circ_.append_circuit(tail);
                pending_ = 0;
            }
        }
        telemetry::counter("permuq.core.greedy.swaps_inserted")
            .add(circ_.num_swaps());
        telemetry::counter("permuq.core.greedy.gates_scheduled")
            .add(circ_.num_compute());
        telemetry::counter("permuq.core.greedy.pull_cache.hit")
            .add(pull_hits_);
        telemetry::counter("permuq.core.greedy.pull_cache.miss")
            .add(pull_misses_);
        span.arg("burst_cycles", cycle);
        span.arg("swaps", circ_.num_swaps());
    }

    circuit::Circuit take_circuit() && { return std::move(circ_); }

    /** Ops before the ATA tail (everything, when no tail ran). */
    std::int64_t
    prefix_ops() const
    {
        return prefix_ops_ >= 0
                   ? prefix_ops_
                   : static_cast<std::int64_t>(circ_.ops().size());
    }

    std::int64_t pull_hits() const { return pull_hits_; }
    std::int64_t pull_misses() const { return pull_misses_; }

  private:
    /** Recompute whether coupler @p c hosts an executable pending gate
     *  under the current mapping, and update the frontier. */
    void
    refresh_coupler(std::int32_t c)
    {
        const auto& link = device_.couplers()[static_cast<std::size_t>(c)];
        LogicalQubit a = circ_.final_mapping().logical_at(link.a);
        LogicalQubit b = circ_.final_mapping().logical_at(link.b);
        std::int32_t e = -1;
        if (a != kInvalidQubit && b != kInvalidQubit) {
            std::int32_t cand = edges_.at(a, b);
            if (cand >= 0 && done8_[static_cast<std::size_t>(cand)] == 0)
                e = cand;
        }
        frontier_edge_[static_cast<std::size_t>(c)] = e;
        std::uint64_t bit = std::uint64_t(1) << (c & 63);
        if (e >= 0)
            frontier_bits_[static_cast<std::size_t>(c) >> 6] |= bit;
        else
            frontier_bits_[static_cast<std::size_t>(c) >> 6] &= ~bit;
    }

    /**
     * Lazy frontier update after the occupant of @p pos moved there:
     * SET the bit of every coupler the move made gate-ready,
     * discovered through the moved logical's (short) pending list.
     * Bits staled by a move are not cleared here — the gate stage
     * re-validates every candidate against the live mapping before
     * committing, so over-approximate bits are harmless. (Eagerly
     * recomputing all incident couplers — the greedy engine's
     * refresh_around — is the dominant per-SWAP cost at fast-tier
     * SWAP rates.)
     */
    void
    seed_frontier(PhysicalQubit pos)
    {
        const auto& mapping = circ_.final_mapping();
        LogicalQubit l = mapping.logical_at(pos);
        if (l == kInvalidQubit ||
            pending_deg_[static_cast<std::size_t>(l)] == 0)
            return;
        const std::uint16_t* row = device_.distances().row(pos);
        auto* adj = &adj_flat_[adj_off_[static_cast<std::size_t>(l)]];
        std::int32_t len = adj_len_[static_cast<std::size_t>(l)];
        std::int32_t keep = 0;
        for (std::int32_t k = 0; k < len; ++k) {
            if (done8_[static_cast<std::size_t>(adj[k].second)] != 0)
                continue;
            adj[keep++] = adj[k];
            const auto& [b, e] = adj[keep - 1];
            PhysicalQubit pb =
                mapping.physical_of(b);
            if (graph::DistanceMatrix::decode(
                    row[static_cast<std::size_t>(pb)]) == 1) {
                std::int32_t c = index_.coupler_at(pos, pb);
                frontier_edge_[static_cast<std::size_t>(c)] = e;
                frontier_bits_[static_cast<std::size_t>(c) >> 6] |=
                    std::uint64_t(1) << (c & 63);
            }
        }
        adj_len_[static_cast<std::size_t>(l)] = keep;
    }

    /**
     * @p moved_to_q_d: known post-SWAP distance from @p q to the
     * moved logical's pull target, or -1 when unknown. When it is
     * >= 2 the pull cannot have made any of the mover's gates ready,
     * so its seed scan is skipped (the waiting-adjacent safety net in
     * the SWAP stage covers the rare stale-cache case where another
     * partner became adjacent).
     */
    void
    do_swap(PhysicalQubit p, PhysicalQubit q,
            std::int32_t moved_to_q_d = -1)
    {
        circ_.add_swap(p, q);
        seed_frontier(p);
        if (moved_to_q_d < 2)
            seed_frontier(q);
    }

    void
    mark_done(std::int32_t e, std::int32_t c)
    {
        done_[static_cast<std::size_t>(e)] = true;
        done8_[static_cast<std::size_t>(e)] = 1;
        const auto& edge = problem_.edges()[static_cast<std::size_t>(e)];
        --pending_deg_[static_cast<std::size_t>(edge.a)];
        --pending_deg_[static_cast<std::size_t>(edge.b)];
        --pending_;
        refresh_coupler(c);
    }

    /** Termination fallback for devices without an ATA decomposition:
     *  route every remaining gate along shortest paths. */
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
            pa = graph::walk_toward(
                device_.connectivity(), dist, pa, pb,
                [&](PhysicalQubit from, PhysicalQubit to) {
                    do_swap(from, to);
                });
            circ_.add_compute(pa, pb);
            mark_done(e, index_.coupler_at(pa, pb));
        }
    }

    /** One scheduling cycle; returns false if nothing could be done. */
    bool
    step(std::int64_t cycle)
    {
        const auto& mapping = circ_.final_mapping();
        const auto& couplers = device_.couplers();
        const auto& dist = device_.distances();

        // ---- Gate scheduling: first-fit independent set ------------
        // Snapshot the frontier's set bits ascending, then take every
        // gate whose qubits (and, with crosstalk, neighboring
        // couplers) are still free. First-fit over the ascending
        // coupler order is a maximal independent set of the conflict
        // graph — the coloring machinery of the full pipeline buys
        // better class choices, not feasibility.
        executable_.clear();
        for (std::size_t word = 0; word < frontier_bits_.size(); ++word) {
            std::uint64_t bits = frontier_bits_[word];
            while (bits != 0) {
                std::int32_t c = static_cast<std::int32_t>(word * 64) +
                                 std::countr_zero(bits);
                bits &= bits - 1;
                executable_.push_back(
                    {c, frontier_edge_[static_cast<std::size_t>(c)]});
            }
        }
        std::fill(used_.begin(), used_.end(), 0);
        bool did_something = false;
        xt_touched_.clear();
        for (const auto& ex : executable_) {
            const auto& link =
                couplers[static_cast<std::size_t>(ex.coupler)];
            if (used_[static_cast<std::size_t>(link.a)] != 0 ||
                used_[static_cast<std::size_t>(link.b)] != 0)
                continue;
            if (crosstalk_ != nullptr &&
                xt_busy_[static_cast<std::size_t>(ex.coupler)] != 0)
                continue;
            // Lazy frontier: SWAPs only SET bits, so a snapshot entry
            // may be stale; re-derive the hosted gate from the live
            // mapping before committing, clearing dead bits as they
            // are discovered.
            LogicalQubit la = mapping.logical_at(link.a);
            LogicalQubit lb = mapping.logical_at(link.b);
            std::int32_t gate = -1;
            if (la != kInvalidQubit && lb != kInvalidQubit) {
                std::int32_t cand = edges_.at(la, lb);
                if (cand >= 0 &&
                    done8_[static_cast<std::size_t>(cand)] == 0)
                    gate = cand;
            }
            if (gate < 0) {
                frontier_edge_[static_cast<std::size_t>(ex.coupler)] =
                    -1;
                frontier_bits_[static_cast<std::size_t>(ex.coupler) >>
                               6] &=
                    ~(std::uint64_t(1) << (ex.coupler & 63));
                continue;
            }
            circ_.add_compute(link.a, link.b);
            mark_done(gate, ex.coupler);
            used_[static_cast<std::size_t>(link.a)] = 1;
            used_[static_cast<std::size_t>(link.b)] = 1;
            did_something = true;
            if (crosstalk_ != nullptr) {
                for (std::int32_t other :
                     crosstalk_->neighbors(ex.coupler)) {
                    xt_busy_[static_cast<std::size_t>(other)] = 1;
                    xt_touched_.push_back(other);
                }
            }
            // Gate unification rider (Fig 2(d) identity): a SWAP on
            // the pair that just computed costs 1 extra CX instead of
            // 3; take it when it reduces the pending-distance
            // potential.
            const auto& edge =
                problem_.edges()[static_cast<std::size_t>(gate)];
            if (swap_rider_gain(edge.a, edge.b) < 0) {
                do_swap(link.a, link.b);
                last_swap_cycle_[static_cast<std::size_t>(ex.coupler)] =
                    cycle;
            }
        }
        for (std::int32_t c : xt_touched_)
            xt_busy_[static_cast<std::size_t>(c)] = 0;
        if (pending_ == 0)
            return did_something;

        // ---- SWAP insertion: first-fit distance-reducing pulls -----
        // Every logical qubit with pending work pulls toward its
        // nearest pending partner along the first free distance-
        // reducing coupler (lowest-error such coupler under a noise
        // model). No matching: conflicts are resolved first-come in
        // ascending logical order, which is deterministic and cheap.
        if (pull_cache_.empty()) {
            pull_cache_.resize(
                static_cast<std::size_t>(problem_.num_vertices()));
            active_.resize(
                static_cast<std::size_t>(problem_.num_vertices()));
            for (LogicalQubit a = 0; a < problem_.num_vertices(); ++a)
                active_[static_cast<std::size_t>(a)] = a;
        }
        std::size_t active_keep = 0;
        for (std::size_t idx = 0; idx < active_.size(); ++idx) {
            LogicalQubit a = active_[idx];
            if (pending_deg_[static_cast<std::size_t>(a)] == 0)
                continue;
            active_[active_keep++] = a;
            PhysicalQubit pa = mapping.physical_of(a);
            if (used_[static_cast<std::size_t>(pa)] != 0)
                continue;
            auto& cache = pull_cache_[static_cast<std::size_t>(a)];
            std::int32_t best_d;
            PhysicalQubit target;
            if (cache.expires > cycle && cache.partner >= 0 &&
                done8_[static_cast<std::size_t>(cache.edge)] == 0) {
                ++pull_hits_;
                target = mapping.physical_of(cache.partner);
                best_d = dist.at(pa, target);
            } else {
                ++pull_misses_;
                best_d = kUnreachable;
                target = kInvalidQubit;
                LogicalQubit partner = kInvalidQubit;
                std::int32_t edge = -1;
                const std::uint16_t* row_pa = dist.row(pa);
                auto* adj =
                    &adj_flat_[adj_off_[static_cast<std::size_t>(a)]];
                std::int32_t len = adj_len_[static_cast<std::size_t>(a)];
                std::int32_t keep = 0;
                for (std::int32_t k = 0; k < len; ++k) {
                    if (done8_[static_cast<std::size_t>(
                            adj[k].second)] != 0)
                        continue;
                    adj[keep++] = adj[k];
                    const auto& [b, e] = adj[keep - 1];
                    std::int32_t d = graph::DistanceMatrix::decode(
                        row_pa[static_cast<std::size_t>(
                            mapping.physical_of(b))]);
                    if (d < best_d) {
                        best_d = d;
                        target = mapping.physical_of(b);
                        partner = b;
                        edge = e;
                    }
                }
                adj_len_[static_cast<std::size_t>(a)] = keep;
                cache.partner = partner;
                cache.edge = edge;
                cache.expires =
                    cycle + 1 + problem_.num_vertices() / 128;
            }
            if (best_d <= 1 || target == kInvalidQubit) {
                // Adjacent pairs are the gate stage's job — but make
                // sure it can see this one: do_swap skips the mover's
                // seed scan when the pull landed short of adjacency,
                // so a pair that became adjacent under a stale pull
                // cache re-seeds its coupler bit here.
                if (best_d == 1) {
                    std::int32_t c = index_.coupler_at(pa, target);
                    frontier_edge_[static_cast<std::size_t>(c)] =
                        cache.edge;
                    frontier_bits_[static_cast<std::size_t>(c) >> 6] |=
                        std::uint64_t(1) << (c & 63);
                }
                continue;
            }
            const std::uint16_t* row_t = dist.row(target);
            // Two-level preference: a distance-reducing coupler whose
            // displaced occupant is not pushed away from its own
            // cached partner beats one that churns it; within a level,
            // first fit (or best (1-e)^3 SWAP fidelity under noise).
            // The fallback level guarantees the pull still progresses
            // when every free neighbor hosts contended work. Pulls
            // advance one step per cycle: both endpoints of a far pair
            // inch toward each other in parallel, which halves the
            // serial SWAP-chain depth compared to routing one endpoint
            // the whole way.
            PhysicalQubit pick = kInvalidQubit, fb_pick = kInvalidQubit;
            std::int32_t pick_c = -1, fb_c = -1;
            double pick_w = -1.0, fb_w = -1.0;
            bool ideal = options_.noise == nullptr ||
                         options_.noise->is_ideal();
            for (const auto& [nb, c] : index_.incident(pa)) {
                if (used_[static_cast<std::size_t>(nb)] != 0)
                    continue;
                if (graph::DistanceMatrix::decode(
                        row_t[static_cast<std::size_t>(nb)]) >= best_d)
                    continue;
                if (last_swap_cycle_[static_cast<std::size_t>(c)] ==
                    cycle - 1)
                    continue; // anti-oscillation tabu
                bool churns = false;
                LogicalQubit occ = mapping.logical_at(nb);
                if (occ != kInvalidQubit &&
                    pending_deg_[static_cast<std::size_t>(occ)] > 0) {
                    const auto& oc =
                        pull_cache_[static_cast<std::size_t>(occ)];
                    if (oc.partner != kInvalidQubit && oc.edge >= 0 &&
                        done8_[static_cast<std::size_t>(oc.edge)] == 0) {
                        const std::uint16_t* row_o = dist.row(
                            mapping.physical_of(oc.partner));
                        churns =
                            graph::DistanceMatrix::decode(
                                row_o[static_cast<std::size_t>(pa)]) >
                            graph::DistanceMatrix::decode(
                                row_o[static_cast<std::size_t>(nb)]);
                    }
                }
                double w = 0.0;
                if (!ideal) {
                    const auto& link =
                        couplers[static_cast<std::size_t>(c)];
                    double e = options_.noise->cx_error(link.a, link.b);
                    w = std::pow(1.0 - std::min(e, 0.5), 3.0);
                }
                if (!churns) {
                    if (ideal) {
                        pick = nb;
                        pick_c = c;
                        break; // first fit
                    }
                    if (w > pick_w) {
                        pick_w = w;
                        pick = nb;
                        pick_c = c;
                    }
                } else if (pick == kInvalidQubit) {
                    if (ideal) {
                        if (fb_pick == kInvalidQubit) {
                            fb_pick = nb;
                            fb_c = c;
                        }
                    } else if (w > fb_w) {
                        fb_w = w;
                        fb_pick = nb;
                        fb_c = c;
                    }
                }
            }
            if (pick == kInvalidQubit) {
                pick = fb_pick;
                pick_c = fb_c;
            }
            if (pick == kInvalidQubit)
                continue;
            do_swap(pa, pick,
                    graph::DistanceMatrix::decode(
                        row_t[static_cast<std::size_t>(pick)]));
            last_swap_cycle_[static_cast<std::size_t>(pick_c)] = cycle;
            used_[static_cast<std::size_t>(pa)] = 1;
            used_[static_cast<std::size_t>(pick)] = 1;
            did_something = true;
        }
        active_.resize(active_keep);
        return did_something;
    }

    /** Net pending-distance change of exchanging the two logicals
     *  (negative = the merged swap pays off). Same tally as the full
     *  greedy engine, including the pending_adj_ compaction. */
    std::int64_t
    swap_rider_gain(LogicalQubit a, LogicalQubit b)
    {
        if (pending_deg_[static_cast<std::size_t>(a)] == 0 &&
            pending_deg_[static_cast<std::size_t>(b)] == 0)
            return 0;
        const auto& mapping = circ_.final_mapping();
        const auto& dist = device_.distances();
        PhysicalQubit pa = mapping.physical_of(a);
        PhysicalQubit pb = mapping.physical_of(b);
        std::int64_t delta = 0;
        auto tally = [&](LogicalQubit q, PhysicalQubit from,
                         PhysicalQubit to) {
            if (pending_deg_[static_cast<std::size_t>(q)] == 0)
                return;
            const std::uint16_t* row_to = dist.row(to);
            const std::uint16_t* row_from = dist.row(from);
            auto* adj = &adj_flat_[adj_off_[static_cast<std::size_t>(q)]];
            std::int32_t len = adj_len_[static_cast<std::size_t>(q)];
            std::int32_t keep = 0;
            for (std::int32_t k = 0; k < len; ++k) {
                if (done8_[static_cast<std::size_t>(adj[k].second)] != 0)
                    continue;
                adj[keep++] = adj[k];
                PhysicalQubit pp =
                    mapping.physical_of(adj[keep - 1].first);
                delta += graph::DistanceMatrix::decode(
                             row_to[static_cast<std::size_t>(pp)]) -
                         graph::DistanceMatrix::decode(
                             row_from[static_cast<std::size_t>(pp)]);
            }
            adj_len_[static_cast<std::size_t>(q)] = keep;
        };
        tally(a, pa, pb);
        tally(b, pb, pa);
        return delta;
    }

    const arch::CouplingGraph& device_;
    const graph::Graph& problem_;
    const CompilerOptions& options_;
    const CrosstalkMap* crosstalk_;
    const EdgeTable& edges_;
    const DeviceIndex& index_;
    circuit::Circuit circ_;
    std::vector<bool> done_;
    std::vector<std::uint8_t> done8_;
    std::vector<std::int32_t> pending_deg_;
    /** CSR pending adjacency: vertex v's live (partner, edge) entries
     *  are adj_flat_[adj_off_[v] .. adj_off_[v] + adj_len_[v]). */
    std::vector<std::size_t> adj_off_;
    std::vector<std::int32_t> adj_len_;
    std::vector<std::pair<LogicalQubit, std::int32_t>> adj_flat_;
    std::vector<std::int64_t> last_swap_cycle_;

    std::vector<std::uint64_t> frontier_bits_;
    std::vector<std::int32_t> frontier_edge_;

    struct Executable
    {
        std::int32_t coupler;
        std::int32_t edge;
    };
    std::vector<Executable> executable_;
    std::vector<std::uint8_t> used_;
    std::vector<std::uint8_t> xt_busy_;
    std::vector<std::int32_t> xt_touched_;

    struct PullCache
    {
        LogicalQubit partner = kInvalidQubit;
        std::int32_t edge = -1;
        std::int64_t expires = -1;
    };
    std::vector<PullCache> pull_cache_;
    std::vector<LogicalQubit> active_;
    // Explain-report tallies (plain ints; the engine is
    // single-threaded).
    std::int64_t pull_hits_ = 0;
    std::int64_t pull_misses_ = 0;
    std::int64_t prefix_ops_ = -1; ///< -1 = no ATA tail appended
    std::int64_t pending_ = 0;
};

} // namespace

bool
fast_tier_supported(const arch::CouplingGraph& device)
{
    return device.kind() != arch::ArchKind::Custom;
}

CompileResult
fast_compile(const arch::CouplingGraph& device,
             const graph::Graph& problem, const CompilerOptions& options)
{
    Timer setup_timer;
    std::unique_ptr<CrosstalkMap> crosstalk;
    if (options.crosstalk_aware)
        crosstalk = std::make_unique<CrosstalkMap>(device);
    // Build the lazily-cached distance table here, so that its cost
    // is reported as setup rather than inside placement.
    device.distances();
    const EdgeTable edge_table(problem);
    const DeviceIndex device_index(device);
    const double setup_seconds = setup_timer.elapsed_seconds();
    Timer placement_timer;
    circuit::Mapping initial =
        options.smart_placement
            ? bfs_locality_placement(device, problem)
            : circuit::Mapping(problem.num_vertices(),
                               device.num_qubits());
    const double placement_seconds = placement_timer.elapsed_seconds();
    FastEngine engine(device, problem, options, crosstalk.get(),
                      edge_table, device_index, std::move(initial));
    Timer greedy_timer;
    engine.run();
    CompileResult result;
    result.report.setup_seconds = setup_seconds;
    result.report.placement_seconds = placement_seconds;
    result.report.greedy_seconds = greedy_timer.elapsed_seconds();
    result.report.pull_cache_hits = engine.pull_hits();
    result.report.pull_cache_misses = engine.pull_misses();
    const std::int64_t prefix_ops = engine.prefix_ops();
    result.circuit = std::move(engine).take_circuit();
    result.metrics = circuit::compute_metrics(result.circuit,
                                              options.noise);
    result.selected = "fast";
    result.snapshots = 0;
    attribute_prefix_tail(result.circuit, prefix_ops, result.report);
    result.report.selected = result.selected;
    return result;
}

} // namespace permuq::core
