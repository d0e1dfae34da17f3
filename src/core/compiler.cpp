#include "compiler.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <mutex>

#include "ata/replay.h"
#include "common/error.h"
#include "common/log/log.h"
#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "common/timer.h"
#include "core/crosstalk.h"
#include "core/engine_util.h"
#include "core/fast_tier.h"
#include "core/placement.h"
#include "core/shard.h"
#include "core/prediction.h"
#include "graph/coloring.h"
#include "graph/matching.h"
#include "graph/routing.h"

namespace permuq::core {

namespace {

/** A recorded greedy prefix to be completed by an ATA tail. */
struct Snapshot
{
    std::int64_t prefix_ops = 0;
    double est_depth = 0.0;
    double est_cx = 0.0;
};

/**
 * Memoized region ATA schedules. ata_schedule() is a pure function of
 * (device, region) and region detection converges to the same few
 * regions across snapshots, materialized candidates, and placement
 * trials, so one compile-wide cache removes most repeated pattern
 * construction. Thread-safe for the parallel materialize/trial fan-out;
 * results are identical whichever thread populates an entry first.
 */
class ScheduleCache
{
  public:
    const ata::SwapSchedule&
    get(const arch::CouplingGraph& device, const ata::Region& region)
    {
        static telemetry::Counter& hits =
            telemetry::counter("permuq.core.schedule_cache.hit");
        static telemetry::Counter& misses =
            telemetry::counter("permuq.core.schedule_cache.miss");
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [r, s] : entries_)
            if (r == region) {
                hits.add();
                hits_.fetch_add(1, std::memory_order_relaxed);
                return s;
            }
        misses.add();
        misses_.fetch_add(1, std::memory_order_relaxed);
        entries_.emplace_back(region, ata::ata_schedule(device, region));
        return entries_.back().second;
    }

    /**
     * Cached equivalent of tail_schedule(device, plan). Whole plans
     * are memoized too: region detection converges to the same plan
     * across snapshots and candidates, and a full-device tail runs to
     * millions of slots, so returning a reference instead of a fresh
     * concatenation avoids repeated multi-megabyte copies.
     */
    const ata::SwapSchedule&
    tail(const arch::CouplingGraph& device, const RegionPlan& plan)
    {
        static telemetry::Counter& hits =
            telemetry::counter("permuq.core.schedule_cache.hit");
        static telemetry::Counter& misses =
            telemetry::counter("permuq.core.schedule_cache.miss");
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (const auto& [regions, s] : tails_)
                if (regions == plan.regions) {
                    hits.add();
                    hits_.fetch_add(1, std::memory_order_relaxed);
                    return s;
                }
        }
        misses.add();
        misses_.fetch_add(1, std::memory_order_relaxed);
        ata::SwapSchedule out;
        for (const auto& region : plan.regions)
            out.append(get(device, region));
        std::lock_guard<std::mutex> lock(mu_);
        // Recheck after reacquiring: a racing thread may have inserted
        // the same plan; the schedules are identical, so keep either.
        for (const auto& [regions, s] : tails_)
            if (regions == plan.regions)
                return s;
        tails_.emplace_back(plan.regions, std::move(out));
        return tails_.back().second;
    }

    // Compile-local tallies for the explain report. The telemetry
    // counters above are process-wide and gated on enabled(); these
    // are per-compile and unconditional.
    std::int64_t
    hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    std::int64_t
    misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

  private:
    std::mutex mu_;
    std::atomic<std::int64_t> hits_{0};
    std::atomic<std::int64_t> misses_{0};
    // Deque: references handed out stay valid as entries accumulate.
    std::deque<std::pair<ata::Region, ata::SwapSchedule>> entries_;
    std::deque<std::pair<std::vector<ata::Region>, ata::SwapSchedule>>
        tails_;
};

/**
 * The greedy processing component (§6.2): one object per compilation,
 * advancing cycle by cycle and recording prediction snapshots.
 *
 * Incremental-state design: instead of rescanning every coupler per
 * cycle for executable gates (O(couplers) hash probes per cycle in the
 * original implementation), the engine maintains an executable-edge
 * *frontier* — a bitmap over couplers plus the pending edge id hosted
 * by each — that is refreshed only for the couplers incident to a
 * mapping change (every SWAP goes through do_swap()) or a completed
 * gate (mark_done()). Iterating the bitmap's set bits ascending visits
 * couplers in exactly the order of the old full scan, so the emitted
 * circuit is bit-identical.
 */
class GreedyEngine
{
  public:
    GreedyEngine(const arch::CouplingGraph& device,
                 const graph::Graph& problem,
                 const CompilerOptions& options,
                 const CrosstalkMap* crosstalk, const EdgeTable& edges,
                 const DeviceIndex& index, ScheduleCache& sched_cache,
                 circuit::Mapping initial)
        : device_(device),
          problem_(problem),
          options_(options),
          crosstalk_(crosstalk),
          edges_(edges),
          index_(index),
          sched_cache_(sched_cache),
          circ_(std::move(initial)),
          done_(static_cast<std::size_t>(problem.num_edges()), false),
          done8_(static_cast<std::size_t>(problem.num_edges()), 0),
          pending_deg_(static_cast<std::size_t>(problem.num_vertices()),
                       0),
          last_swap_cycle_(device.couplers().size(), -10)
    {
        pending_adj_.resize(
            static_cast<std::size_t>(problem.num_vertices()));
        for (std::int32_t e = 0; e < problem.num_edges(); ++e) {
            const auto& edge =
                problem.edges()[static_cast<std::size_t>(e)];
            ++pending_deg_[static_cast<std::size_t>(edge.a)];
            ++pending_deg_[static_cast<std::size_t>(edge.b)];
            pending_adj_[static_cast<std::size_t>(edge.a)].emplace_back(
                edge.b, e);
            pending_adj_[static_cast<std::size_t>(edge.b)].emplace_back(
                edge.a, e);
        }
        pending_ = problem.num_edges();
        circ_.reserve(static_cast<std::size_t>(problem.num_edges()) * 2);

        std::int32_t num_couplers =
            static_cast<std::int32_t>(device.couplers().size());
        frontier_edge_.assign(static_cast<std::size_t>(num_couplers), -1);
        frontier_bits_.assign(
            (static_cast<std::size_t>(num_couplers) + 63) / 64, 0);
        for (std::int32_t c = 0; c < num_couplers; ++c)
            refresh_coupler(c);

        gain_.assign(static_cast<std::size_t>(num_couplers), 0.0);
        coupler_slot_.assign(static_cast<std::size_t>(num_couplers), -1);
        by_qubit_.resize(static_cast<std::size_t>(device.num_qubits()));
        used_.assign(static_cast<std::size_t>(device.num_qubits()), 0);

        if (options.noise != nullptr && !options.noise->is_ideal()) {
            std::vector<double> errs;
            for (const auto& c : device.couplers())
                errs.push_back(options.noise->cx_error(c.a, c.b));
            std::nth_element(errs.begin(),
                             errs.begin() +
                                 static_cast<std::ptrdiff_t>(errs.size() /
                                                             2),
                             errs.end());
            median_error_ = errs[errs.size() / 2];
        }
    }

    /** Run to completion (or the cycle cap). */
    void
    run()
    {
        telemetry::ScopedSpan span("greedy.run");
        span.arg("pending_gates", pending_);
        std::int64_t max_cycles = static_cast<std::int64_t>(
            options_.max_cycle_factor *
                (4.0 * device_.num_qubits() + 64.0) +
            64.0);
        std::int64_t snapshot_step = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(options_.snapshot_fraction *
                                         problem_.num_edges()));
        std::int64_t next_snapshot = pending_ - snapshot_step;
        maybe_snapshot(); // snapshot at cycle 0 == cc0

        for (std::int64_t cycle = 0; pending_ > 0 && cycle < max_cycles;
             ++cycle) {
            bool progress = step(cycle);
            if (options_.use_ata_prediction && pending_ <= next_snapshot) {
                maybe_snapshot();
                next_snapshot = pending_ - snapshot_step;
            }
            if (!progress)
                break; // stalled; the selector's ATA tail finishes it
        }
        if (pending_ > 0) {
            if (device_.kind() == arch::ArchKind::Custom) {
                // No ATA decomposition on irregular devices (§6.5):
                // finish by routing each remaining gate directly.
                route_remaining();
            } else {
                // Cycle cap or stall: complete with the region-
                // restricted ATA tail so even the "greedy" candidate
                // terminates with the linear-depth bound.
                telemetry::ScopedSpan replay_span("ata.replay");
                auto plan =
                    detect_regions(device_, problem_, done_,
                                   circ_.final_mapping());
                const auto& sched = sched_cache_.tail(device_, plan);
                auto tail = ata::replay(device_, problem_,
                                        circ_.final_mapping(), sched, {},
                                        &done_);
                circ_.append_circuit(tail);
                pending_ = 0;
            }
        }
        // Flushed once per run, not per op, to keep the hot loops free
        // of recording sites.
        telemetry::counter("permuq.core.greedy.swaps_inserted")
            .add(circ_.num_swaps());
        telemetry::counter("permuq.core.greedy.gates_scheduled")
            .add(circ_.num_compute());
        telemetry::counter("permuq.core.greedy.pull_cache.hit")
            .add(pull_hits_);
        telemetry::counter("permuq.core.greedy.pull_cache.miss")
            .add(pull_misses_);
        span.arg("swaps", circ_.num_swaps());
    }

    const circuit::Circuit& circuit() const { return circ_; }
    const std::vector<Snapshot>& snapshots() const { return snapshots_; }
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

    /** Refresh every coupler incident to @p p, whose occupant is
     *  already known to be @p occupant (saves one mapping read per
     *  coupler relative to refresh_coupler()). */
    void
    refresh_around(PhysicalQubit p, LogicalQubit occupant)
    {
        const auto& mapping = circ_.final_mapping();
        for (const auto& [nb, c] : index_.incident(p)) {
            std::int32_t e = -1;
            if (occupant != kInvalidQubit) {
                LogicalQubit other = mapping.logical_at(nb);
                if (other != kInvalidQubit) {
                    std::int32_t cand = edges_.at(occupant, other);
                    if (cand >= 0 &&
                        done8_[static_cast<std::size_t>(cand)] == 0)
                        e = cand;
                }
            }
            frontier_edge_[static_cast<std::size_t>(c)] = e;
            std::uint64_t bit = std::uint64_t(1) << (c & 63);
            if (e >= 0)
                frontier_bits_[static_cast<std::size_t>(c) >> 6] |= bit;
            else
                frontier_bits_[static_cast<std::size_t>(c) >> 6] &= ~bit;
        }
    }

    /** Append a SWAP and refresh the frontier around both endpoints —
     *  the only mutation that moves logical qubits, so routing every
     *  SWAP through here keeps the frontier exact. */
    void
    do_swap(PhysicalQubit p, PhysicalQubit q)
    {
        circ_.add_swap(p, q);
        const auto& mapping = circ_.final_mapping();
        refresh_around(p, mapping.logical_at(p));
        refresh_around(q, mapping.logical_at(q));
    }

    /** Retire edge @p e (just computed at coupler @p c). */
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

    /** Route every remaining gate along shortest paths (termination
     *  fallback for devices without an ATA decomposition). */
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
        telemetry::ScopedSpan span("greedy.round");
        span.arg("cycle", cycle);
        const auto& mapping = circ_.final_mapping();
        const auto& couplers = device_.couplers();

        // Focus mode: the pull/matching dynamics can enter limit
        // cycles on symmetric configurations. If no gate has executed
        // for a while, break out by routing the globally closest
        // pending pair along a shortest path outright.
        if (cycle - last_compute_cycle_ > 8) {
            std::int32_t best_e = -1, best_d = kUnreachable;
            for (std::int32_t e = 0; e < problem_.num_edges(); ++e) {
                if (done8_[static_cast<std::size_t>(e)] != 0)
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
            pa = graph::walk_toward(
                device_.connectivity(), device_.distances(), pa, pb,
                [&](PhysicalQubit from, PhysicalQubit to) {
                    do_swap(from, to);
                });
            circ_.add_compute(pa, pb);
            mark_done(best_e, index_.coupler_at(pa, pb));
            last_compute_cycle_ = cycle;
            return true;
        }

        // ---- Gate scheduling via conflict-graph coloring (§6.2) ----
        // Snapshot the frontier; set bits ascending == the coupler
        // order of the original full scan.
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
        if (telemetry::enabled()) {
            static telemetry::Histogram& frontier = telemetry::histogram(
                "permuq.core.greedy.frontier_size");
            frontier.record(static_cast<double>(executable_.size()));
        }

        std::fill(used_.begin(), used_.end(), 0);
        bool did_something = false;
        if (!executable_.empty()) {
            graph::Graph conflict(
                static_cast<std::int32_t>(executable_.size()));
            // Shared-qubit conflicts via flat per-qubit slots (the
            // conflict edge *set* is what matters — greedy_coloring
            // reads the graph's sorted adjacency, so insertion order
            // is irrelevant).
            touched_qubits_.clear();
            for (std::size_t i = 0; i < executable_.size(); ++i) {
                const auto& link = couplers[static_cast<std::size_t>(
                    executable_[i].coupler)];
                for (PhysicalQubit q : {link.a, link.b}) {
                    auto& list = by_qubit_[static_cast<std::size_t>(q)];
                    if (list.empty())
                        touched_qubits_.push_back(q);
                    list.push_back(static_cast<std::int32_t>(i));
                }
            }
            for (PhysicalQubit q : touched_qubits_) {
                auto& list = by_qubit_[static_cast<std::size_t>(q)];
                for (std::size_t i = 0; i < list.size(); ++i)
                    for (std::size_t j = i + 1; j < list.size(); ++j)
                        if (!conflict.has_edge(list[i], list[j]))
                            conflict.add_edge(list[i], list[j]);
                list.clear();
            }
            // Crosstalk conflicts.
            if (crosstalk_ != nullptr) {
                for (std::size_t i = 0; i < executable_.size(); ++i)
                    coupler_slot_[static_cast<std::size_t>(
                        executable_[i].coupler)] =
                        static_cast<std::int32_t>(i);
                for (std::size_t i = 0; i < executable_.size(); ++i)
                    for (std::int32_t other :
                         crosstalk_->neighbors(executable_[i].coupler)) {
                        std::int32_t j =
                            coupler_slot_[static_cast<std::size_t>(other)];
                        if (j > static_cast<std::int32_t>(i) &&
                            !conflict.has_edge(
                                static_cast<std::int32_t>(i), j))
                            conflict.add_edge(
                                static_cast<std::int32_t>(i), j);
                    }
                for (const auto& ex : executable_)
                    coupler_slot_[static_cast<std::size_t>(ex.coupler)] =
                        -1;
            }
            auto coloring = graph::greedy_coloring(conflict);
            std::int32_t cls = graph::largest_class(coloring);
            for (std::int32_t i :
                 coloring.classes[static_cast<std::size_t>(cls)]) {
                const auto& ex = executable_[static_cast<std::size_t>(i)];
                const auto& link =
                    couplers[static_cast<std::size_t>(ex.coupler)];
                circ_.add_compute(link.a, link.b);
                mark_done(ex.edge, ex.coupler);
                used_[static_cast<std::size_t>(link.a)] = 1;
                used_[static_cast<std::size_t>(link.b)] = 1;
                last_compute_cycle_ = cycle;
                did_something = true;
                // Gate unification rider (Fig 2(d) identity): a SWAP on
                // the pair that just computed merges into 3 CX total,
                // so it costs 1 CX instead of 3. Take it whenever it
                // strictly reduces the pending-distance potential of
                // the two logicals.
                const auto& edge =
                    problem_.edges()[static_cast<std::size_t>(ex.edge)];
                if (swap_rider_gain(edge.a, edge.b) < 0) {
                    do_swap(link.a, link.b);
                    last_swap_cycle_[static_cast<std::size_t>(
                        ex.coupler)] = cycle;
                }
            }
        }
        if (pending_ == 0)
            return did_something;

        // ---- SWAP insertion via weighted matching (§6.2/§5.3) ------
        // Every logical qubit with pending gates pulls toward its
        // nearest pending partner; each coupler accumulates the pull
        // weights of the moves it enables, and a maximum-weight
        // matching of positive-gain couplers is swapped. Engaging all
        // active qubits each cycle is what keeps the compiled depth
        // (not just the gate count) low.
        const auto& dist = device_.distances();
        touched_.clear();
        if (pull_cache_.empty()) {
            pull_cache_.resize(
                static_cast<std::size_t>(problem_.num_vertices()));
            active_.resize(
                static_cast<std::size_t>(problem_.num_vertices()));
            for (LogicalQubit a = 0; a < problem_.num_vertices(); ++a)
                active_[static_cast<std::size_t>(a)] = a;
        }
        // Sweep the ascending active-qubit list, compacting out qubits
        // whose last pending gate completed — the visit order stays
        // "all qubits with pending work, ascending", but late cycles
        // no longer pay for the finished majority.
        std::size_t active_keep = 0;
        for (std::size_t idx = 0; idx < active_.size(); ++idx) {
            LogicalQubit a = active_[idx];
            if (pending_deg_[static_cast<std::size_t>(a)] == 0)
                continue;
            active_[active_keep++] = a;
            PhysicalQubit pa = mapping.physical_of(a);
            if (used_[static_cast<std::size_t>(pa)] != 0)
                continue;
            // Nearest pending partner of a. Recomputing this for every
            // active qubit each cycle is the dominant O(E)-per-cycle
            // term at 1024 qubits, so the result is cached for a few
            // cycles; a slightly stale pull target still points the
            // right way, and the cache is refreshed when the cached
            // partner's gate completes.
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
                // The scan doubles as an order-preserving compaction:
                // retired edges are dropped so future scans shrink
                // with the remaining work.
                const std::uint16_t* row_pa = dist.row(pa);
                auto& adj = pending_adj_[static_cast<std::size_t>(a)];
                std::size_t keep = 0;
                for (std::size_t k = 0; k < adj.size(); ++k) {
                    if (done8_[static_cast<std::size_t>(adj[k].second)] !=
                        0)
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
                adj.resize(keep);
                cache.partner = partner;
                cache.edge = edge;
                // Fresh targets on small problems (the scan is cheap
                // there); longer reuse where the scan dominates.
                cache.expires =
                    cycle + 1 + problem_.num_vertices() / 128;
            }
            if (best_d <= 1 || target == kInvalidQubit)
                continue; // adjacent pairs are the gate stage's job
            const std::uint16_t* row_t = dist.row(target);
            for (const auto& [nb, c] : index_.incident(pa)) {
                if (used_[static_cast<std::size_t>(nb)] != 0)
                    continue;
                if (graph::DistanceMatrix::decode(
                        row_t[static_cast<std::size_t>(nb)]) >= best_d)
                    continue;
                if (last_swap_cycle_[static_cast<std::size_t>(c)] ==
                    cycle - 1)
                    continue; // anti-oscillation tabu
                double w = 1.0 / static_cast<double>(best_d);
                // Deterministic jitter breaks symmetric limit cycles.
                w *= 1.0 + 1e-7 * static_cast<double>(c % 97);
                if (options_.noise != nullptr &&
                    !options_.noise->is_ideal()) {
                    // Bounded error preference: a SWAP on link e costs
                    // ~3 CX, so weight by its success probability
                    // (1-e)^3. This acts as a tiebreak among routes of
                    // similar gain — a noisy link can never veto a
                    // materially shorter route, which measurably hurt
                    // overall fidelity in earlier designs.
                    const auto& link =
                        couplers[static_cast<std::size_t>(c)];
                    double e = options_.noise->cx_error(link.a, link.b);
                    w *= std::pow(1.0 - std::min(e, 0.5), 3.0);
                }
                if (gain_[static_cast<std::size_t>(c)] == 0.0)
                    touched_.push_back(c);
                gain_[static_cast<std::size_t>(c)] += w;
            }
        }
        active_.resize(active_keep);

        // The matching's sort key (weight desc, endpoints asc) is
        // total over distinct couplers, so the candidate build order
        // is irrelevant to which SWAPs come out — flat accumulation
        // and the old unordered_map iteration pick the same set.
        candidates_.clear();
        candidate_coupler_.clear();
        for (std::int32_t c : touched_) {
            const auto& link = couplers[static_cast<std::size_t>(c)];
            candidates_.push_back(
                {link.a, link.b, gain_[static_cast<std::size_t>(c)]});
            candidate_coupler_.push_back(c);
            gain_[static_cast<std::size_t>(c)] = 0.0;
        }
        auto picks = graph::greedy_max_weight_matching(
            device_.num_qubits(), candidates_);
        for (std::int32_t i : picks) {
            const auto& cand = candidates_[static_cast<std::size_t>(i)];
            do_swap(cand.u, cand.v);
            last_swap_cycle_[static_cast<std::size_t>(
                candidate_coupler_[static_cast<std::size_t>(i)])] = cycle;
            did_something = true;
        }

        if (!did_something && pending_ > 0) {
            // Stall breaker: force one routing swap for the closest
            // pending gate, ignoring the tabu.
            std::int32_t best_e = -1, best_d = kUnreachable;
            for (std::int32_t e = 0; e < problem_.num_edges(); ++e) {
                if (done8_[static_cast<std::size_t>(e)] != 0)
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
                    do_swap(pa, nb);
                    did_something = true;
                    break;
                }
            }
        }
        return did_something;
    }

    /**
     * Net change of the summed distance from each of the two logicals
     * to its pending partners if their positions were exchanged
     * (negative = the merged swap pays off).
     */
    std::int64_t
    swap_rider_gain(LogicalQubit a, LogicalQubit b)
    {
        // Both endpoints out of pending work => every tally is empty
        // (compaction of already-retired entries can wait for the next
        // real scan).
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
            auto& adj = pending_adj_[static_cast<std::size_t>(q)];
            std::size_t keep = 0;
            for (std::size_t k = 0; k < adj.size(); ++k) {
                if (done8_[static_cast<std::size_t>(adj[k].second)] != 0)
                    continue;
                adj[keep++] = adj[k];
                PhysicalQubit pp = mapping.physical_of(adj[keep - 1].first);
                delta += graph::DistanceMatrix::decode(
                             row_to[static_cast<std::size_t>(pp)]) -
                         graph::DistanceMatrix::decode(
                             row_from[static_cast<std::size_t>(pp)]);
            }
            adj.resize(keep);
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
        telemetry::ScopedSpan span("greedy.snapshot");
        auto plan = detect_regions(device_, problem_, done_,
                                   circ_.final_mapping());
        Snapshot snap;
        snap.prefix_ops = static_cast<std::int64_t>(circ_.ops().size());
        snap.est_depth = static_cast<double>(circ_.depth()) +
                         estimate_tail_depth(device_, plan);
        snap.est_cx =
            2.0 * static_cast<double>(circ_.num_compute()) +
            3.0 * static_cast<double>(circ_.num_swaps()) +
            estimate_tail_cx(device_, plan, pending_);
        snapshots_.push_back(snap);
    }

    const arch::CouplingGraph& device_;
    const graph::Graph& problem_;
    const CompilerOptions& options_;
    const CrosstalkMap* crosstalk_;
    const EdgeTable& edges_;
    const DeviceIndex& index_;
    ScheduleCache& sched_cache_;
    circuit::Circuit circ_;
    // done_ (vector<bool>) feeds detect_regions/replay; done8_ mirrors
    // it as plain bytes because the frontier/pull/rider hot loops test
    // an edge per iteration and the packed bit probe is measurably
    // slower than a byte load there.
    std::vector<bool> done_;
    std::vector<std::uint8_t> done8_;
    std::vector<std::int32_t> pending_deg_;
    std::vector<std::vector<std::pair<LogicalQubit, std::int32_t>>>
        pending_adj_;
    std::vector<std::int64_t> last_swap_cycle_;

    // Executable-edge frontier: one bit per coupler, plus the pending
    // edge currently hosted there (-1 when the bit is clear).
    std::vector<std::uint64_t> frontier_bits_;
    std::vector<std::int32_t> frontier_edge_;

    // Reusable per-cycle scratch (hoisted out of step()).
    struct Executable
    {
        std::int32_t coupler;
        std::int32_t edge;
    };
    std::vector<Executable> executable_;
    std::vector<std::vector<std::int32_t>> by_qubit_;
    std::vector<PhysicalQubit> touched_qubits_;
    std::vector<std::int32_t> coupler_slot_;
    std::vector<std::uint8_t> used_;
    std::vector<double> gain_;
    std::vector<std::int32_t> touched_;
    std::vector<graph::WeightedEdge> candidates_;
    std::vector<std::int32_t> candidate_coupler_;

    struct PullCache
    {
        LogicalQubit partner = kInvalidQubit;
        std::int32_t edge = -1;
        std::int64_t expires = -1;
    };
    std::vector<PullCache> pull_cache_;
    std::vector<LogicalQubit> active_;
    // Pull-cache tallies for the explain report; plain ints (the
    // engine is single-threaded) flushed to telemetry once per run.
    std::int64_t pull_hits_ = 0;
    std::int64_t pull_misses_ = 0;
    std::int64_t pending_ = 0;
    std::int64_t last_compute_cycle_ = 0;
    double median_error_ = 1e-2;
    std::vector<Snapshot> snapshots_;
};

/** Rebuild a greedy prefix and complete it with the ATA tail. */
circuit::Circuit
materialize_hybrid(const arch::CouplingGraph& device,
                   const graph::Graph& problem, const EdgeTable& edges,
                   ScheduleCache& sched_cache, const circuit::Circuit& greedy,
                   std::int64_t prefix_ops)
{
    circuit::Circuit circ(greedy.initial_mapping());
    circ.reserve(static_cast<std::size_t>(prefix_ops));
    std::vector<bool> done(static_cast<std::size_t>(problem.num_edges()),
                           false);
    for (std::int64_t i = 0; i < prefix_ops; ++i) {
        const auto& op = greedy.ops()[static_cast<std::size_t>(i)];
        if (op.kind == circuit::OpKind::Compute) {
            circ.add_compute(op.p, op.q);
            std::int32_t e = edges.at(op.a, op.b);
            panic_unless(e >= 0, "prefix compute on unknown edge");
            done[static_cast<std::size_t>(e)] = true;
        } else {
            circ.add_swap(op.p, op.q);
        }
    }
    telemetry::ScopedSpan replay_span("ata.replay");
    replay_span.arg("prefix_ops", prefix_ops);
    auto plan = detect_regions(device, problem, done, circ.final_mapping());
    const auto& sched = sched_cache.tail(device, plan);
    auto tail = ata::replay(device, problem, circ.final_mapping(), sched,
                            {}, &done);
    circ.append_circuit(tail);
    return circ;
}

/**
 * Absolute (trial-comparable) cost of a compiled circuit. The selector
 * cost F is relative to each trial's own greedy baseline, so the
 * multi-start winner is instead chosen by this absolute analogue:
 * alpha-weighted depth plus error (CX count, or -log fidelity under a
 * noise model), ties broken by the lower trial index.
 */
double
absolute_cost(const circuit::Metrics& m, const arch::NoiseModel* noise,
              double alpha)
{
    double err;
    if (noise != nullptr && !noise->is_ideal())
        err = -std::log(std::max(m.fidelity, 1e-300));
    else
        err = static_cast<double>(m.cx_count);
    return alpha * static_cast<double>(m.depth) + (1.0 - alpha) * err;
}

/** One full placement-to-selection pipeline for a fixed initial
 *  mapping (compile() fans these out across trials). */
CompileResult
compile_single(const arch::CouplingGraph& device,
               const graph::Graph& problem, const CompilerOptions& options,
               const CrosstalkMap* crosstalk, const EdgeTable& edge_table,
               const DeviceIndex& device_index, ScheduleCache& sched_cache,
               circuit::Mapping initial)
{
    CompileResult result;
    telemetry::ScopedSpan span("compile.trial");
    Timer greedy_timer;
    GreedyEngine engine(device, problem, options, crosstalk, edge_table,
                        device_index, sched_cache, std::move(initial));
    engine.run();
    result.report.greedy_seconds = greedy_timer.elapsed_seconds();
    result.report.pull_cache_hits = engine.pull_hits();
    result.report.pull_cache_misses = engine.pull_misses();
    const circuit::Circuit& greedy = engine.circuit();
    auto greedy_metrics = circuit::compute_metrics(greedy, options.noise);

    result.circuit = greedy;
    result.metrics = greedy_metrics;
    result.selected = "greedy";
    result.snapshots =
        static_cast<std::int32_t>(engine.snapshots().size());
    // Pure greedy has no ATA tail: the whole circuit is "prefix".
    std::int64_t winning_prefix =
        static_cast<std::int64_t>(greedy.ops().size());

    if (options.use_ata_prediction && problem.num_edges() > 0) {
        // Rank snapshots by estimated F and materialize the best few;
        // the prefix-0 snapshot (cc0, the pure ATA solution) is always
        // among the candidates, which yields the Theorem 6.1 bound.
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

        std::vector<std::int64_t> to_materialize = {0}; // cc0 prefix
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

        // Materialize candidates in parallel (each replay+metrics pass
        // is independent), then select sequentially in the original
        // candidate order so the winner is exactly the one the serial
        // loop would have picked.
        Timer materialize_timer;
        result.report.candidates =
            static_cast<std::int32_t>(to_materialize.size());
        std::vector<circuit::Circuit> cand(to_materialize.size());
        std::vector<circuit::Metrics> cand_metrics(to_materialize.size());
        common::parallel_tasks(
            static_cast<std::int64_t>(to_materialize.size()),
            [&](std::int64_t i) {
                cand[static_cast<std::size_t>(i)] = materialize_hybrid(
                    device, problem, edge_table, sched_cache, greedy,
                    to_materialize[static_cast<std::size_t>(i)]);
                cand_metrics[static_cast<std::size_t>(i)] =
                    circuit::compute_metrics(
                        cand[static_cast<std::size_t>(i)], options.noise);
            });

        double best_cost = selector_cost(greedy_metrics, greedy_metrics,
                                         options.noise, options.alpha);
        for (std::size_t i = 0; i < to_materialize.size(); ++i) {
            double cost = selector_cost(cand_metrics[i], greedy_metrics,
                                        options.noise, options.alpha);
            if (cost < best_cost) {
                best_cost = cost;
                result.circuit = std::move(cand[i]);
                result.metrics = cand_metrics[i];
                result.selected =
                    to_materialize[i] == 0 ? "ata" : "hybrid";
                winning_prefix = to_materialize[i];
            }
        }
        result.report.materialize_seconds =
            materialize_timer.elapsed_seconds();
    }
    attribute_prefix_tail(result.circuit, winning_prefix, result.report);
    result.report.snapshots = result.snapshots;
    result.report.selected = result.selected;
    return result;
}

} // namespace

CompileTier
resolve_tier(CompileTier requested)
{
    if (requested != CompileTier::Auto)
        return requested;
    if (const char* env = std::getenv("PERMUQ_TIER")) {
        CompileTier parsed;
        if (parse_tier(env, parsed) && parsed != CompileTier::Auto)
            return parsed;
    }
    return CompileTier::Best;
}

double
selector_cost(const circuit::Metrics& m, const circuit::Metrics& reference,
              const arch::NoiseModel* noise, double alpha)
{
    double ref_depth = std::max<double>(1.0, reference.depth);
    double depth_ratio = static_cast<double>(m.depth) / ref_depth;
    double err, ref_err;
    if (noise != nullptr && !noise->is_ideal()) {
        err = -std::log(std::max(m.fidelity, 1e-300));
        ref_err = std::max(-std::log(std::max(reference.fidelity, 1e-300)),
                           1e-12);
    } else {
        err = static_cast<double>(m.cx_count);
        ref_err = std::max<double>(1.0, reference.cx_count);
    }
    return alpha * depth_ratio + (1.0 - alpha) * err / ref_err;
}

CompileResult
compile(const arch::CouplingGraph& device, const graph::Graph& problem,
        const CompilerOptions& options_in)
{
    fatal_unless(problem.num_vertices() <= device.num_qubits(),
                 "problem does not fit on the device");
    // Sharded mode routes away before distances() below ever builds
    // the dense all-pairs table (prohibitive at fabric scale); it
    // re-enters here per band, and for unshardable devices, with
    // shard_regions cleared.
    if (options_in.shard_regions >= 2)
        return shard_compile(device, problem, options_in);
    Timer timer;
    telemetry::ScopedSpan span("compile");
    span.arg("qubits", problem.num_vertices());
    span.arg("edges", problem.num_edges());

    CompilerOptions options = options_in;
    CompileTier tier = resolve_tier(options.tier);
    const CompileTier tier_requested = tier;
    std::string fallback_reason;
    if (tier == CompileTier::Fast && !fast_tier_supported(device)) {
        // No ATA pattern on irregular devices -> no search-free
        // pipeline; serve the request from the balanced tier instead.
        static telemetry::Counter& fallbacks =
            telemetry::counter("permuq.compile.fast.fallback");
        fallbacks.add();
        tier = CompileTier::Balanced;
        fallback_reason =
            "no ATA pattern on a custom device; served as balanced";
        logging::info("compile", fallback_reason);
    }
    options.tier = tier;
    span.arg("tier", tier_name(tier));

    // Shared tail of every return path below: tier provenance, problem
    // shape, final metrics, and the one debug summary line.
    auto finish_report = [&](CompileResult& result) {
        CompileReport& rep = result.report;
        rep.tier_requested = tier_name(tier_requested);
        rep.tier_served = tier_name(tier);
        rep.fallback_reason = fallback_reason;
        rep.selected = result.selected;
        rep.problem_qubits = problem.num_vertices();
        rep.problem_edges = problem.num_edges();
        rep.device_qubits = device.num_qubits();
        rep.depth = static_cast<std::int64_t>(result.metrics.depth);
        rep.cx_count = result.metrics.cx_count;
        rep.swap_count = result.metrics.swap_gates;
        rep.fidelity = result.metrics.fidelity;
        rep.total_seconds = result.compile_seconds;
        if (logging::enabled(logging::Level::Debug))
            logging::debug(
                "compile",
                "tier=" + rep.tier_served + " selected=" + rep.selected +
                    " qubits=" + std::to_string(rep.problem_qubits) +
                    " depth=" + std::to_string(rep.depth) +
                    " cx=" + std::to_string(rep.cx_count) +
                    " swaps=" + std::to_string(rep.swap_count) +
                    " seconds=" + std::to_string(rep.total_seconds));
    };

    if (tier == CompileTier::Fast) {
        // Single-pass search-free pipeline; shares nothing with the
        // multi-start machinery below.
        CompileResult result = fast_compile(device, problem, options);
        result.tier = tier_name(tier);
        result.compile_seconds = timer.elapsed_seconds();
        result.report.trials = 1;
        finish_report(result);
        return result;
    }
    if (tier == CompileTier::Balanced) {
        // Reduced search budget: one placement start, fewer
        // materialized hybrid candidates, sparser snapshots. Same
        // pipeline shape as Best, so determinism carries over.
        options.num_placement_trials = 1;
        options.max_materialized_candidates =
            std::min(options.max_materialized_candidates, 2);
        options.snapshot_fraction =
            std::max(options.snapshot_fraction, 0.1);
    }

    if (device.kind() == arch::ArchKind::Custom &&
        options.use_ata_prediction) {
        // Irregular devices have no ATA decomposition (paper §6.5);
        // compile with the greedy component alone.
        options.use_ata_prediction = false;
    }

    Timer setup_timer;
    std::unique_ptr<CrosstalkMap> crosstalk;
    if (options.crosstalk_aware)
        crosstalk = std::make_unique<CrosstalkMap>(device);

    // Force the lazily-built all-pairs distance cache *before* any
    // parallel section — it is a mutable member of CouplingGraph and
    // concurrent first access would race.
    device.distances();
    const EdgeTable edge_table(problem);
    const DeviceIndex device_index(device);
    const double setup_seconds = setup_timer.elapsed_seconds();
    ScheduleCache sched_cache;

    // Placement time is summed across trials (they fan out on the
    // pool, hence the atomic) for the report's phase breakdown.
    std::atomic<std::int64_t> placement_ns{0};
    auto initial_for_trial = [&](std::int32_t trial) {
        Timer placement_timer;
        circuit::Mapping m = [&]() -> circuit::Mapping {
            if (trial == 0)
                return options.smart_placement
                           ? connectivity_strength_placement(device,
                                                             problem)
                           : circuit::Mapping(problem.num_vertices(),
                                              device.num_qubits());
            // Per-trial jump streams: trial k draws from the k-times-
            // jumped generator, so its randomness is independent of
            // how trials are scheduled across threads.
            Xoshiro256 rng(options.placement_seed);
            for (std::int32_t k = 0; k < trial; ++k)
                rng.jump();
            return perturbed_placement(device, problem, rng);
        }();
        placement_ns.fetch_add(placement_timer.elapsed_ns(),
                               std::memory_order_relaxed);
        return m;
    };

    std::int32_t trials = std::max(1, options.num_placement_trials);
    CompileResult result;
    if (trials == 1) {
        result = compile_single(device, problem, options, crosstalk.get(),
                                edge_table, device_index, sched_cache,
                                initial_for_trial(0));
    } else {
        // Independent trials fan out on the shared pool; the winner is
        // picked sequentially by (absolute cost, trial index), so the
        // result is identical at any thread count.
        std::vector<CompileResult> trial_results(
            static_cast<std::size_t>(trials));
        common::parallel_tasks(trials, [&](std::int64_t t) {
            trial_results[static_cast<std::size_t>(t)] = compile_single(
                device, problem, options, crosstalk.get(), edge_table,
                device_index, sched_cache,
                initial_for_trial(static_cast<std::int32_t>(t)));
        });
        std::size_t best = 0;
        double best_cost = absolute_cost(trial_results[0].metrics,
                                         options.noise, options.alpha);
        for (std::size_t t = 1; t < trial_results.size(); ++t) {
            double cost = absolute_cost(trial_results[t].metrics,
                                        options.noise, options.alpha);
            if (cost < best_cost) {
                best_cost = cost;
                best = t;
            }
        }
        result = std::move(trial_results[best]);
    }

    result.tier = tier_name(tier);
    result.compile_seconds = timer.elapsed_seconds();
    result.report.trials = trials;
    result.report.setup_seconds = setup_seconds;
    result.report.placement_seconds =
        static_cast<double>(
            placement_ns.load(std::memory_order_relaxed)) *
        1e-9;
    result.report.schedule_cache_hits = sched_cache.hits();
    result.report.schedule_cache_misses = sched_cache.misses();
    finish_report(result);
    return result;
}

} // namespace permuq::core
