#include "qaoa_objective.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>

#include "circuit/metrics.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "sim/kernel_util.h"
#include "sim/kernels.h"

namespace permuq::sim {

namespace {

/** Per-op CX cost with CPHASE+SWAP merging applied. */
std::vector<std::int8_t>
per_op_cx(const circuit::Circuit& compiled)
{
    auto merged = circuit::merged_with_previous(compiled);
    const auto& ops = compiled.ops();
    std::vector<std::int8_t> cost(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (merged[i]) {
            // The merged pair costs 3 CX total; the predecessor was
            // billed standalone, so this op pays the difference.
            cost[i] = static_cast<std::int8_t>(
                ops[i].kind == circuit::OpKind::Swap ? 1 : 0);
        } else {
            cost[i] = static_cast<std::int8_t>(
                ops[i].kind == circuit::OpKind::Compute ? 2 : 3);
        }
    }
    return cost;
}

void
apply_pauli(Statevector& sv, std::int32_t q, std::int32_t which)
{
    switch (which) {
      case 1: sv.apply_x(q); break;
      case 2: sv.apply_y(q); break;
      case 3: sv.apply_z(q); break;
      default: break;
    }
}

/** One pre-drawn Pauli-error decision of a layer, keyed by the
 *  position of its op in the replay sequence. */
struct ErrorEvent
{
    std::size_t seq;
    std::int32_t a, b;
    std::int32_t which;
};

/**
 * Sample the readout-flipped shots of one finished trajectory,
 * calling shot_sink(z) per shot. Builds the CDF once; each shot is a
 * binary search instead of an O(2^n) scan.
 */
template <typename ShotSink>
void
sample_trajectory(const Statevector& sv, Xoshiro256& rng,
                  const circuit::Circuit& compiled,
                  const arch::NoiseModel& noise,
                  const NoisySimOptions& options, std::int32_t n,
                  std::int32_t shots_per_traj, ShotSink&& shot_sink)
{
    CdfSampler sampler(sv);
    for (std::int32_t s = 0; s < shots_per_traj; ++s) {
        std::uint64_t z = sampler.sample(rng);
        if (options.readout_error && !noise.is_ideal()) {
            // Per-qubit readout error at the final physical location
            // of each logical qubit.
            for (std::int32_t l = 0; l < n; ++l) {
                PhysicalQubit p = compiled.final_mapping().physical_of(l);
                if (rng.next_double() < noise.readout_error(p))
                    z ^= std::uint64_t(1) << l;
            }
        }
        shot_sink(z);
    }
}

std::int32_t
shots_per_trajectory(const NoisySimOptions& options)
{
    return std::max(1, options.shots / std::max(1, options.trajectories));
}

} // namespace

QaoaObjective::QaoaObjective(const graph::Graph& problem)
    : problem_(problem), sv_(problem.num_vertices())
{
    build(nullptr);
}

QaoaObjective::QaoaObjective(const problem::WeightedProblem& wp)
    : problem_(wp.graph), sv_(wp.graph.num_vertices())
{
    build(&wp.weights);
}

void
QaoaObjective::build(const std::vector<double>* weights)
{
    const std::int32_t n = problem_.num_vertices();
    fatal_unless(n <= kMaxSimQubits,
                 "QAOA simulation supports up to " +
                     std::to_string(kMaxSimQubits) + " qubits");
    const auto& edges = problem_.edges();
    double total_weight = 0.0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
        const double w = weights != nullptr ? (*weights)[e] : 1.0;
        // Unit-gamma (or w_e-coefficient) edge phases; every layer of
        // every evaluation rescales this one batch by its own -gamma.
        cost_.add_rzz(edges[e].a, edges[e].b, w);
        total_weight += w;
    }
    if (weights != nullptr) {
        weights_ = *weights;
        weight_map_.reserve(edges.size());
        for (std::size_t e = 0; e < edges.size(); ++e)
            weight_map_.emplace(edges[e], (*weights)[e]);
    }
    // The batch's angle spectrum is cut(z) - W/2 (each edge phase is
    // -w_e/2 * s_a s_b), so the baked table plus this offset serves
    // both cut() and the expectation reduction. Baking here also
    // freezes the batch's lazy key cache before any parallel
    // trajectory can race to build it.
    cost_table_ = cost_.bake(n);
    offset_ = total_weight / 2.0;
}

double
QaoaObjective::max_cut() const
{
    return *std::max_element(cost_table_.begin(), cost_table_.end()) +
           offset_;
}

std::size_t
QaoaObjective::memory_bytes() const
{
    return Statevector::memory_bytes(sv_.num_qubits()) +
           cost_table_.size() * sizeof(double);
}

void
QaoaObjective::prepare_ideal(const QaoaAngles& angles)
{
    fatal_unless(angles.gamma.size() == angles.beta.size(),
                 "need one gamma and beta per QAOA layer");
    sv_.reset_to_plus();
    // One fused sweep per cost layer (the cost unitary is RZZ(-gamma)
    // per edge) and one blocked traversal per mixer layer.
    for (std::size_t layer = 0; layer < angles.gamma.size(); ++layer) {
        cost_.apply(sv_, -angles.gamma[layer]);
        sv_.apply_rx_all(2.0 * angles.beta[layer]);
    }
}

double
QaoaObjective::ideal_expectation(const QaoaAngles& angles)
{
    telemetry::ScopedSpan span("sim.objective.eval");
    span.arg("qubits", num_qubits());
    span.arg("layers", static_cast<std::int64_t>(angles.gamma.size()));
    prepare_ideal(angles);
    return expectation(sv_);
}

double
QaoaObjective::expectation(const Statevector& sv) const
{
    fatal_unless(sv.num_qubits() == num_qubits(),
                 "expectation needs a state of the problem's size");
    const kernels::Table& t = kernels::active_counted();
    const double* a =
        reinterpret_cast<const double*>(sv.amplitudes().data());
    const double* table = cost_table_.data();
    const double offset = offset_;
    return common::parallel_reduce_sum<double>(
        0, sv.amplitudes().size(), std::size_t(1) << 13,
        [=, &t](std::size_t b, std::size_t e) {
            return t.weighted_norm_sum(a, table, offset, b, e);
        });
}

std::vector<double>
QaoaObjective::ideal_distribution(const QaoaAngles& angles)
{
    telemetry::ScopedSpan span("sim.objective.eval");
    span.arg("qubits", num_qubits());
    span.arg("layers", static_cast<std::int64_t>(angles.gamma.size()));
    prepare_ideal(angles);
    return sv_.probabilities();
}

const QaoaObjective::Plan&
QaoaObjective::plan_for(const circuit::Circuit& compiled)
{
    const auto& ops = compiled.ops();
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (const auto& op : ops) {
        mix((std::uint64_t(static_cast<std::uint32_t>(op.p)) << 32) |
            std::uint64_t(static_cast<std::uint32_t>(op.q)));
        mix((std::uint64_t(static_cast<std::uint32_t>(op.a)) << 32) |
            std::uint64_t(static_cast<std::uint32_t>(op.b)));
        mix(static_cast<std::uint64_t>(op.kind));
    }
    if (plan_.circuit != static_cast<const void*>(&compiled) ||
        plan_.num_ops != ops.size() || plan_.hash != h) {
        plan_.circuit = &compiled;
        plan_.num_ops = ops.size();
        plan_.hash = h;
        plan_.cx_cost = per_op_cx(compiled);
    }
    return plan_;
}

/**
 * Run each noisy trajectory and hand its final state to @p sink as
 * sink(trajectory_index, sv, rng). Trajectory t draws from the
 * t-times-jumped substream of options.seed, so every trajectory's
 * randomness — and therefore every result assembled from
 * per-trajectory partials in index order — is independent of the
 * thread count. When @p parallel is true, trajectories run
 * concurrently on the global pool; @p sink must only touch state
 * owned by its trajectory index (or synchronize internally).
 */
template <typename Sink>
void
QaoaObjective::for_each_trajectory(const circuit::Circuit& compiled,
                                   const arch::NoiseModel& noise,
                                   const QaoaAngles& angles,
                                   const NoisySimOptions& options,
                                   Sink&& sink, bool parallel)
{
    const std::int32_t n = num_qubits();
    fatal_unless(!angles.gamma.empty() &&
                     angles.gamma.size() == angles.beta.size(),
                 "need one gamma and beta per QAOA layer");
    const std::int32_t layers =
        static_cast<std::int32_t>(angles.gamma.size());
    const auto& cx_cost = plan_for(compiled).cx_cost;
    // An error-free layer's fused batch equals the cached cost batch
    // rescaled by -gamma (the replay meets every edge exactly once),
    // so it can skip the per-layer key rebuild entirely. Weighted
    // problems keep the per-layer build: their mixed-magnitude phase
    // products round differently under the cached formulation.
    const bool cached_layers = !weighted() && options.fuse_diagonals;

    auto run_one = [&](std::int64_t traj) {
        telemetry::ScopedSpan span("sim.trajectory");
        span.arg("traj", traj);
        Xoshiro256 rng(options.seed);
        for (std::int64_t j = 0; j < traj; ++j)
            rng.jump();

        Statevector sv(n);
        sv.reset_to_plus();

        DiagonalBatch batch;
        auto flush = [&] {
            if (!batch.empty()) {
                batch.apply(sv);
                batch.clear();
            }
        };
        std::vector<ErrorEvent> events;

        for (std::int32_t layer = 0; layer < layers; ++layer) {
            const double gamma =
                angles.gamma[static_cast<std::size_t>(layer)];
            const bool reversed = layer % 2 == 1;
            // Pre-draw the layer's stochastic Pauli decisions in the
            // exact RNG order of the gate-by-gate walk: one
            // next_double per physical CX, one next_below(15) per
            // error. The stream is identical whichever execution path
            // the layer takes below.
            events.clear();
            std::size_t seq = 0;
            circuit::for_each_replayed(
                compiled, reversed,
                [&](const circuit::ScheduledOp& op, std::size_t i) {
                    const double e = noise.cx_error(op.p, op.q);
                    for (std::int8_t c = 0; c < cx_cost[i]; ++c) {
                        if (rng.next_double() >= e)
                            continue;
                        const std::int32_t which =
                            static_cast<std::int32_t>(
                                rng.next_below(15)) + 1;
                        events.push_back({seq, op.a, op.b, which});
                    }
                    ++seq;
                });

            if (events.empty() && cached_layers) {
                // No error interrupts the layer: the whole replay is
                // one diagonal sweep off the prebaked key cache.
                cost_.apply(sv, -gamma);
            } else {
                // Replay op by op, applying the recorded decisions at
                // their drawn positions. Paulis do not commute with
                // pending diagonal phases, so an error flushes first.
                std::size_t cursor = 0;
                std::size_t replay_seq = 0;
                circuit::for_each_replayed(
                    compiled, reversed,
                    [&](const circuit::ScheduledOp& op, std::size_t) {
                        while (cursor < events.size() &&
                               events[cursor].seq == replay_seq) {
                            const ErrorEvent& ev = events[cursor];
                            flush();
                            if (ev.a != kInvalidQubit)
                                apply_pauli(sv, ev.a, ev.which & 3);
                            if (ev.b != kInvalidQubit)
                                apply_pauli(sv, ev.b, ev.which >> 2);
                            ++cursor;
                        }
                        if (op.kind == circuit::OpKind::Compute) {
                            double w = 1.0;
                            if (weighted())
                                w = weight_map_.at(
                                    VertexPair(op.a, op.b));
                            if (options.fuse_diagonals)
                                batch.add_rzz(op.a, op.b, -gamma * w);
                            else
                                sv.apply_rzz(op.a, op.b, -gamma * w);
                        }
                        // SWAPs act as relabelings: the stored logical
                        // operands of later ops already account for
                        // them.
                        ++replay_seq;
                    });
                flush();
            }
            sv.apply_rx_all(
                2.0 * angles.beta[static_cast<std::size_t>(layer)]);
        }

        sink(static_cast<std::int32_t>(traj), sv, rng);
    };

    if (parallel && options.trajectories > 1 && common::num_threads() > 1)
        common::parallel_tasks(options.trajectories, run_one);
    else
        for (std::int64_t t = 0; t < options.trajectories; ++t)
            run_one(t);
}

double
QaoaObjective::noisy_expectation(const circuit::Circuit& compiled,
                                 const arch::NoiseModel& noise,
                                 const QaoaAngles& angles,
                                 const NoisySimOptions& options)
{
    telemetry::ScopedSpan span("sim.objective.eval");
    span.arg("qubits", num_qubits());
    span.arg("layers", static_cast<std::int64_t>(angles.gamma.size()));
    const std::int32_t n = num_qubits();
    const std::int32_t shots_per_traj = shots_per_trajectory(options);
    std::vector<double> partial(
        static_cast<std::size_t>(std::max(1, options.trajectories)), 0.0);
    for_each_trajectory(
        compiled, noise, angles, options,
        [&](std::int32_t traj, const Statevector& sv, Xoshiro256& rng) {
            double total = 0.0;
            sample_trajectory(sv, rng, compiled, noise, options, n,
                              shots_per_traj, [&](std::uint64_t z) {
                                  total += cut(z);
                              });
            partial[static_cast<std::size_t>(traj)] = total;
        },
        /*parallel=*/true);
    // Fixed-order combination: bit-identical at any thread count.
    double total = 0.0;
    for (double p : partial)
        total += p;
    std::int64_t shots = static_cast<std::int64_t>(shots_per_traj) *
                         std::max(1, options.trajectories);
    return total / static_cast<double>(std::max<std::int64_t>(1, shots));
}

std::vector<std::int64_t>
QaoaObjective::noisy_counts(const circuit::Circuit& compiled,
                            const arch::NoiseModel& noise,
                            const QaoaAngles& angles,
                            const NoisySimOptions& options)
{
    const std::int32_t n = num_qubits();
    const std::int32_t shots_per_traj = shots_per_trajectory(options);
    std::vector<std::int64_t> counts(std::size_t(1) << n, 0);
    std::mutex merge_mutex;
    for_each_trajectory(
        compiled, noise, angles, options,
        [&](std::int32_t, const Statevector& sv, Xoshiro256& rng) {
            // Histogram locally, then merge; integer addition is exact
            // and commutative, so merge order cannot affect results.
            std::vector<std::int64_t> local(counts.size(), 0);
            sample_trajectory(sv, rng, compiled, noise, options, n,
                              shots_per_traj,
                              [&](std::uint64_t z) { ++local[z]; });
            std::lock_guard<std::mutex> lock(merge_mutex);
            for (std::size_t z = 0; z < counts.size(); ++z)
                counts[z] += local[z];
        },
        /*parallel=*/true);
    return counts;
}

std::vector<double>
QaoaObjective::noisy_distribution(const circuit::Circuit& compiled,
                                  const arch::NoiseModel& noise,
                                  const QaoaAngles& angles,
                                  const NoisySimOptions& options)
{
    std::vector<double> mix(std::size_t(1) << num_qubits(), 0.0);
    std::int32_t trajectories = 0;
    // Serial over trajectories: the merge adds 2^n doubles per
    // trajectory, and a fixed order is what keeps the sum
    // bit-reproducible. Kernel-level parallelism still applies inside
    // each trajectory.
    for_each_trajectory(
        compiled, noise, angles, options,
        [&](std::int32_t, const Statevector& sv, Xoshiro256&) {
            auto p = sv.probabilities();
            for (std::size_t z = 0; z < mix.size(); ++z)
                mix[z] += p[z];
            ++trajectories;
        },
        /*parallel=*/false);
    for (auto& x : mix)
        x /= std::max(1, trajectories);
    return mix;
}

} // namespace permuq::sim
