#include "shard.h"

#include <algorithm>
#include <string>
#include <utility>

#include "circuit/metrics.h"
#include "common/error.h"
#include "common/log/log.h"
#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "common/timer.h"
#include "graph/distance.h"

namespace permuq::core {

namespace {

/** Band boundaries: ~even split of @p total rows into @p k bands,
 *  each at least @p minh rows, starts rounded down to a multiple of
 *  @p align (Sycamore zig-zag parity). Returns {} when fewer than two
 *  bands survive. */
std::vector<std::int32_t>
band_boundaries(std::int32_t total, std::int32_t k, std::int32_t minh,
                std::int32_t align)
{
    k = std::min(k, total / std::max(1, minh));
    if (k < 2)
        return {};
    std::vector<std::int32_t> bounds;
    bounds.push_back(0);
    for (std::int32_t i = 1; i < k; ++i) {
        std::int64_t b = static_cast<std::int64_t>(i) * total / k;
        b -= b % align;
        if (b - bounds.back() >= minh &&
            total - b >= minh)
            bounds.push_back(static_cast<std::int32_t>(b));
    }
    bounds.push_back(total);
    if (bounds.size() < 3)
        return {};
    return bounds;
}

/** Number of columns of a row-major Grid/Sycamore device. */
std::int32_t
device_cols(const arch::CouplingGraph& device)
{
    return device.num_qubits() / device.num_units();
}

/** Logical qubits owned by a band under the identity assignment:
 *  the contiguous range [first, first + count). */
std::int32_t
band_logicals(const ShardRegion& region, std::int32_t num_vertices)
{
    const std::int32_t beyond =
        std::min(num_vertices, region.first_qubit + region.num_qubits);
    return std::max(0, beyond - region.first_qubit);
}

/** Per-band compiler options: no recursive sharding, a band-specific
 *  placement seed, no noise model (it indexes global links), and the
 *  tier the sharder resolved once at entry — bands must not re-read
 *  PERMUQ_TIER (Auto) or re-apply a full search budget each. */
CompilerOptions
region_options(const CompilerOptions& options, std::size_t region,
               CompileTier resolved)
{
    CompilerOptions opts = options;
    opts.shard_regions = 0;
    opts.noise = nullptr;
    opts.tier = resolved;
    opts.placement_seed =
        options.placement_seed +
        0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(region) + 1);
    return opts;
}

/** The subproblem a band owns: its logicals reindexed to 0, with the
 *  problem edges internal to the band. */
graph::Graph
band_problem(const graph::Graph& problem, const ShardRegion& region)
{
    const std::int32_t p0 = region.first_qubit;
    const std::int32_t local = band_logicals(region,
                                             problem.num_vertices());
    graph::Graph sub(local);
    for (const auto& e : problem.edges()) {
        if (e.a >= p0 && e.b < p0 + local)
            sub.add_edge(e.a - p0, e.b - p0);
    }
    return sub;
}

/** Compile one band; empty bands produce an empty result. */
CompileResult
compile_band(const arch::CouplingGraph& device, const ShardRegion& region,
             const graph::Graph& problem, const CompilerOptions& options,
             std::size_t index, CompileTier resolved)
{
    telemetry::ScopedSpan span("compile.shard.band");
    span.arg("band", static_cast<std::int64_t>(index));
    span.arg("band_qubits",
             static_cast<std::int64_t>(region.num_qubits));
    span.arg("tier", tier_name(resolved));
    const graph::Graph sub_problem = band_problem(problem, region);
    if (sub_problem.num_vertices() == 0)
        return {};
    const arch::CouplingGraph sub_device = make_band_device(device, region);
    return compile(sub_device, sub_problem,
                   region_options(options, index, resolved));
}

/** Per-band explain rows from the compiled band results. */
std::vector<CompileReport::Band>
band_rows(const std::vector<CompileResult>& bands, const ShardPlan& plan)
{
    std::vector<CompileReport::Band> rows;
    rows.reserve(bands.size());
    for (std::size_t r = 0; r < bands.size(); ++r) {
        CompileReport::Band row;
        row.index = static_cast<std::int32_t>(r);
        row.qubits = plan.regions[r].num_qubits;
        row.edges = bands[r].report.problem_edges;
        row.depth = static_cast<std::int64_t>(bands[r].metrics.depth);
        row.swaps = bands[r].metrics.swap_gates;
        row.cx = bands[r].metrics.cx_count;
        row.seconds = bands[r].compile_seconds;
        row.selected = bands[r].selected;
        row.tier = bands[r].tier;
        rows.push_back(std::move(row));
    }
    return rows;
}

/** Global initial mapping composed from the band-local placements. */
circuit::Mapping
composed_initial(const std::vector<CompileResult>& bands,
                 const ShardPlan& plan, std::int32_t num_vertices,
                 std::int32_t num_qubits)
{
    std::vector<PhysicalQubit> phys_of(
        static_cast<std::size_t>(num_vertices), kInvalidQubit);
    for (std::size_t r = 0; r < plan.regions.size(); ++r) {
        const ShardRegion& region = plan.regions[r];
        const std::int32_t local = band_logicals(region, num_vertices);
        const auto& initial = bands[r].circuit.initial_mapping();
        for (std::int32_t l = 0; l < local; ++l)
            phys_of[static_cast<std::size_t>(region.first_qubit + l)] =
                region.first_qubit + initial.physical_of(l);
    }
    return circuit::Mapping(std::move(phys_of), num_qubits);
}

/** Append one band circuit onto @p out, shifting ids by the band
 *  offset. Bands are qubit-disjoint, so ASAP re-scheduling reproduces
 *  the band's own cycles. */
void
append_band(circuit::Circuit& out, const circuit::Circuit& band,
            std::int32_t offset)
{
    for (const auto& op : band.ops()) {
        if (op.kind == circuit::OpKind::Compute)
            out.add_compute(op.p + offset, op.q + offset);
        else
            out.add_swap(op.p + offset, op.q + offset);
    }
}

/** Cross-band problem edges in deterministic (sorted-pair) order. */
std::vector<VertexPair>
cross_band_edges(const graph::Graph& problem, const ShardPlan& plan)
{
    // band_of[v] via the contiguous band starts.
    std::vector<std::int32_t> starts;
    starts.reserve(plan.regions.size());
    for (const auto& region : plan.regions)
        starts.push_back(region.first_qubit);
    auto band_of = [&](std::int32_t v) {
        return static_cast<std::int32_t>(
                   std::upper_bound(starts.begin(), starts.end(), v) -
                   starts.begin()) -
               1;
    };
    std::vector<VertexPair> cross;
    for (const auto& e : problem.edges())
        if (band_of(e.a) != band_of(e.b))
            cross.push_back(e);
    std::sort(cross.begin(), cross.end());
    return cross;
}

/**
 * Route every cross-band edge onto @p out: BFS (on demand, no dense
 * table) from the stationary endpoint, then walk the mobile endpoint
 * down the distance gradient — first strictly-improving neighbor in
 * ascending id order, mirroring graph::walk_toward — until the pair
 * sits on a coupler. The walk only compares entries against distances
 * below the mobile endpoint's, so the BFS stops once it dequeues that
 * endpoint (see BfsOracle::distances_from).
 */
void
stitch_edges(circuit::Circuit& out, const arch::CouplingGraph& device,
             const std::vector<VertexPair>& cross)
{
    telemetry::ScopedSpan span("compile.stitch");
    span.arg("edges", static_cast<std::int64_t>(cross.size()));
    graph::FlatAdjacency adjacency(device.connectivity());
    graph::BfsOracle oracle(adjacency);
    for (const auto& edge : cross) {
        PhysicalQubit pa = out.final_mapping().physical_of(edge.a);
        const PhysicalQubit pb = out.final_mapping().physical_of(edge.b);
        const auto& dist = oracle.distances_from(pb, pa);
        fatal_unless(dist[static_cast<std::size_t>(pa)] != kUnreachable,
                     "stitched endpoints are disconnected on the device");
        while (dist[static_cast<std::size_t>(pa)] > 1) {
            const std::int32_t here =
                dist[static_cast<std::size_t>(pa)];
            PhysicalQubit next = kInvalidQubit;
            for (const std::int32_t* w = adjacency.neighbors_begin(pa);
                 w != adjacency.neighbors_end(pa); ++w) {
                if (dist[static_cast<std::size_t>(*w)] < here) {
                    next = *w;
                    break;
                }
            }
            panic_unless(next != kInvalidQubit,
                         "BFS gradient has no descending neighbor");
            out.add_swap(pa, next);
            pa = next;
        }
        out.add_compute(pa, pb);
    }
    telemetry::counter("compile.stitch.edges")
        .add(static_cast<std::int64_t>(cross.size()));
}

/** Every band compiled concurrently on the shared pool. */
std::vector<CompileResult>
compile_bands(const arch::CouplingGraph& device,
              const graph::Graph& problem,
              const CompilerOptions& options, const ShardPlan& plan,
              CompileTier resolved)
{
    auto& histogram = telemetry::histogram("compile.shard.region_qubits");
    for (const auto& region : plan.regions)
        histogram.record(static_cast<double>(region.num_qubits));

    std::vector<CompileResult> bands(plan.regions.size());
    auto one = [&](std::int64_t r) {
        bands[static_cast<std::size_t>(r)] =
            compile_band(device, plan.regions[static_cast<std::size_t>(r)],
                         problem, options, static_cast<std::size_t>(r),
                         resolved);
    };
    common::parallel_tasks(static_cast<std::int64_t>(plan.regions.size()),
                           one);
    return bands;
}

} // namespace

ShardPlan
plan_shards(const arch::CouplingGraph& device, std::int32_t want_regions,
            std::int32_t margin)
{
    ShardPlan plan;
    if (want_regions < 2)
        return plan;
    const std::int32_t minh = 1 + std::max(0, margin);
    const arch::ArchKind kind = device.kind();
    if (kind == arch::ArchKind::Line) {
        auto bounds = band_boundaries(device.num_qubits(), want_regions,
                                      minh, /*align=*/1);
        if (bounds.empty())
            return plan;
        for (std::size_t i = 0; i + 1 < bounds.size(); ++i)
            plan.regions.push_back(
                {bounds[i], bounds[i + 1] - bounds[i], -1, -1});
        plan.shardable = true;
        return plan;
    }
    if (kind != arch::ArchKind::Grid && kind != arch::ArchKind::Sycamore)
        return plan;
    const std::int32_t rows = device.num_units();
    const std::int32_t cols = device_cols(device);
    if (rows * cols != device.num_qubits())
        return plan;
    const std::int32_t align = kind == arch::ArchKind::Sycamore ? 2 : 1;
    auto bounds =
        band_boundaries(rows, want_regions, std::max(minh, align), align);
    if (bounds.empty())
        return plan;
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        const std::int32_t r0 = bounds[i];
        const std::int32_t height = bounds[i + 1] - r0;
        plan.regions.push_back(
            {r0 * cols, height * cols, r0, height});
    }
    plan.shardable = true;
    return plan;
}

arch::CouplingGraph
make_band_device(const arch::CouplingGraph& device,
                 const ShardRegion& region)
{
    switch (device.kind()) {
      case arch::ArchKind::Line:
        return arch::make_line(region.num_qubits);
      case arch::ArchKind::Grid:
        return arch::make_grid(region.num_units, device_cols(device));
      case arch::ArchKind::Sycamore:
        return arch::make_sycamore(region.num_units,
                                   device_cols(device));
      default:
        throw FatalError("make_band_device: unbandable architecture " +
                         arch::to_string(device.kind()));
    }
}

CompileResult
shard_compile(const arch::CouplingGraph& device,
              const graph::Graph& problem,
              const CompilerOptions& options)
{
    fatal_unless(problem.num_vertices() <= device.num_qubits(),
                 "problem does not fit on the device");
    const ShardPlan plan =
        plan_shards(device, options.shard_regions, options.shard_margin);
    if (!plan.shardable) {
        CompilerOptions unsharded = options;
        unsharded.shard_regions = 0;
        return compile(device, problem, unsharded);
    }

    Timer timer;
    // Resolve the tier once for the whole sharded compile: every band
    // serves the same resolved tier instead of re-resolving Auto (and
    // re-reading PERMUQ_TIER) per band.
    const CompileTier tier = resolve_tier(options.tier);
    telemetry::ScopedSpan span("compile.shard");
    span.arg("regions", static_cast<std::int64_t>(plan.regions.size()));
    span.arg("qubits", problem.num_vertices());
    span.arg("tier", tier_name(tier));

    const auto bands = compile_bands(device, problem, options, plan, tier);

    circuit::Circuit assembled(composed_initial(
        bands, plan, problem.num_vertices(), device.num_qubits()));
    for (std::size_t r = 0; r < plan.regions.size(); ++r)
        append_band(assembled, bands[r].circuit,
                    plan.regions[r].first_qubit);
    assembled.barrier();
    const std::int64_t pre_stitch_swaps = assembled.num_swaps();
    const auto pre_stitch_depth = assembled.depth();
    const auto cross = cross_band_edges(problem, plan);
    Timer stitch_timer;
    stitch_edges(assembled, device, cross);

    CompileResult result;
    result.report.stitch_seconds = stitch_timer.elapsed_seconds();
    result.report.stitched_edges =
        static_cast<std::int64_t>(cross.size());
    result.report.stitch_swaps =
        assembled.num_swaps() - pre_stitch_swaps;
    result.report.stitch_depth =
        static_cast<std::int64_t>(assembled.depth() - pre_stitch_depth);
    result.metrics = circuit::compute_metrics(assembled, options.noise);
    result.circuit = std::move(assembled);
    result.selected = "sharded";
    result.tier = tier_name(tier);
    result.compile_seconds = timer.elapsed_seconds();

    CompileReport& rep = result.report;
    rep.tier_served = result.tier;
    rep.tier_requested = result.tier;
    rep.selected = result.selected;
    rep.problem_qubits = problem.num_vertices();
    rep.problem_edges = problem.num_edges();
    rep.device_qubits = device.num_qubits();
    rep.shard_regions = static_cast<std::int32_t>(plan.regions.size());
    rep.bands = band_rows(bands, plan);
    for (const auto& band : bands) {
        rep.trials += band.report.trials;
        rep.snapshots += band.report.snapshots;
        rep.candidates += band.report.candidates;
        rep.setup_seconds += band.report.setup_seconds;
        rep.placement_seconds += band.report.placement_seconds;
        rep.greedy_seconds += band.report.greedy_seconds;
        rep.materialize_seconds += band.report.materialize_seconds;
        rep.schedule_cache_hits += band.report.schedule_cache_hits;
        rep.schedule_cache_misses += band.report.schedule_cache_misses;
        rep.pull_cache_hits += band.report.pull_cache_hits;
        rep.pull_cache_misses += band.report.pull_cache_misses;
    }
    rep.depth = static_cast<std::int64_t>(result.metrics.depth);
    rep.cx_count = result.metrics.cx_count;
    rep.swap_count = result.metrics.swap_gates;
    rep.fidelity = result.metrics.fidelity;
    rep.total_seconds = result.compile_seconds;
    if (logging::enabled(logging::Level::Debug))
        logging::debug(
            "core.shard",
            "regions=" + std::to_string(rep.shard_regions) +
                " stitched_edges=" +
                std::to_string(rep.stitched_edges) +
                " depth=" + std::to_string(rep.depth) +
                " cx=" + std::to_string(rep.cx_count) +
                " seconds=" + std::to_string(rep.total_seconds));
    return result;
}

} // namespace permuq::core
