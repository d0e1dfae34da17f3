/**
 * @file
 * Compile-time scaling benchmark: times core::compile at the best tier
 * on ER problems (density 0.3) on grid, heavy-hex, and Sycamore
 * devices up to 1024 qubits, and reports multi-start thread scaling
 * (the result must be bit-identical at one thread and at the full
 * pool) and the observability tax (bit-identical with telemetry and
 * debug logging on). The golden hashes in
 * tests/test_compile_determinism.cpp pin the compiler's output at 64
 * and 256 qubits on these three device families.
 *
 * A second section measures region-sharded compilation on fabric-scale
 * grids with locality-structured problems (fabric_local_graph):
 * sharded vs unsharded wall time at 1024/4096 qubits, sharded-only
 * completion at 16384, bit-identical output across thread counts, and
 * (full runs only) a 102400-qubit sharded compile at 4 threads, its
 * QASM written through QasmProgram, whose peak RSS must stay inside
 * the documented 512 MiB budget.
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
 * A fifth section times a cold all-pairs distance table build on a
 * fresh 1024q heavy-hex, Sycamore and grid device, each against a
 * 40 ms budget. The other sections keep the table cached, so this is
 * the only place its cost shows.
 *
 * Emits BENCH_compile.json in the working directory. Pass --smoke to
 * cap the sweep at 256 qubits (CI); the >=3x sharded-vs-unsharded gate
 * at 4096 qubits and the 102400-qubit RSS budget apply only to the
 * full run.
 *
 * Knob: PERMUQ_COMPILE_REPS (timing repetitions, best-of, default 2).
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "arch/coupling_graph.h"
#include "bench_util.h"
#include "circuit/fingerprint.h"
#include "circuit/metrics.h"
#include "circuit/qasm.h"
#include "common/json.h"
#include "common/log/log.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/compiler.h"
#include "graph/distance.h"
#include "problem/generators.h"
#include "service/client.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/server.h"
#include "verify/equivalence.h"

using namespace permuq;

namespace {

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
    double seconds = 0.0;
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

/** Peak-RSS budget of the 102400-qubit compile (EXPERIMENTS.md). */
constexpr long kFabric100kRssBudgetKib = 512 * 1024;

/** The full run's 102400-qubit sharded compile. */
struct Fabric100k
{
    std::int32_t regions = 0;
    double seconds = 0.0;
    std::int64_t total_ops = 0;
    std::int64_t stitched_edges = 0;
    std::size_t circuit_bytes = 0;
    long peak_rss_kib = 0;
};

/**
 * 102400 qubits in 80 bands through core::compile, the QASM written
 * through QasmProgram to /dev/null; the time covers both. Four threads
 * are pinned because up to four bands compile at once, so the peak RSS
 * would otherwise grow with the host's core count. Runs before any
 * other compile: ru_maxrss is a process-lifetime high-water mark.
 */
Fabric100k
run_fabric_100k()
{
    const arch::CouplingGraph device = arch::make_grid(320, 320);
    const auto problem = problem::fabric_local_graph(320, 320, 0.3, 1, 99);
    core::CompilerOptions options;
    options.shard_regions = 80;
    const int threads = common::num_threads();
    common::set_num_threads(4);
    Fabric100k out;
    Timer timer;
    const auto result = core::compile(device, problem, options);
    std::ofstream sink("/dev/null");
    circuit::QasmProgram(result.circuit)
        .write([&sink](std::string_view block) {
            sink.write(block.data(),
                       static_cast<std::streamsize>(block.size()));
        });
    out.seconds = timer.elapsed_seconds();
    out.peak_rss_kib = peak_rss_kib();
    common::set_num_threads(threads);
    out.regions = result.report.shard_regions;
    out.total_ops = static_cast<std::int64_t>(result.circuit.ops().size());
    out.stitched_edges = result.report.stitched_edges;
    out.circuit_bytes = result.circuit.memory_bytes();
    std::printf("102400-qubit sharded compile (4 threads): %.1f s, "
                "%lld ops, %d regions, %lld stitched edges, "
                "circuit %.1f MiB, peak RSS %ld MiB (budget %ld MiB)\n\n",
                out.seconds, static_cast<long long>(out.total_ops),
                out.regions, static_cast<long long>(out.stitched_edges),
                static_cast<double>(out.circuit_bytes) / (1024.0 * 1024.0),
                out.peak_rss_kib / 1024, kFabric100kRssBudgetKib / 1024);
    return out;
}

// ------------------------------------------------- cold distance table

struct TableRow
{
    std::string arch;
    std::int32_t requested = 0;
    std::int32_t qubits = 0;
    std::int32_t diameter = 0;
    double ms = 0.0;
};

/** Budget of one cold 1024q table build, ms (diff_bench.py fails a row
 *  over it, or a budget raised above the committed baseline's). */
constexpr double kDistanceTableBudgetMs = 40.0;

/**
 * Cold all-pairs distance table on a fresh 1024q device per arch: the
 * setup phase every unsharded compile, and every band of a sharded
 * one, pays before placement. The other sections hold the table
 * cached (or amortize it over reps), so this is the only row that
 * shows its cost. Best of at least five builds per arch.
 */
std::vector<TableRow>
run_distance_table_section(std::int32_t reps)
{
    const arch::ArchKind kinds[] = {arch::ArchKind::HeavyHex,
                                    arch::ArchKind::Sycamore,
                                    arch::ArchKind::Grid};
    constexpr std::int32_t kRequested = 1024;
    std::printf("\ncold distance table (fresh %dq device, budget "
                "%.0f ms)\n",
                kRequested, kDistanceTableBudgetMs);
    std::printf("| %-9s | %6s | %8s | %8s |\n", "arch", "qubits",
                "diameter", "ms");
    std::vector<TableRow> rows;
    for (auto kind : kinds) {
        const arch::CouplingGraph device =
            arch::smallest_arch(kind, kRequested);
        TableRow row;
        row.arch = arch::to_string(kind);
        row.requested = kRequested;
        row.qubits = device.num_qubits();
        volatile std::int32_t sink = 0; // keeps the timed build live
        row.ms = time_best(std::max(reps, 5), [&] {
                     const graph::DistanceMatrix table(
                         device.connectivity());
                     sink = table.at(0, row.qubits - 1);
                 }) *
                 1e3;
        row.diameter = device.distances().diameter();
        std::printf("| %-9s | %6d | %8d | %8.2f |%s\n", row.arch.c_str(),
                    row.qubits, row.diameter, row.ms,
                    row.ms <= kDistanceTableBudgetMs ? ""
                                                     : "  OVER BUDGET");
        rows.push_back(row);
    }
    return rows;
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
                thread_identical = thread_identical &&
                                   circuit::fingerprint(r1.circuit) ==
                                       circuit::fingerprint(r4.circuit);
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
    constexpr double density = 0.3;
    const std::int32_t hw_threads = common::num_threads();

    if (tiers_only) {
        // Targeted CI invocation: only the tier latency/quality gates,
        // no scaling or fabric sweep and no JSON (the default and
        // --smoke runs emit the tiers rows into BENCH_compile.json).
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

    // Fabric-scale compile (full runs only), first for its peak RSS.
    Fabric100k fabric_100k;
    if (!smoke)
        fabric_100k = run_fabric_100k();

    const arch::ArchKind kinds[] = {arch::ArchKind::Grid,
                                    arch::ArchKind::HeavyHex,
                                    arch::ArchKind::Sycamore};
    std::vector<std::int32_t> sizes = {64, 256, 1024};
    if (smoke)
        sizes = {64, 256};

    std::printf("density=%.2f reps=%d threads=%d\n\n", density, reps,
                hw_threads);
    std::printf("| %-9s | %6s | %6s | %7s | %10s |\n", "arch", "req n",
                "qubits", "edges", "seconds");

    std::vector<Row> rows;
    for (auto kind : kinds) {
        for (std::int32_t n : sizes) {
            arch::CouplingGraph device = arch::smallest_arch(kind, n);
            auto problem = problem::random_graph(device.num_qubits(),
                                                 density, 12345);
            core::CompilerOptions options;
            options.tier = core::CompileTier::Best;

            Row row;
            row.arch = arch::to_string(kind);
            row.requested = n;
            row.qubits = device.num_qubits();
            row.edges = problem.num_edges();
            row.seconds = time_best(reps, [&] {
                (void)core::compile(device, problem, options);
            });
            std::printf("| %-9s | %6d | %6d | %7d | %10.3f |\n",
                        row.arch.c_str(), row.requested, row.qubits,
                        row.edges, row.seconds);
            rows.push_back(row);
        }
    }

    const std::vector<TableRow> table_rows =
        run_distance_table_section(reps);
    bool tables_ok = true;
    for (const TableRow& row : table_rows)
        tables_ok = tables_ok && row.ms <= kDistanceTableBudgetMs;

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
        ms_hash1 = circuit::fingerprint(r.circuit);
    });
    common::set_num_threads(hw_threads);
    double ms_parallel = time_best(reps, [&] {
        auto r = core::compile(ms_device, ms_problem, ms_options);
        ms_hashN = circuit::fingerprint(r.circuit);
    });
    const bool ms_match = ms_hash1 == ms_hashN;
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
            obs_off_hash = circuit::fingerprint(r.circuit);
        });
        telemetry::set_enabled(true);
        logging::set_level(logging::Level::Debug);
        logging::set_sink_file("/dev/null");
        double on = time_best(reps, [&] {
            auto r = core::compile(ms_device, ms_problem, obs_options);
            obs_on_hash = circuit::fingerprint(r.circuit);
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
    std::printf("telemetry overhead (heavy-hex 256): off %.3f s, "
                "on %.3f s (%.3fx, budget %.2fx, identical: %s)\n",
                obs_off_seconds, obs_on_seconds, obs_ratio,
                kObsBudgetRatio, obs_match ? "yes" : "NO");

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
            hash_thr1 = circuit::fingerprint(r.circuit);
        });
        common::set_num_threads(4);
        {
            auto r = core::compile(device, problem, sharded_options);
            hash_thr4 = circuit::fingerprint(r.circuit);
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
    const bool all_match = ms_match && obs_match && fabric_identical;

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
                "\"qubits\": %d, \"edges\": %d, \"seconds\": %.6f}%s\n",
                r.arch.c_str(), r.requested, r.qubits, r.edges, r.seconds,
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n  \"distance_table\": [\n");
        for (std::size_t i = 0; i < table_rows.size(); ++i) {
            const TableRow& r = table_rows[i];
            std::fprintf(json,
                         "    {\"arch\": \"%s\", \"requested_n\": %d, "
                         "\"qubits\": %d, \"diameter\": %d, "
                         "\"ms\": %.3f, \"budget_ms\": %.1f}%s\n",
                         r.arch.c_str(), r.requested, r.qubits,
                         r.diameter, r.ms, kDistanceTableBudgetMs,
                         i + 1 < table_rows.size() ? "," : "");
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
            std::fprintf(json, "  \"fabric_100k\": null,\n");
        else
            std::fprintf(json,
                         "  \"fabric_100k\": {\"qubits\": 102400, "
                         "\"regions\": %d, \"seconds\": %.3f, "
                         "\"total_ops\": %lld, "
                         "\"stitched_edges\": %lld, "
                         "\"circuit_bytes\": %zu, "
                         "\"peak_rss_kib\": %ld, "
                         "\"rss_budget_kib\": %ld},\n",
                         fabric_100k.regions, fabric_100k.seconds,
                         static_cast<long long>(fabric_100k.total_ops),
                         static_cast<long long>(fabric_100k.stitched_edges),
                         fabric_100k.circuit_bytes,
                         fabric_100k.peak_rss_kib, kFabric100kRssBudgetKib);
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
                     "  \"fabric_speedup_4096\": %.3f,\n"
                     "  \"tiers_fast_ms_256\": %.3f,\n"
                     "  \"tiers_speedup_sycamore_256\": %.3f,\n"
                     "  \"tiers_worst_depth_ratio\": %.3f,\n"
                     "  \"all_bit_identical\": %s\n"
                     "}\n",
                     fabric_speedup_4096,
                     tier_gates.fast_ms_256,
                     tier_gates.speedup_sycamore_256,
                     tier_gates.worst_depth_ratio,
                     all_match ? "true" : "false");
        std::fclose(json);
        std::printf("wrote BENCH_compile.json\n");
    }
    bench::write_metrics_sidecar("compile_scaling");

    if (!all_match)
        return 1;
    if (!tables_ok)
        return 1;
    if (obs_ratio > kObsBudgetRatio)
        return 1;
    if (!tier_gates.ok())
        return 1;
    if (!service.ok())
        return 1;
    if (!smoke && fabric_speedup_4096 < 3.0)
        return 1;
    if (!smoke && fabric_100k.peak_rss_kib > kFabric100kRssBudgetKib)
        return 1;
    return 0;
}
