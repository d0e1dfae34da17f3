/**
 * @file
 * permuqc — the PermuQ command-line compiler.
 *
 * Compiles a QAOA/2-local problem graph onto a regular quantum
 * architecture and reports metrics, optionally exporting OpenQASM.
 *
 *   permuqc --arch heavyhex --qubits 64 --density 0.3 --seed 1
 *   permuqc --arch sycamore --input problem.edges --qasm out.qasm
 *   permuqc --arch mumbai --qubits 12 --density 0.3 --compiler 2qan
 *
 * The --input format is one "u v" edge per line (0-based vertex ids;
 * '#' comments allowed); the vertex count is 1 + the largest id. The
 * flags permuqc shares with permuq-client build one core::PlanRequest,
 * compiled through the same core/plan.h steps permuqd takes.
 */
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include <sys/resource.h>

#include "cli_util.h"

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "baselines/baselines.h"
#include "circuit/metrics.h"
#include "circuit/qasm.h"
#include "common/error.h"
#include "common/log/flight_recorder.h"
#include "common/log/log.h"
#include "common/telemetry/telemetry.h"
#include "core/compiler.h"
#include "core/plan.h"
#include "problem/generators.h"
#include "sim/nelder_mead.h"
#include "sim/qaoa.h"
#include "sim/qaoa_objective.h"
#include "sim/simd.h"
#include "sim/statevector.h"
#include "sim/sweep.h"

#ifndef PERMUQ_VERSION
#define PERMUQ_VERSION "unknown"
#endif

namespace {

using namespace permuq;

/** permuqc's own flags; the plan flags fill a core::PlanRequest. */
struct Cli
{
    /** Custom device: coupler edge-list file (overrides --arch). */
    std::string arch_file;
    std::string compiler = "ours";
    std::string input;
    std::string qasm_out;
    std::string trace_out;
    std::string metrics_out;
    std::string prom_out;
    std::string report_out;
    std::optional<std::uint64_t> noise_seed;
    bool diagram = false;
    bool mem_stats = false;
    std::int32_t qaoa_layers = 0;
    std::int32_t qaoa_rounds = 60;
    /** Angle-grid sweep: gammas x betas points (0 = off). */
    std::int32_t sweep_gammas = 0;
    std::int32_t sweep_betas = 0;
    /** Multi-problem sweep width (1 = just the compiled problem). */
    std::int32_t sweep_problems = 1;
};

/** Every flag permuqc understands, for the did-you-mean hint. */
constexpr const char* kKnownFlags[] = {
    "--arch",      "--arch-file", "--qubits",  "--density", "--seed",
    "--input",     "--compiler", "--noise",   "--alpha",
    "--crosstalk", "--qasm",     "--full-qaoa", "--diagram",
    "--qaoa",      "--qaoa-rounds", "--sweep", "--sweep-problems",
    "--trace",     "--metrics",
    "--prom",      "--report",   "--shard",   "--shard-margin",
    "--tier",      "--mem-stats", "--log-level", "--version",
    "--help",
};

/** One line per env knob, for --version / --mem-stats diagnostics. */
void
print_env_knobs(std::FILE* out)
{
    for (const char* knob :
         {"PERMUQ_TIER", "PERMUQ_SHARD", "PERMUQ_SIMD", "PERMUQ_TRACE",
          "PERMUQ_LOG", "PERMUQ_LOG_FORMAT", "PERMUQ_LOG_LEVEL",
          "PERMUQ_FLIGHT"}) {
        const char* value = std::getenv(knob);
        std::fprintf(out, "  %-27s = %s\n", knob,
                     value ? value : "(unset)");
    }
    // The permuqd/permuq-client knobs, reported here too so one
    // `permuqc --version` shows the whole family's configuration.
    tools::print_service_env_knobs(out);
    std::fprintf(out, "  simd tier                   : %s\n",
                 sim::simd_tier_name(sim::active_simd_tier()));
}

void
usage(std::FILE* out)
{
    std::fprintf(
        out,
        "usage: permuqc [options]\n"
        "  --arch A        heavyhex|sycamore|grid|hexagon|line|"
        "lattice3d|mumbai (default heavyhex)\n"
        "  --arch-file F   custom device from a coupler edge list\n"
        "                  (same format as --input; such devices have\n"
        "                  no ATA pattern, so --tier fast falls back\n"
        "                  to balanced)\n"
        "  --qubits N      problem size for random graphs (default 64)\n"
        "  --density D     random-graph density (default 0.3)\n"
        "  --seed S        random-graph seed (default 1)\n"
        "  --input FILE    read the problem as an edge list instead\n"
        "  --compiler C    ours|greedy|ata|qaim|2qan|paulihedral\n"
        "  --noise S       enable a calibrated noise model with seed S\n"
        "  --alpha A       selector depth-vs-error weight (default 0.5)\n"
        "  --crosstalk     enable crosstalk-aware gate scheduling\n"
        "  --qasm FILE     export the compiled circuit as OpenQASM 2.0\n"
        "  --full-qaoa     QASM includes the H prelude, mixer, measures\n"
        "  --diagram       print a text diagram (small circuits only)\n"
        "  --qaoa P        optimize a p=P QAOA run of the compiled\n"
        "                  circuit (simulated; noisy when --noise is\n"
        "                  given, ideal otherwise; n <= 26)\n"
        "  --qaoa-rounds N objective-evaluation budget (default 60)\n"
        "  --sweep GxB     angle-grid sweep over G gamma x B beta\n"
        "                  points (e.g. 8x8; p from --qaoa, else 1;\n"
        "                  noisy when --noise is given), evaluated one\n"
        "                  point at a time through the reused QAOA\n"
        "                  objective. Prints the best point and the\n"
        "                  points/sec throughput.\n"
        "  --sweep-problems N  sweep N independent problems (seeds\n"
        "                  S..S+N-1) concurrently, one per thread\n"
        "                  (ideal sweeps only)\n"
        "  --shard K       region-sharded compilation with ~K bands\n"
        "                  (line/grid/sycamore; 0 = off; the\n"
        "                  PERMUQ_SHARD env var sets the default)\n"
        "  --shard-margin W  minimum extra band height in units\n"
        "  --tier T        latency/quality tier: fast|balanced|best|"
        "auto\n"
        "                  (default auto: the PERMUQ_TIER env var,\n"
        "                  else best)\n"
        "  --mem-stats     report peak RSS and the exact-byte circuit\n"
        "                  memory breakdown after compiling\n"
        "  --trace FILE    write a Chrome trace-event JSON (Perfetto)\n"
        "                  (the PERMUQ_TRACE env var does the same)\n"
        "  --metrics FILE  write a metrics-snapshot JSON\n"
        "  --prom FILE     write the metrics as Prometheus text\n"
        "                  exposition (with tier/arch/shard labels)\n"
        "  --report FILE   write the per-compile explain report JSON\n"
        "                  (phase times, band/tail attribution, cache\n"
        "                  hit rates; see tools/report_summary.py)\n"
        "  --log-level L   debug|info|warn|error|off (default warn;\n"
        "                  PERMUQ_LOG/_FORMAT/_LEVEL configure the\n"
        "                  sink, format, and threshold)\n"
        "  --version       print the version and exit\n"
        "  --help          print this message and exit\n");
}

} // namespace

int
main(int argc, char** argv)
{
    // Always-on crash forensics: SIGSEGV/SIGABRT/... dump the flight
    // ring to permuq_flight.json (PERMUQ_FLIGHT overrides the path).
    flight::install_crash_handler();
    Cli cli;
    core::PlanRequest request;
    request.problem_n = 64;
    // The --shard default; the flag overrides it.
    if (const char* env = std::getenv("PERMUQ_SHARD"))
        request.shard = std::atoi(env);
    for (int i = 1; i < argc; ++i) {
        if (tools::take_plan_flag("permuqc", argc, argv, i, request,
                                  cli.input))
            continue;
        auto is = [&](const char* flag) {
            return std::strcmp(argv[i], flag) == 0;
        };
        auto value = [&] {
            return tools::flag_value("permuqc", argc, argv, i);
        };
        if (is("--help")) {
            usage(stdout);
            return 0;
        } else if (is("--version")) {
            std::printf("permuqc %s\n", PERMUQ_VERSION);
            print_env_knobs(stdout);
            return 0;
        } else if (is("--arch-file"))
            cli.arch_file = value();
        else if (is("--compiler"))
            cli.compiler = value();
        else if (is("--noise"))
            cli.noise_seed =
                static_cast<std::uint64_t>(std::atoll(value()));
        else if (is("--qasm"))
            cli.qasm_out = value();
        else if (is("--qaoa"))
            cli.qaoa_layers = std::atoi(value());
        else if (is("--qaoa-rounds"))
            cli.qaoa_rounds = std::atoi(value());
        else if (is("--sweep")) {
            const char* spec = value();
            int g = 0, b = 0;
            if (std::sscanf(spec, "%dx%d", &g, &b) != 2 || g < 1 ||
                b < 1) {
                std::fprintf(stderr,
                             "permuqc: bad --sweep %s (want GxB, e.g. "
                             "8x8)\n",
                             spec);
                return 2;
            }
            cli.sweep_gammas = g;
            cli.sweep_betas = b;
        } else if (is("--sweep-problems")) {
            cli.sweep_problems = std::atoi(value());
            if (cli.sweep_problems < 1) {
                std::fprintf(stderr,
                             "permuqc: --sweep-problems wants a count "
                             ">= 1\n");
                return 2;
            }
        }
        else if (is("--diagram"))
            cli.diagram = true;
        else if (is("--mem-stats"))
            cli.mem_stats = true;
        else if (is("--trace"))
            cli.trace_out = value();
        else if (is("--metrics"))
            cli.metrics_out = value();
        else if (is("--prom"))
            cli.prom_out = value();
        else if (is("--report"))
            cli.report_out = value();
        else if (is("--log-level")) {
            logging::Level level;
            if (!logging::parse_level(value(), level)) {
                std::fprintf(stderr,
                             "permuqc: bad --log-level %s (want "
                             "debug|info|warn|error|off)\n",
                             argv[i]);
                return 2;
            }
            logging::set_level(level);
        } else {
            std::fprintf(stderr, "permuqc: unknown flag %s\n", argv[i]);
            if (const char* hint =
                    tools::closest_flag(argv[i], kKnownFlags))
                std::fprintf(stderr, "permuqc: did you mean %s?\n", hint);
            std::fprintf(stderr, "permuqc: see --help for options\n");
            return 2;
        }
    }

    if (cli.trace_out.empty())
        if (const char* env = telemetry::env_trace_path())
            cli.trace_out = env;
    if (!cli.trace_out.empty() || !cli.metrics_out.empty() ||
        !cli.prom_out.empty())
        telemetry::set_enabled(true);

    std::string error;
    if (!cli.input.empty() &&
        !tools::read_edge_file(cli.input, request, error)) {
        std::fprintf(stderr, "permuqc: %s\n", error.c_str());
        return 1;
    }

    try {
        const graph::Graph problem = core::plan_problem(request);
        const arch::CouplingGraph device = [&] {
            if (cli.arch_file.empty())
                return arch::named_device(request.arch,
                                          problem.num_vertices());
            core::PlanRequest couplers;
            if (!tools::read_edge_file(cli.arch_file, couplers, error))
                throw FatalError("--arch-file: " + error);
            const graph::Graph links = core::plan_problem(couplers);
            return arch::make_custom(links.num_vertices(), links.edges(),
                                     "custom:" + cli.arch_file);
        }();

        std::optional<arch::NoiseModel> noise;
        if (cli.noise_seed)
            noise = arch::NoiseModel::calibrated(device, *cli.noise_seed);

        // Compile.
        circuit::Circuit circuit;
        std::string selected = cli.compiler;
        core::CompilerOptions options = core::plan_options(request);
        std::string tier_served = core::tier_name(
            core::resolve_tier(options.tier));
        core::CompileReport report;
        double seconds = 0.0;
        if (cli.compiler == "ours" || cli.compiler == "greedy") {
            options.use_ata_prediction = cli.compiler == "ours";
            options.noise = noise ? &*noise : nullptr;
            auto result = core::compile(device, problem, options);
            circuit = std::move(result.circuit);
            seconds = result.compile_seconds;
            tier_served = result.tier;
            report = std::move(result.report);
            if (cli.compiler == "ours")
                // result.tier is the tier actually served (fast falls
                // back to balanced on custom devices).
                selected = "ours(" + result.selected + ", tier " +
                           result.tier + ")";
        } else {
            baselines::BaselineResult result;
            if (cli.compiler == "ata")
                result = baselines::ata_only(device, problem);
            else if (cli.compiler == "qaim")
                result = baselines::qaim_like(device, problem,
                                              noise ? &*noise : nullptr);
            else if (cli.compiler == "2qan")
                result = baselines::tqan_like(device, problem);
            else if (cli.compiler == "paulihedral")
                result = baselines::paulihedral_like(device, problem);
            else
                throw FatalError("unknown --compiler " + cli.compiler);
            circuit = std::move(result.circuit);
            seconds = result.compile_seconds;
        }

        circuit::expect_valid(circuit, device, problem);
        auto metrics = circuit::compute_metrics(
            circuit, noise ? &*noise : nullptr);

        std::printf("device    : %s (%d qubits)\n", device.name().c_str(),
                    device.num_qubits());
        std::printf("problem   : %d qubits, %d gates (density %.2f)\n",
                    problem.num_vertices(), problem.num_edges(),
                    problem.density());
        std::printf("compiler  : %s (%.3f s)\n", selected.c_str(),
                    seconds);
        std::printf("depth     : %d cycles\n", metrics.depth);
        std::printf("cx count  : %lld (%lld merged pairs)\n",
                    static_cast<long long>(metrics.cx_count),
                    static_cast<long long>(metrics.merged_pairs));
        std::printf("swaps     : %lld\n",
                    static_cast<long long>(metrics.swap_gates));
        if (noise)
            std::printf("est. fidelity: %.4g\n", metrics.fidelity);

        if (cli.mem_stats) {
            struct rusage usage{};
            getrusage(RUSAGE_SELF, &usage);
            const std::size_t arena = circuit.ops().memory_bytes();
            const std::size_t mappings =
                circuit.initial_mapping().memory_bytes() +
                circuit.final_mapping().memory_bytes();
            const std::size_t total = circuit.memory_bytes();
            std::printf("peak rss  : %lld KiB\n",
                        static_cast<long long>(usage.ru_maxrss));
            std::printf("circuit   : %zu bytes (%zu ops)\n", total,
                        circuit.ops().size());
            std::printf("  op arena: %zu bytes\n", arena);
            std::printf("  mappings: %zu bytes\n", mappings);
            std::printf("  schedule: %zu bytes\n",
                        total - arena - mappings);
            std::printf("env knobs :\n");
            print_env_knobs(stdout);
        }

        if (!cli.qasm_out.empty()) {
            circuit::QasmOptions qasm;
            qasm.full_qaoa = request.full_qaoa;
            // Block by block into the file: the program text is never
            // materialized in memory (it dwarfs the circuit at fabric
            // scale).
            std::ofstream out(cli.qasm_out);
            circuit::QasmProgram(circuit, qasm)
                .write([&out](std::string_view block) {
                    out.write(block.data(),
                              static_cast<std::streamsize>(block.size()));
                });
            out.close();
            if (!out) {
                std::fprintf(stderr, "permuqc: cannot write %s\n",
                             cli.qasm_out.c_str());
                return 1;
            }
            std::printf("qasm      : wrote %s\n", cli.qasm_out.c_str());
        }
        if (cli.diagram)
            std::fputs(circuit::to_diagram(circuit).c_str(), stdout);

        // One evaluation context per job: --qaoa's optimizer and
        // --sweep share its baked cost spectrum, cut table and scratch
        // state. Built on first use, after that flag's size check.
        std::optional<sim::QaoaObjective> shared_context;
        auto objective_context = [&]() -> sim::QaoaObjective& {
            if (!shared_context)
                shared_context.emplace(problem);
            return *shared_context;
        };

        if (cli.qaoa_layers > 0) {
            fatal_unless(problem.num_vertices() <= sim::kMaxSimQubits,
                         "--qaoa simulation supports up to " +
                             std::to_string(sim::kMaxSimQubits) +
                             " qubits");
            fatal_unless(cli.qaoa_rounds >= 1,
                         "--qaoa-rounds must be at least 1");
            const std::size_t p =
                static_cast<std::size_t>(cli.qaoa_layers);
            sim::QaoaObjective& context = objective_context();
            std::int32_t eval = 0;
            auto objective = [&](const std::vector<double>& x) {
                sim::QaoaAngles angles;
                angles.gamma.assign(x.begin(),
                                    x.begin() + static_cast<std::ptrdiff_t>(p));
                angles.beta.assign(x.begin() + static_cast<std::ptrdiff_t>(p),
                                   x.end());
                if (!noise)
                    return -context.ideal_expectation(angles);
                sim::NoisySimOptions options;
                options.trajectories = 8;
                options.shots = 2000;
                options.seed =
                    1000 + static_cast<std::uint64_t>(eval++);
                return -context.noisy_expectation(circuit, *noise,
                                                  angles, options);
            };
            std::vector<double> x0;
            for (std::size_t k = 0; k < p; ++k)
                x0.push_back(0.3);
            for (std::size_t k = 0; k < p; ++k)
                x0.push_back(0.2);
            auto r = sim::nelder_mead(objective, x0, 0.4,
                                      cli.qaoa_rounds);
            std::printf("qaoa      : p=%d %s <C>=%.4f after %d evals "
                        "(maxcut %d)\n",
                        cli.qaoa_layers, noise ? "noisy" : "ideal",
                        -r.best_f, cli.qaoa_rounds,
                        static_cast<int>(context.max_cut()));
        }

        if (cli.sweep_gammas > 0) {
            fatal_unless(problem.num_vertices() <= sim::kMaxSimQubits,
                         "--sweep simulation supports up to " +
                             std::to_string(sim::kMaxSimQubits) +
                             " qubits");
            const std::int32_t layers = std::max(1, cli.qaoa_layers);
            const auto points = sim::sweep_grid(
                static_cast<std::size_t>(cli.sweep_gammas),
                static_cast<std::size_t>(cli.sweep_betas), layers);
            core::CompileReport::Sweep& summary = report.sweep;
            summary.layers = layers;
            summary.problems = cli.sweep_problems;
            sim::SweepResult best_problem;
            if (cli.sweep_problems > 1) {
                // Multi-problem mode: the compiled problem plus
                // N-1 sibling instances (seeds S+1..S+N-1), swept
                // concurrently. Ideal only — the siblings have no
                // compiled circuit to replay.
                std::vector<graph::Graph> graphs;
                graphs.reserve(
                    static_cast<std::size_t>(cli.sweep_problems) - 1);
                for (std::int32_t k = 1; k < cli.sweep_problems; ++k)
                    graphs.push_back(problem::random_graph(
                        problem.num_vertices(), request.density,
                        request.seed + static_cast<std::uint64_t>(k)));
                std::vector<sim::QaoaObjective> contexts;
                contexts.reserve(graphs.size());
                for (const auto& g : graphs)
                    contexts.emplace_back(g);
                std::vector<sim::QaoaObjective*> objectives{
                    &objective_context()};
                for (auto& c : contexts)
                    objectives.push_back(&c);
                auto multi = sim::sweep_problems(objectives, points);
                best_problem = std::move(multi.problems.front());
                summary.mode = "ideal";
                summary.problems_in_flight = static_cast<std::int32_t>(
                    multi.problems_in_flight);
                for (const sim::QaoaObjective* o : objectives)
                    summary.peak_memory_bytes +=
                        static_cast<std::int64_t>(o->memory_bytes());
                summary.seconds = multi.seconds;
                summary.points_per_sec = multi.points_per_sec;
                std::printf("sweep     : %d problems x %zu points, "
                            "%d in flight, %.3g Mpts/s aggregate, "
                            "%lld bytes of objective state\n",
                            cli.sweep_problems, points.size(),
                            summary.problems_in_flight,
                            multi.points_per_sec * 1e-6,
                            static_cast<long long>(
                                summary.peak_memory_bytes));
            } else {
                sim::SweepEvaluator evaluator(objective_context());
                if (noise) {
                    sim::NoisySimOptions sim_options;
                    sim_options.trajectories = 8;
                    sim_options.shots = 2000;
                    sim_options.seed = 1000;
                    best_problem = evaluator.noisy_sweep(
                        circuit, *noise, points, sim_options);
                    summary.mode = "noisy";
                } else {
                    best_problem = evaluator.ideal_sweep(points);
                    summary.mode = "ideal";
                }
                summary.problems_in_flight = 1;
                summary.peak_memory_bytes = static_cast<std::int64_t>(
                    objective_context().memory_bytes());
                summary.seconds = best_problem.seconds;
                summary.points_per_sec = best_problem.points_per_sec;
            }
            const sim::QaoaAngles& best =
                points[best_problem.best_index];
            summary.points =
                static_cast<std::int64_t>(best_problem.points);
            summary.batch =
                static_cast<std::int32_t>(best_problem.batch);
            summary.best_gamma = best.gamma[0];
            summary.best_beta = best.beta[0];
            summary.best_value = best_problem.best_value;
            summary.memory_bytes =
                static_cast<std::int64_t>(best_problem.memory_bytes);
            std::printf("sweep     : %dx%d grid p=%d %s best <C>=%.4f "
                        "at gamma=%.4f beta=%.4f (%zu points, "
                        "%.3g pts/s, batch %zu)\n",
                        cli.sweep_gammas, cli.sweep_betas, layers,
                        summary.mode.c_str(), best_problem.best_value,
                        best.gamma[0], best.beta[0],
                        best_problem.points,
                        best_problem.points_per_sec,
                        best_problem.batch);
            if (cli.mem_stats) {
                struct rusage usage{};
                getrusage(RUSAGE_SELF, &usage);
                std::printf("sweep mem : %lld bytes of objective "
                            "state (statevector and cut spectrum, "
                            "reused by every point), peak rss %lld "
                            "KiB\n",
                            static_cast<long long>(
                                summary.peak_memory_bytes),
                            static_cast<long long>(usage.ru_maxrss));
            }
        }

        const auto& registry = telemetry::Registry::instance();
        if (!cli.trace_out.empty()) {
            if (!registry.write_trace(cli.trace_out)) {
                std::fprintf(stderr, "permuqc: cannot write %s\n",
                             cli.trace_out.c_str());
                return 1;
            }
            std::printf("trace     : wrote %s\n", cli.trace_out.c_str());
        }
        if (!cli.metrics_out.empty()) {
            if (!registry.write_metrics(cli.metrics_out)) {
                std::fprintf(stderr, "permuqc: cannot write %s\n",
                             cli.metrics_out.c_str());
                return 1;
            }
            std::printf("metrics   : wrote %s\n",
                        cli.metrics_out.c_str());
        }
        if (!cli.prom_out.empty()) {
            // Constant export labels: the payload a permuqd scrape
            // endpoint would serve for this compile.
            auto& mutable_registry = telemetry::Registry::instance();
            mutable_registry.set_export_label("tier", tier_served);
            mutable_registry.set_export_label(
                "arch", cli.arch_file.empty() ? request.arch : "custom");
            mutable_registry.set_export_label(
                "shard", std::to_string(request.shard));
            if (!mutable_registry.write_prometheus(cli.prom_out)) {
                std::fprintf(stderr, "permuqc: cannot write %s\n",
                             cli.prom_out.c_str());
                return 1;
            }
            std::printf("prom      : wrote %s\n", cli.prom_out.c_str());
        }
        if (!cli.report_out.empty()) {
            std::ofstream out(cli.report_out);
            out << report.to_json();
            if (!out) {
                std::fprintf(stderr, "permuqc: cannot write %s\n",
                             cli.report_out.c_str());
                return 1;
            }
            std::printf("report    : wrote %s\n",
                        cli.report_out.c_str());
        }
        logging::flush();
        return 0;
    } catch (const std::exception& e) {
        // Preserve the last spans/log records for post-mortem before
        // surfacing the error: fatal errors get the same flight-dump
        // treatment as crash signals.
        flight::note(flight::Kind::Fatal, "exception", e.what(), 0);
        flight::dump();
        std::fprintf(stderr, "permuqc: %s\n", e.what());
        return 1;
    }
}
