/**
 * @file
 * permuq-client — command-line client for the permuqd compile daemon.
 *
 *   permuq-client --port 7411 --ping
 *   permuq-client --port 7411 --qubits 64 --tier fast --qasm out.qasm
 *   permuq-client --port 7411 --input problem.edges --qasm out.qasm
 *   permuq-client --port 7411 --metrics prom.txt
 *   permuq-client --port 7411 --shutdown
 *
 * One process == one connection. The plan flags are permuqc's, parsed
 * by the same helper into the same request, so a response plan is
 * byte-identical to `permuqc --qasm` with those flags. --count
 * pipelines N copies of the compile request (ids 1..N) before reading
 * any response, which is how CI forces an `overloaded` rejection out
 * of a --workers 1 --queue-depth 1 daemon. Exit status: 0 on success, 1
 * on any unexpected error frame or transport failure, 2 on usage
 * errors; with --expect-overload the meaning inverts for overload
 * frames (at least one must arrive).
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "cli_util.h"
#include "common/log/flight_recorder.h"
#include "service/client.h"
#include "service/protocol.h"

#ifndef PERMUQ_VERSION
#define PERMUQ_VERSION "unknown"
#endif

namespace {

using namespace permuq;

constexpr const char* kKnownFlags[] = {
    "--port",     "--ping",        "--metrics",   "--shutdown",
    "--arch",     "--qubits",      "--density",   "--seed",
    "--input",    "--tier",        "--alpha",     "--crosstalk",
    "--full-qaoa", "--shard",      "--shard-margin",
    "--count",    "--qasm",        "--report",
    "--expect-overload", "--version", "--help",
};

void
usage(std::FILE* out)
{
    std::fprintf(
        out,
        "usage: permuq-client [options]\n"
        "  --port P          daemon port (default: "
        "PERMUQ_SERVICE_PORT, else 7411)\n"
        "  --ping            round-trip a ping and exit\n"
        "  --metrics FILE    fetch the Prometheus exposition into "
        "FILE ('-' = stdout)\n"
        "  --shutdown        ask the daemon to shut down\n"
        "  --arch A          heavyhex|sycamore|grid|hexagon|line|"
        "lattice3d|mumbai\n"
        "  --qubits N        random-problem size (default 64)\n"
        "  --density D       random-graph density (default 0.3)\n"
        "  --seed S          random-graph seed (default 1)\n"
        "  --input FILE      problem edge list ('u v' per line) "
        "instead\n"
        "  --tier T          fast|balanced|best|auto (default auto)\n"
        "  --alpha A         selector depth-vs-error weight\n"
        "  --crosstalk       crosstalk-aware scheduling\n"
        "  --full-qaoa       QASM includes prelude, mixer, measures\n"
        "  --shard K         region-sharded compilation\n"
        "  --shard-margin W  minimum extra band height\n"
        "  --count N         pipeline N copies (ids 1..N) before "
        "reading\n"
        "  --qasm FILE       write the (last) response plan QASM\n"
        "  --report FILE     write the (last) response report JSON\n"
        "  --expect-overload succeed only if >= 1 response was the "
        "typed\n"
        "                    `overloaded` error\n"
        "  --version         print the version and env knobs, exit\n"
        "  --help            print this message and exit\n");
}

} // namespace

int
main(int argc, char** argv)
{
    flight::install_crash_handler();
    int port = static_cast<int>(
        tools::env_int("PERMUQ_SERVICE_PORT", 7411));
    service::Request request;
    request.problem_n = 64;
    std::string mode = "compile";
    std::string input, qasm_out, report_out, metrics_out;
    std::int64_t count = 1;
    bool expect_overload = false;

    for (int i = 1; i < argc; ++i) {
        if (tools::take_plan_flag("permuq-client", argc, argv, i, request,
                                  input))
            continue;
        auto is = [&](const char* flag) {
            return std::strcmp(argv[i], flag) == 0;
        };
        auto value = [&] {
            return tools::flag_value("permuq-client", argc, argv, i);
        };
        if (is("--help")) {
            usage(stdout);
            return 0;
        } else if (is("--version")) {
            std::printf("permuq-client %s\n", PERMUQ_VERSION);
            tools::print_service_env_knobs(stdout);
            return 0;
        } else if (is("--port"))
            port = std::atoi(value());
        else if (is("--ping"))
            mode = "ping";
        else if (is("--metrics")) {
            mode = "metrics";
            metrics_out = value();
        } else if (is("--shutdown"))
            mode = "shutdown";
        else if (is("--count"))
            count = std::atoll(value());
        else if (is("--qasm"))
            qasm_out = value();
        else if (is("--report"))
            report_out = value();
        else if (is("--expect-overload"))
            expect_overload = true;
        else {
            std::fprintf(stderr, "permuq-client: unknown flag %s\n",
                         argv[i]);
            if (const char* hint =
                    tools::closest_flag(argv[i], kKnownFlags))
                std::fprintf(stderr,
                             "permuq-client: did you mean %s?\n", hint);
            std::fprintf(stderr,
                         "permuq-client: see --help for options\n");
            return 2;
        }
    }
    if (count < 1) {
        std::fprintf(stderr, "permuq-client: --count wants >= 1\n");
        return 2;
    }

    std::string error;
    if (mode == "compile" && !input.empty() &&
        !tools::read_edge_file(input, request, error)) {
        std::fprintf(stderr, "permuq-client: %s\n", error.c_str());
        return 1;
    }

    service::Client client;
    if (!client.connect(port, error)) {
        std::fprintf(stderr, "permuq-client: %s\n", error.c_str());
        return 1;
    }

    if (mode != "compile") {
        request = service::Request{};
        request.type = mode;
        request.id = 1;
        service::Response response;
        if (!client.call(request, response, error)) {
            std::fprintf(stderr, "permuq-client: %s\n", error.c_str());
            return 1;
        }
        if (response.type == "error") {
            std::fprintf(stderr, "permuq-client: %s: %s\n",
                         to_string(response.error),
                         response.message.c_str());
            return 1;
        }
        if (mode == "metrics") {
            if (metrics_out == "-") {
                std::fputs(response.prometheus.c_str(), stdout);
            } else {
                std::ofstream out(metrics_out);
                out << response.prometheus;
                if (!out) {
                    std::fprintf(stderr,
                                 "permuq-client: cannot write %s\n",
                                 metrics_out.c_str());
                    return 1;
                }
                std::printf("metrics   : wrote %s\n",
                            metrics_out.c_str());
            }
        } else {
            std::printf("%s\n", mode == "ping" ? "pong" : "ok");
        }
        return 0;
    }

    // Pipeline all requests, then collect all responses (they may
    // arrive out of order).
    for (std::int64_t id = 1; id <= count; ++id) {
        request.id = id;
        if (!client.send(request, error)) {
            std::fprintf(stderr, "permuq-client: %s\n", error.c_str());
            return 1;
        }
    }
    std::int64_t overloads = 0, failures = 0;
    service::Response last_result;
    bool have_result = false;
    for (std::int64_t k = 0; k < count; ++k) {
        service::Response response;
        if (!client.receive(response, error)) {
            std::fprintf(stderr, "permuq-client: %s\n", error.c_str());
            return 1;
        }
        if (response.type == "error") {
            if (response.error == service::ErrorKind::Overloaded) {
                ++overloads;
                std::printf("id=%lld overloaded (%s)\n",
                            static_cast<long long>(response.id),
                            response.message.c_str());
            } else {
                ++failures;
                std::fprintf(stderr, "permuq-client: id=%lld %s: %s\n",
                             static_cast<long long>(response.id),
                             to_string(response.error),
                             response.message.c_str());
            }
            continue;
        }
        std::printf("id=%lld tier=%s selected=%s depth=%lld cx=%lld "
                    "swaps=%lld cached=%s queue_ms=%.3f "
                    "compile_ms=%.3f\n",
                    static_cast<long long>(response.id),
                    response.plan.tier.c_str(),
                    response.plan.selected.c_str(),
                    static_cast<long long>(response.plan.depth),
                    static_cast<long long>(response.plan.cx),
                    static_cast<long long>(response.plan.swaps),
                    response.cached ? "true" : "false",
                    response.queue_ms, response.compile_ms);
        last_result = response;
        have_result = true;
    }

    if (have_result && !qasm_out.empty()) {
        std::ofstream out(qasm_out);
        out << last_result.qasm;
        if (!out) {
            std::fprintf(stderr, "permuq-client: cannot write %s\n",
                         qasm_out.c_str());
            return 1;
        }
        std::printf("qasm      : wrote %s\n", qasm_out.c_str());
    }
    if (have_result && !report_out.empty()) {
        std::ofstream out(report_out);
        out << last_result.report_json;
        if (!out) {
            std::fprintf(stderr, "permuq-client: cannot write %s\n",
                         report_out.c_str());
            return 1;
        }
        std::printf("report    : wrote %s\n", report_out.c_str());
    }

    if (expect_overload)
        return overloads > 0 && failures == 0 ? 0 : 1;
    return failures == 0 && overloads == 0 ? 0 : 1;
}
