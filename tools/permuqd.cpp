/**
 * @file
 * permuqd — the PermuQ compile daemon.
 *
 * A long-lived multi-tenant compile server: accepts framed JSON
 * requests on a loopback TCP port (see src/service/protocol.h), runs
 * the compiles on a bounded worker pool with admission control, and
 * serves repeat requests from an LRU plan cache whose responses are
 * byte-identical to a cold compile.
 *
 *   permuqd --port 7411
 *   permuqd --port 0 --port-file /tmp/permuqd.port   # ephemeral
 *   permuqd --workers 1 --queue-depth 1              # overload demo
 *
 * Environment defaults (flags win): PERMUQ_SERVICE_PORT,
 * PERMUQ_SERVICE_QUEUE_DEPTH, PERMUQ_SERVICE_CACHE_BUDGET (bytes).
 * The daemon exits on SIGINT/SIGTERM or a "shutdown" request; with
 * --prom FILE it writes the final Prometheus exposition on the way
 * out (a scrape endpoint without the HTTP server).
 */
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "cli_util.h"
#include "common/log/flight_recorder.h"
#include "common/log/log.h"
#include "common/telemetry/telemetry.h"
#include "service/plan_cache.h"
#include "service/server.h"

#ifndef PERMUQ_VERSION
#define PERMUQ_VERSION "unknown"
#endif

namespace {

using namespace permuq;

constexpr const char* kKnownFlags[] = {
    "--port",         "--port-file", "--workers",
    "--queue-depth",  "--max-inflight", "--cache-budget",
    "--prom",         "--log-level", "--version",
    "--help",
};

volatile std::sig_atomic_t g_signal = 0;

void
on_signal(int)
{
    g_signal = 1;
}

void
usage(std::FILE* out)
{
    std::fprintf(
        out,
        "usage: permuqd [options]\n"
        "  --port P          listen on 127.0.0.1:P; 0 = ephemeral\n"
        "                    (default: PERMUQ_SERVICE_PORT, else "
        "7411)\n"
        "  --port-file FILE  write the bound port (for --port 0)\n"
        "  --workers N       compile worker threads (default: all "
        "cores)\n"
        "  --queue-depth N   max queued-not-started compiles before\n"
        "                    requests are rejected `overloaded`\n"
        "                    (default: PERMUQ_SERVICE_QUEUE_DEPTH, "
        "else 64)\n"
        "  --max-inflight N  per-connection outstanding-compile cap "
        "(default 32)\n"
        "  --cache-budget B  plan-cache byte budget (default:\n"
        "                    PERMUQ_SERVICE_CACHE_BUDGET, else "
        "268435456)\n"
        "  --prom FILE       write Prometheus text exposition at "
        "shutdown\n"
        "  --log-level L     debug|info|warn|error|off\n"
        "  --version         print the version and env knobs, exit\n"
        "  --help            print this message and exit\n");
}

} // namespace

int
main(int argc, char** argv)
{
    flight::install_crash_handler();
    service::ServerOptions options;
    options.port = static_cast<int>(
        tools::env_int("PERMUQ_SERVICE_PORT", 7411));
    options.queue_depth = static_cast<std::size_t>(
        tools::env_int("PERMUQ_SERVICE_QUEUE_DEPTH", 64));
    options.cache_budget_bytes = static_cast<std::size_t>(
        tools::env_int("PERMUQ_SERVICE_CACHE_BUDGET",
                       256ll * 1024 * 1024));
    std::string port_file, prom_out;

    for (int i = 1; i < argc; ++i) {
        auto is = [&](const char* flag) {
            return std::strcmp(argv[i], flag) == 0;
        };
        auto value = [&] {
            return tools::flag_value("permuqd", argc, argv, i);
        };
        if (is("--help")) {
            usage(stdout);
            return 0;
        } else if (is("--version")) {
            std::printf("permuqd %s\n", PERMUQ_VERSION);
            tools::print_service_env_knobs(stdout);
            return 0;
        } else if (is("--port"))
            options.port = std::atoi(value());
        else if (is("--port-file"))
            port_file = value();
        else if (is("--workers"))
            options.workers = std::atoi(value());
        else if (is("--queue-depth"))
            options.queue_depth =
                static_cast<std::size_t>(std::atoll(value()));
        else if (is("--max-inflight"))
            options.max_inflight =
                static_cast<std::size_t>(std::atoll(value()));
        else if (is("--cache-budget"))
            options.cache_budget_bytes =
                static_cast<std::size_t>(std::atoll(value()));
        else if (is("--prom"))
            prom_out = value();
        else if (is("--log-level")) {
            logging::Level level;
            if (!logging::parse_level(value(), level)) {
                std::fprintf(stderr,
                             "permuqd: bad --log-level %s (want "
                             "debug|info|warn|error|off)\n",
                             argv[i]);
                return 2;
            }
            logging::set_level(level);
        } else {
            std::fprintf(stderr, "permuqd: unknown flag %s\n", argv[i]);
            if (const char* hint =
                    tools::closest_flag(argv[i], kKnownFlags))
                std::fprintf(stderr, "permuqd: did you mean %s?\n",
                             hint);
            std::fprintf(stderr, "permuqd: see --help for options\n");
            return 2;
        }
    }

    // The daemon's whole point is observability: metrics are always
    // on, and the registry carries a constant service label.
    telemetry::set_enabled(true);
    telemetry::Registry::instance().set_export_label("service",
                                                     "permuqd");

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    service::Server server(options);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "permuqd: %s\n", error.c_str());
        return 1;
    }
    if (!port_file.empty()) {
        std::ofstream out(port_file);
        out << server.port() << "\n";
        if (!out) {
            std::fprintf(stderr, "permuqd: cannot write %s\n",
                         port_file.c_str());
            return 1;
        }
    }
    std::printf("permuqd: listening on 127.0.0.1:%d (workers %s, "
                "queue depth %zu, cache budget %zu bytes)\n",
                server.port(),
                options.workers > 0
                    ? std::to_string(options.workers).c_str()
                    : "auto",
                options.queue_depth, options.cache_budget_bytes);
    std::fflush(stdout);

    while (!server.shutdown_requested() && g_signal == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();

    const auto& cache = server.cache();
    std::printf("permuqd: cache %lld hit(s) / %lld miss(es), "
                "%zu entr%s, %zu bytes; shutting down\n",
                static_cast<long long>(cache.hits()),
                static_cast<long long>(cache.misses()),
                cache.entries(), cache.entries() == 1 ? "y" : "ies",
                cache.bytes());
    if (!prom_out.empty()) {
        if (!telemetry::Registry::instance().write_prometheus(
                prom_out)) {
            std::fprintf(stderr, "permuqd: cannot write %s\n",
                         prom_out.c_str());
            return 1;
        }
        std::printf("permuqd: prom wrote %s\n", prom_out.c_str());
    }
    logging::flush();
    return 0;
}
