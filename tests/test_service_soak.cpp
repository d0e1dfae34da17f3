/**
 * @file
 * Service soak: N client threads firing M mixed (repeat + unique,
 * mixed-tier) pipelined compile requests at an in-process Server.
 * Asserts the service contract end to end:
 *
 *   - every response carries the id of a request this thread sent,
 *     and every request is answered exactly once;
 *   - every response fragment — cached or fresh — is byte-identical
 *     to the plan the core compiler produces for that spec (so warm
 *     responses are byte-identical to cold ones, transitively);
 *   - the plan cache actually absorbs the repeats (hits > 0, and
 *     cached=true responses occur);
 *   - bounded admission control rejects excess work with typed
 *     `overloaded` errors while still answering accepted work;
 *   - a shutdown request flips shutdown_requested() and stop() joins
 *     everything cleanly.
 *
 * The whole file must stay green under TSan — it is wired into the
 * sanitizer CI job precisely to race readers, workers, and the cache.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/coupling_graph.h"
#include "circuit/metrics.h"
#include "common/telemetry/telemetry.h"
#include "circuit/qasm.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "service/client.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/server.h"

namespace permuq::service {
namespace {

/** One distinct compile workload in the soak mix. */
struct Spec
{
    std::int32_t n;
    double density;
    std::uint64_t seed;
    std::string tier;
};

Request
spec_request(const Spec& spec, std::int64_t id)
{
    Request request;
    request.id = id;
    request.arch = "heavyhex";
    request.problem_n = spec.n;
    request.density = spec.density;
    request.seed = spec.seed;
    request.tier = spec.tier;
    return request;
}

/** The deterministic parts of a compiled plan (the CompileReport
 *  also rides in the fragment, but it carries wall-clock phase
 *  timings, so it is only byte-stable cold-to-warm, not
 *  compile-to-compile). */
struct ExpectedPlan
{
    std::string qasm;
    PlanSummary plan;
};

/**
 * What a fresh one-shot compile of @p spec yields — the same path
 * permuqc takes (random problem, smallest heavy-hex device,
 * core::compile, to_qasm). Every service response for the spec must
 * serve this QASM byte for byte and this plan summary.
 */
ExpectedPlan
fresh_plan(const Spec& spec)
{
    const graph::Graph problem =
        problem::random_graph(spec.n, spec.density, spec.seed);
    const arch::CouplingGraph device =
        arch::smallest_arch(arch::ArchKind::HeavyHex,
                            problem.num_vertices());

    core::CompilerOptions options;
    EXPECT_TRUE(core::parse_tier(spec.tier, options.tier));
    auto result = core::compile(device, problem, options);
    const auto metrics = circuit::compute_metrics(result.circuit);

    ExpectedPlan expected;
    expected.qasm = circuit::to_qasm(result.circuit);
    expected.plan.tier = result.tier;
    expected.plan.selected = result.selected;
    expected.plan.depth = metrics.depth;
    expected.plan.cx = metrics.cx_count;
    expected.plan.swaps = metrics.swap_gates;
    return expected;
}

TEST(ServiceSoak, PipelinedMixedLoadIsOrderedCachedAndByteIdentical)
{
    ServerOptions options;
    options.port = 0;
    options.workers = 4;
    options.queue_depth = 256; // no overloads in this test
    options.max_inflight = 64;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // Small pool of distinct specs across tiers; every thread walks
    // the pool several times, so most requests are repeats.
    const std::vector<Spec> specs = {
        {10, 0.40, 1, "fast"},     {12, 0.30, 2, "fast"},
        {14, 0.25, 3, "balanced"}, {10, 0.40, 1, "balanced"},
        {16, 0.20, 4, "fast"},     {12, 0.35, 5, "balanced"},
    };
    constexpr int kThreads = 6;
    constexpr int kRequestsPerThread = 18;
    constexpr int kBatch = 3; // pipelining depth per client

    // Expected plans, compiled directly (no server involved).
    std::vector<ExpectedPlan> expected;
    for (const Spec& spec : specs)
        expected.push_back(fresh_plan(spec));

    std::mutex failures_mutex;
    std::vector<std::string> failures;
    std::atomic<int> cached_responses{0};
    auto fail = [&](const std::string& what) {
        std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back(what);
    };
    // Per-spec fragments as served, split cold/cached, for the
    // byte-identity check after the load completes.
    std::mutex fragments_mutex;
    std::vector<std::vector<std::string>> cold_fragments(specs.size());
    std::vector<std::vector<std::string>> warm_fragments(specs.size());

    auto client_thread = [&](int thread_index) {
        Client client;
        std::string err;
        if (!client.connect(server.port(), err)) {
            fail("connect: " + err);
            return;
        }
        int sent = 0;
        std::map<std::int64_t, std::size_t> inflight; // id -> spec
        while (sent < kRequestsPerThread) {
            const int batch =
                std::min(kBatch, kRequestsPerThread - sent);
            for (int b = 0; b < batch; ++b, ++sent) {
                // Unique id per request across all threads.
                const std::int64_t id =
                    1000 * (thread_index + 1) + sent;
                const std::size_t spec_index =
                    static_cast<std::size_t>(
                        (thread_index + sent * 5) %
                        static_cast<int>(specs.size()));
                if (!client.send(
                        spec_request(specs[spec_index], id), err)) {
                    fail("send: " + err);
                    return;
                }
                inflight.emplace(id, spec_index);
            }
            // Drain the batch; ids may come back in any order.
            while (!inflight.empty()) {
                Response response;
                if (!client.receive(response, err)) {
                    fail("receive: " + err);
                    return;
                }
                const auto it = inflight.find(response.id);
                if (it == inflight.end()) {
                    fail("unexpected response id " +
                         std::to_string(response.id));
                    return;
                }
                if (response.type != "result") {
                    fail("id " + std::to_string(response.id) +
                         ": type=" + response.type + " error=" +
                         to_string(response.error) + " " +
                         response.message);
                } else {
                    const ExpectedPlan& want = expected[it->second];
                    if (response.qasm != want.qasm)
                        fail("id " + std::to_string(response.id) +
                             ": QASM differs from a fresh compile");
                    if (response.plan.tier != want.plan.tier ||
                        response.plan.selected !=
                            want.plan.selected ||
                        response.plan.depth != want.plan.depth ||
                        response.plan.cx != want.plan.cx ||
                        response.plan.swaps != want.plan.swaps)
                        fail("id " + std::to_string(response.id) +
                             ": plan summary differs from a fresh "
                             "compile");
                    std::lock_guard<std::mutex> lock(fragments_mutex);
                    (response.cached ? warm_fragments
                                     : cold_fragments)[it->second]
                        .push_back(response.fragment);
                }
                if (response.cached)
                    cached_responses.fetch_add(1);
                inflight.erase(it);
            }
        }
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(client_thread, t);
    for (auto& thread : threads)
        thread.join();

    for (const std::string& what : failures)
        ADD_FAILURE() << what;
    EXPECT_TRUE(failures.empty());

    // Byte-identity of the warm path: every cached response replays
    // — byte for byte — a fragment that was served cold (the report
    // section carries phase timings, so it is only byte-stable
    // through the cache, never across independent compiles).
    for (std::size_t s = 0; s < specs.size(); ++s) {
        for (const std::string& warm : warm_fragments[s]) {
            bool matched = false;
            for (const std::string& cold : cold_fragments[s])
                if (warm == cold) {
                    matched = true;
                    break;
                }
            EXPECT_TRUE(matched)
                << "spec " << s
                << ": cached fragment is not byte-identical to any "
                   "cold response";
        }
        EXPECT_FALSE(warm_fragments[s].empty())
            << "spec " << s << " was never served from the cache";
    }

    // 108 requests over 6 distinct plans: the cache must have served
    // most of them, and warm responses were proven byte-identical to
    // the directly-compiled plan above.
    EXPECT_GT(server.cache().hits(), 0);
    EXPECT_GT(cached_responses.load(), 0);
    EXPECT_EQ(server.cache().entries(), specs.size());
    EXPECT_LE(server.cache().misses(),
              static_cast<std::int64_t>(kThreads * specs.size()));

    server.stop();
}

/** Parks the server's workers in ServerOptions::before_lookup until
 *  release(). */
struct Latch
{
    std::mutex mutex;
    std::condition_variable cv;
    int parked = 0;
    bool open = false;

    void
    park()
    {
        std::unique_lock<std::mutex> lock(mutex);
        ++parked;
        cv.notify_all();
        cv.wait(lock, [&] { return open; });
    }

    /** True once @p n workers have parked (false after a minute). */
    bool
    wait_parked(int n)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return cv.wait_for(lock, std::chrono::minutes(1),
                           [&] { return parked >= n; });
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        cv.notify_all();
    }
};

/**
 * Against one worker parked on @p latch and a depth-1 queue, pipeline
 * four compiles: the first occupies the worker, the second waits in
 * the queue, the last two bounce with a typed `overloaded` error
 * while the worker is still parked. Releasing the latch then serves
 * the first two.
 */
void
expect_two_served_two_overloaded(int port, Latch& latch)
{
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(port, error)) << error;
    const Spec spec{10, 0.4, 7, "fast"};
    for (int i = 0; i < 4; ++i) {
        Request request = spec_request(spec, 100 + i);
        request.seed = static_cast<std::uint64_t>(100 + i);
        ASSERT_TRUE(client.send(request, error)) << error;
        if (i == 0) {
            ASSERT_TRUE(latch.wait_parked(1));
        }
    }

    Response response;
    for (const std::int64_t id : {102, 103}) {
        ASSERT_TRUE(client.receive(response, error)) << error;
        EXPECT_EQ(response.id, id);
        ASSERT_EQ(response.type, "error");
        EXPECT_EQ(response.error, ErrorKind::Overloaded);
    }
    latch.release();
    for (const std::int64_t id : {100, 101}) {
        ASSERT_TRUE(client.receive(response, error)) << error;
        EXPECT_EQ(response.id, id);
        EXPECT_EQ(response.type, "result");
    }
}

TEST(ServiceSoak, BoundedQueueRejectsWithTypedOverloaded)
{
    Latch latch;
    ServerOptions options;
    options.port = 0;
    options.workers = 1;
    options.queue_depth = 1;
    options.before_lookup = [&latch] { latch.park(); };
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    expect_two_served_two_overloaded(server.port(), latch);
    // Also after a failed assertion: stop() waits for a parked worker.
    latch.release();
    server.stop();
}

TEST(ServiceSoak, PingMetricsAndShutdownRoundTrip)
{
    // permuqd runs with telemetry on; mirror that so the counters in
    // the metrics payload actually move.
    telemetry::set_enabled(true);
    ServerOptions options;
    options.port = 0;
    options.workers = 1;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(server.port(), error)) << error;

    Request ping;
    ping.id = 1;
    ping.type = "ping";
    Response response;
    ASSERT_TRUE(client.call(ping, response, error)) << error;
    EXPECT_EQ(response.type, "pong");

    // One compile so the metrics payload has request counters.
    ASSERT_TRUE(
        client.call(spec_request({10, 0.4, 1, "fast"}, 2), response,
                    error))
        << error;
    EXPECT_EQ(response.type, "result");

    Request metrics;
    metrics.id = 3;
    metrics.type = "metrics";
    ASSERT_TRUE(client.call(metrics, response, error)) << error;
    EXPECT_EQ(response.type, "metrics");
    EXPECT_NE(response.prometheus.find("permuq_service_requests"),
              std::string::npos)
        << response.prometheus;

    EXPECT_FALSE(server.shutdown_requested());
    Request shutdown;
    shutdown.id = 4;
    shutdown.type = "shutdown";
    ASSERT_TRUE(client.call(shutdown, response, error)) << error;
    EXPECT_EQ(response.type, "ok");
    EXPECT_TRUE(server.shutdown_requested());

    server.stop();
    // After stop() the connection is severed: the next receive sees a
    // clean close, not a hang.
    EXPECT_FALSE(client.receive(response, error));
    telemetry::set_enabled(false);
}

} // namespace
} // namespace permuq::service
