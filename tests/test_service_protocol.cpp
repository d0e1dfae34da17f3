/**
 * @file
 * Robustness of the permuqd wire protocol (src/service/protocol.h):
 *
 *  - frames and payloads round-trip exactly, at any feed chunking;
 *  - every malformed input — truncated frame, oversized length
 *    prefix, bad version, garbage JSON, unknown keys, deep nesting,
 *    mid-frame disconnect — yields a *typed* error frame or a clean
 *    connection close, never a crash or a hang;
 *  - a live server survives all of the above on one connection while
 *    still serving correct responses on the next (and, for intra-frame
 *    errors, on the *same* connection);
 *  - a 500+ stream mutation sweep (the in-process twin of
 *    `permuq-fuzz --protocol`) leaves the codec standing;
 *  - the fragment written straight from a circuit and the gather-
 *    written result frame carry the same bytes as the string path,
 *    and a plan too large for one frame is refused with a typed
 *    error on a connection that stays usable.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "arch/coupling_graph.h"
#include "circuit/qasm.h"
#include "common/json.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "service/client.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/server.h"

namespace permuq::service {
namespace {

// ------------------------------------------------------------ framing

TEST(ServiceProtocol, FrameRoundTripSingleAndChunked)
{
    const std::string payload = "{\"v\":1,\"id\":7,\"type\":\"ping\"}";
    const std::string frame = encode_frame(payload);
    ASSERT_EQ(frame.size(), payload.size() + 4);

    // Whole-frame feed.
    {
        FrameDecoder decoder;
        decoder.feed(frame.data(), frame.size());
        std::string out, error;
        ASSERT_EQ(decoder.next(out, error), FrameDecoder::Status::Frame);
        EXPECT_EQ(out, payload);
        EXPECT_EQ(decoder.next(out, error),
                  FrameDecoder::Status::NeedMore);
        EXPECT_EQ(decoder.buffered_bytes(), 0u);
    }

    // Byte-at-a-time feed must produce the identical payload.
    {
        FrameDecoder decoder;
        std::string out, error;
        for (std::size_t i = 0; i < frame.size(); ++i) {
            decoder.feed(frame.data() + i, 1);
            if (i + 1 < frame.size())
                ASSERT_EQ(decoder.next(out, error),
                          FrameDecoder::Status::NeedMore);
        }
        ASSERT_EQ(decoder.next(out, error), FrameDecoder::Status::Frame);
        EXPECT_EQ(out, payload);
    }

    // Several frames in one buffer drain in order.
    {
        FrameDecoder decoder;
        std::string all;
        for (int k = 0; k < 3; ++k)
            all += encode_frame(payload + std::to_string(k));
        decoder.feed(all.data(), all.size());
        std::string out, error;
        for (int k = 0; k < 3; ++k) {
            ASSERT_EQ(decoder.next(out, error),
                      FrameDecoder::Status::Frame);
            EXPECT_EQ(out, payload + std::to_string(k));
        }
        EXPECT_EQ(decoder.next(out, error),
                  FrameDecoder::Status::NeedMore);
    }
}

TEST(ServiceProtocol, TruncatedFrameIsCleanNeedMore)
{
    // A frame cut anywhere leaves the decoder waiting, with the
    // orphan bytes visible (the server reads buffered_bytes() > 0 at
    // EOF as "peer died mid-frame" and just closes).
    const std::string frame =
        encode_frame("{\"v\":1,\"id\":1,\"type\":\"ping\"}");
    for (std::size_t cut = 1; cut < frame.size(); ++cut) {
        FrameDecoder decoder;
        decoder.feed(frame.data(), cut);
        std::string out, error;
        EXPECT_EQ(decoder.next(out, error),
                  FrameDecoder::Status::NeedMore);
        EXPECT_EQ(decoder.buffered_bytes(), cut);
    }
}

TEST(ServiceProtocol, OversizedPrefixPoisonsTheDecoder)
{
    FrameDecoder decoder;
    const std::uint32_t huge =
        static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
    const char prefix[4] = {static_cast<char>(huge >> 24),
                            static_cast<char>(huge >> 16),
                            static_cast<char>(huge >> 8),
                            static_cast<char>(huge)};
    decoder.feed(prefix, 4);
    std::string out, error;
    EXPECT_EQ(decoder.next(out, error), FrameDecoder::Status::Error);
    EXPECT_NE(error.find("exceeds"), std::string::npos);
    // Poisoned: even a later well-formed frame is refused.
    const std::string good = encode_frame("{\"v\":1}");
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(out, error), FrameDecoder::Status::Error);
}

// ----------------------------------------------------------- requests

TEST(ServiceProtocol, RequestPayloadRoundTrip)
{
    Request request;
    request.id = 42;
    request.arch = "sycamore";
    request.problem_n = 20;
    request.has_edges = true;
    request.edges = {{0, 1}, {1, 2}, {2, 19}};
    request.tier = "balanced";
    request.alpha = 0.25;
    request.crosstalk = true;
    request.shard = 2;
    request.shard_margin = 1;
    request.full_qaoa = true;

    Request parsed;
    ErrorKind kind;
    std::string message;
    ASSERT_TRUE(parse_request(build_request_payload(request), parsed,
                              kind, message))
        << message;
    EXPECT_EQ(parsed.id, 42);
    EXPECT_EQ(parsed.arch, "sycamore");
    EXPECT_EQ(parsed.problem_n, 20);
    ASSERT_TRUE(parsed.has_edges);
    ASSERT_EQ(parsed.edges.size(), 3u);
    EXPECT_EQ(parsed.edges[2].b, 19);
    EXPECT_EQ(parsed.tier, "balanced");
    EXPECT_DOUBLE_EQ(parsed.alpha, 0.25);
    EXPECT_TRUE(parsed.crosstalk);
    EXPECT_EQ(parsed.shard, 2);
    EXPECT_EQ(parsed.shard_margin, 1);
    EXPECT_TRUE(parsed.full_qaoa);

    // Random-spec requests round-trip too.
    Request random;
    random.id = 7;
    random.problem_n = 64;
    random.density = 0.3;
    random.seed = 12345;
    random.tier = "fast";
    ASSERT_TRUE(parse_request(build_request_payload(random), parsed,
                              kind, message))
        << message;
    EXPECT_FALSE(parsed.has_edges);
    EXPECT_EQ(parsed.problem_n, 64);
    EXPECT_DOUBLE_EQ(parsed.density, 0.3);
    EXPECT_EQ(parsed.seed, 12345u);
}

TEST(ServiceProtocol, MalformedRequestsYieldTypedErrors)
{
    Request out;
    ErrorKind kind;
    std::string message;

    // Garbage JSON.
    EXPECT_FALSE(parse_request("{\"v\":1,", out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadJson);
    EXPECT_FALSE(parse_request("\x01\x02\x03", out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadJson);
    EXPECT_FALSE(parse_request("[1,2,3]", out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadJson); // top level must be an object

    // Version mismatch / missing version.
    EXPECT_FALSE(parse_request("{\"id\":1,\"type\":\"ping\"}", out,
                               kind, message));
    EXPECT_EQ(kind, ErrorKind::BadVersion);
    EXPECT_FALSE(parse_request("{\"v\":99,\"id\":1,\"type\":\"ping\"}",
                               out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadVersion);

    // Unknown keys (version-skew must fail loudly).
    EXPECT_FALSE(parse_request(
        "{\"v\":1,\"id\":1,\"type\":\"ping\",\"bogus\":true}", out,
        kind, message));
    EXPECT_EQ(kind, ErrorKind::BadRequest);
    EXPECT_NE(message.find("bogus"), std::string::npos);

    // Unknown type, bad field types, out-of-range values.
    EXPECT_FALSE(parse_request("{\"v\":1,\"id\":1,\"type\":\"hack\"}",
                               out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadRequest);
    EXPECT_FALSE(parse_request("{\"v\":1,\"id\":-3,\"type\":\"ping\"}",
                               out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadRequest);
    EXPECT_FALSE(parse_request(
        "{\"v\":1,\"id\":1,\"type\":\"compile\",\"problem\":"
        "{\"n\":4,\"edges\":[[0,9]]}}",
        out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadRequest); // endpoint exceeds n
    EXPECT_FALSE(parse_request(
        "{\"v\":1,\"id\":1,\"type\":\"compile\",\"problem\":{\"n\":4},"
        "\"options\":{\"tier\":\"warp\"}}",
        out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadRequest);

    // Duplicate keys are a parse error, not last-wins.
    EXPECT_FALSE(parse_request("{\"v\":1,\"v\":1,\"id\":1}", out, kind,
                               message));
    EXPECT_EQ(kind, ErrorKind::BadJson);

    // Nesting past the bound must be rejected, not recursed into.
    std::string bomb = "{\"v\":1,\"id\":0,\"type\":";
    bomb.append(256, '[');
    bomb += "0";
    bomb.append(256, ']');
    bomb += "}";
    EXPECT_FALSE(parse_request(bomb, out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadJson);
}

TEST(ServiceProtocol, ParseRefusesWhatTheCompileWouldRefuse)
{
    Request out;
    ErrorKind kind;
    std::string message;
    auto compile = [](const std::string& members) {
        return "{\"v\":1,\"id\":1,\"type\":\"compile\"," + members + "}";
    };

    // An arch outside arch::named_devices().
    EXPECT_FALSE(parse_request(
        compile("\"arch\":\"warp\",\"problem\":{\"n\":8}"), out, kind,
        message));
    EXPECT_EQ(kind, ErrorKind::BadRequest);
    EXPECT_NE(message.find("warp"), std::string::npos) << message;

    // A random spec drawing more edges than the 2^22 explicit-edge cap:
    // at density 1, n = 2897 draws 4194856 edges, n = 2896 4191960.
    EXPECT_FALSE(parse_request(
        compile("\"problem\":{\"n\":2897,\"density\":1}"), out, kind,
        message));
    EXPECT_EQ(kind, ErrorKind::BadRequest);
    EXPECT_NE(message.find("4194856"), std::string::npos) << message;
    EXPECT_TRUE(parse_request(
        compile("\"problem\":{\"n\":2896,\"density\":1}"), out, kind,
        message))
        << message;
    EXPECT_FALSE(parse_request(
        compile("\"problem\":{\"n\":1048576,\"density\":1}"), out,
        kind, message));
    EXPECT_EQ(kind, ErrorKind::BadRequest);
    // Explicit edges are capped by their count, not by n.
    EXPECT_TRUE(parse_request(
        compile("\"problem\":{\"n\":1048576,\"edges\":[[0,1]]}"), out,
        kind, message))
        << message;

    // Self-loops and repeats are the compile's to drop, as in permuqc.
    ASSERT_TRUE(parse_request(
        compile("\"problem\":{\"n\":4,\"edges\":[[2,2],[0,1],[1,0]]}"),
        out, kind, message))
        << message;
    EXPECT_EQ(out.edges.size(), 3u);

    // debug_sleep_ms is no wire field: a frame carrying it is refused.
    EXPECT_FALSE(parse_request(
        compile("\"problem\":{\"n\":8},"
                "\"options\":{\"debug_sleep_ms\":2000}"),
        out, kind, message));
    EXPECT_EQ(kind, ErrorKind::BadRequest);
    EXPECT_NE(message.find("debug_sleep_ms"), std::string::npos)
        << message;
}

TEST(ServiceProtocol, ErrorAndResultPayloadsRoundTrip)
{
    Response response;
    std::string error;
    ASSERT_TRUE(parse_response(
        build_error_payload(9, ErrorKind::Overloaded, "queue full"),
        response, error))
        << error;
    EXPECT_EQ(response.id, 9);
    EXPECT_EQ(response.type, "error");
    EXPECT_EQ(response.error, ErrorKind::Overloaded);
    EXPECT_EQ(response.message, "queue full");

    PlanSummary summary;
    summary.tier = "fast";
    summary.selected = "fast";
    summary.depth = 39;
    summary.cx = 530;
    summary.swaps = 154;
    const std::string fragment = build_plan_fragment(
        summary, "OPENQASM 2.0;\nqreg q[4];\n", "{\"total\":1}");
    ASSERT_TRUE(parse_response(
        build_result_payload(3, true, 0.5, 1.5, fragment), response,
        error))
        << error;
    EXPECT_EQ(response.id, 3);
    EXPECT_EQ(response.type, "result");
    EXPECT_TRUE(response.cached);
    EXPECT_EQ(response.plan.tier, "fast");
    EXPECT_EQ(response.plan.depth, 39);
    EXPECT_EQ(response.qasm, "OPENQASM 2.0;\nqreg q[4];\n");
    // The wire-exact fragment is recovered byte for byte — this is
    // what the cache byte-identity assertions compare.
    EXPECT_EQ(response.fragment, fragment);
    EXPECT_EQ(response.report_json, "{\"total\":1}");
}

TEST(ServiceProtocol, JsonEscaperRoundTripsEveryByte)
{
    std::string raw;
    for (int c = 0; c < 256; ++c)
        raw.push_back(static_cast<char>(c));
    raw += "plain run \"quoted\" back\\slash";
    std::string escaped = "\"";
    common::append_json_escaped(escaped, raw);
    escaped += '"';
    EXPECT_EQ(common::json_escaped_size(raw), escaped.size() - 2);
    EXPECT_NE(escaped.find("\\r"), std::string::npos);
    EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
    std::string error;
    const auto doc = Json::parse(escaped, &error);
    ASSERT_TRUE(doc) << error;
    // Bytes >= 0x80 pass through unchanged; the parser keeps them.
    EXPECT_EQ(doc->string_value(), raw);
}

TEST(ServiceProtocol, FragmentFromTheCircuitEqualsTheStringPath)
{
    struct Case
    {
        arch::ArchKind arch;
        std::int32_t n;
        core::CompileTier tier;
        bool full_qaoa;
    };
    for (const Case& c :
         {Case{arch::ArchKind::HeavyHex, 24, core::CompileTier::Best, false},
          Case{arch::ArchKind::Grid, 64, core::CompileTier::Balanced, true},
          Case{arch::ArchKind::Sycamore, 256, core::CompileTier::Fast,
               false}}) {
        const auto problem = problem::random_graph(c.n, 0.1, 3);
        const auto device = arch::smallest_arch(c.arch, c.n);
        core::CompilerOptions options;
        options.tier = c.tier;
        const auto result = core::compile(device, problem, options);
        circuit::QasmOptions qasm_options;
        qasm_options.full_qaoa = c.full_qaoa;
        PlanSummary summary;
        summary.tier = result.tier;
        summary.selected = result.selected;
        summary.depth = result.metrics.depth;
        summary.cx = result.metrics.cx_count;
        summary.swaps = result.metrics.swap_gates;
        const circuit::QasmProgram qasm(result.circuit, qasm_options,
                                        common::append_json_escaped);
        for (const std::string& report :
             {result.report.to_json(), std::string()}) {
            const std::string want = build_plan_fragment(
                summary, circuit::to_qasm(result.circuit, qasm_options),
                report);
            EXPECT_EQ(build_plan_fragment(summary, qasm, report), want);
            EXPECT_EQ(plan_fragment_size(summary, qasm, report),
                      want.size());
        }
        // Summary strings are escaped the same way on both paths.
        summary.selected = "odd \"name\"\r\n";
        EXPECT_EQ(build_plan_fragment(summary, qasm, "{}"),
                  build_plan_fragment(
                      summary,
                      circuit::to_qasm(result.circuit, qasm_options),
                      "{}"));
    }
}

TEST(ServiceProtocol, GatherWrittenResultSurvivesPartialWrites)
{
    // A non-blocking socket with a small send buffer makes sendmsg
    // stop partway through a piece (and fail with EAGAIN when full),
    // so send_result_frame must resume inside every piece it splits.
    std::string fragment;
    for (int line = 0; fragment.size() < 300 * 1024; ++line)
        fragment += "cx q[" + std::to_string(line % 977) + "],q[" +
                    std::to_string(line % 13) + "];\\n";
    for (const std::size_t filler : {std::size_t{0}, std::size_t{1},
                                     std::size_t{37}, std::size_t{4093}}) {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        const int small = 4096;
        ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
        ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
        ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
        // Bytes already queued shift where the frame's pieces split.
        const std::string lead(filler, 'x');
        const std::string want =
            lead + encode_frame(build_result_payload(42, true, 1.5, 2.25,
                                                     fragment));
        bool sent = false;
        std::thread writer([&] {
            sent = send_pieces(fds[0], {lead}) &&
                   send_result_frame(fds[0], 42, true, 1.5, 2.25,
                                     fragment);
            ::shutdown(fds[0], SHUT_WR);
        });
        std::string got;
        char buf[1500];
        for (int reads = 0; got.size() < want.size(); ++reads) {
            const ssize_t n = ::recv(fds[1], buf, sizeof buf, 0);
            if (n <= 0)
                break;
            got.append(buf, static_cast<std::size_t>(n));
            if (reads % 16 == 0) // let the writer find the buffer full
                std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        // The writer's shutdown ends a short frame; closing the reader's
        // end fails a writer still sending a long one (one that resent
        // bytes), so neither side can hang.
        ::close(fds[1]);
        writer.join();
        ::close(fds[0]);
        EXPECT_TRUE(sent) << "filler " << filler;
        EXPECT_EQ(got, want) << "filler " << filler;
    }
}

// --------------------------------------------------- live-server abuse

class ServiceProtocolServer : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ServerOptions options;
        options.port = 0;
        options.workers = 2;
        server_ = std::make_unique<Server>(options);
        std::string error;
        ASSERT_TRUE(server_->start(error)) << error;
    }

    void TearDown() override { server_->stop(); }

    Request
    small_compile(std::int64_t id) const
    {
        Request request;
        request.id = id;
        request.problem_n = 8;
        request.density = 0.4;
        request.tier = "fast";
        return request;
    }

    /** @p request gets a typed bad_request without reaching the
     *  queue or the cache, and the connection then answers a ping. */
    void
    expect_refused_at_parse(const Request& request)
    {
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect(server_->port(), error)) << error;
        Response response;
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.type, "error");
        EXPECT_EQ(response.error, ErrorKind::BadRequest);
        EXPECT_EQ(response.id, request.id);
        EXPECT_EQ(server_->cache().misses(), 0);

        Request ping;
        ping.id = request.id + 1;
        ping.type = "ping";
        ASSERT_TRUE(client.call(ping, response, error)) << error;
        EXPECT_EQ(response.type, "pong");
        EXPECT_EQ(response.id, ping.id);
    }

    std::unique_ptr<Server> server_;
};

TEST_F(ServiceProtocolServer, UnknownArchIsRefusedAtParse)
{
    Request request = small_compile(3);
    request.arch = "warp";
    expect_refused_at_parse(request);
}

TEST_F(ServiceProtocolServer, RandomSpecOverTheEdgeCapIsRefusedAtParse)
{
    // 2^20 vertices at density 1: about 5.5e11 edges for random_graph
    // to draw, were it admitted.
    Request request = small_compile(5);
    request.problem_n = 1 << 20;
    request.density = 1.0;
    expect_refused_at_parse(request);
}

TEST_F(ServiceProtocolServer, SelfLoopsAndRepeatsAreDroppedAsInPermuqc)
{
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(server_->port(), error)) << error;
    Request request = small_compile(4);
    request.has_edges = true;
    request.problem_n = 5;
    request.edges = {{0, 1}, {1, 2}, {2, 2}, {2, 3}, {1, 0}, {3, 4}};
    Response response;
    ASSERT_TRUE(client.call(request, response, error)) << error;
    ASSERT_EQ(response.type, "result") << response.message;

    // The path graph those edges mean, compiled directly.
    graph::Graph problem(5);
    for (std::int32_t v = 0; v < 4; ++v)
        problem.add_edge(v, v + 1);
    core::CompilerOptions options;
    options.tier = core::CompileTier::Fast;
    const auto result = core::compile(
        arch::smallest_arch(arch::ArchKind::HeavyHex, 5), problem, options);
    EXPECT_EQ(response.qasm, circuit::to_qasm(result.circuit));
}

TEST_F(ServiceProtocolServer, IntraFrameErrorsKeepTheConnectionUsable)
{
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(server_->port(), error)) << error;

    // Garbage JSON in a well-formed frame: typed error, then the same
    // connection still serves a real compile.
    ASSERT_TRUE(client.send_raw(encode_frame("not json at all"), error));
    Response response;
    ASSERT_TRUE(client.receive(response, error)) << error;
    EXPECT_EQ(response.type, "error");
    EXPECT_EQ(response.error, ErrorKind::BadJson);

    ASSERT_TRUE(client.send_raw(
        encode_frame("{\"v\":2026,\"id\":5,\"type\":\"ping\"}"),
        error));
    ASSERT_TRUE(client.receive(response, error)) << error;
    EXPECT_EQ(response.type, "error");
    EXPECT_EQ(response.error, ErrorKind::BadVersion);
    EXPECT_EQ(response.id, 5); // id recovered best-effort

    ASSERT_TRUE(client.call(small_compile(6), response, error))
        << error;
    EXPECT_EQ(response.type, "result");
}

TEST_F(ServiceProtocolServer, OversizedPrefixGetsTypedErrorThenClose)
{
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(server_->port(), error)) << error;
    const std::uint32_t huge =
        static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
    std::string prefix;
    prefix.push_back(static_cast<char>(huge >> 24));
    prefix.push_back(static_cast<char>(huge >> 16));
    prefix.push_back(static_cast<char>(huge >> 8));
    prefix.push_back(static_cast<char>(huge));
    ASSERT_TRUE(client.send_raw(prefix, error));
    Response response;
    ASSERT_TRUE(client.receive(response, error)) << error;
    EXPECT_EQ(response.type, "error");
    EXPECT_EQ(response.error, ErrorKind::Oversized);
    // The server closes after an unrecoverable framing error.
    EXPECT_FALSE(client.receive(response, error));

    // And the next connection is unaffected.
    Client fresh;
    ASSERT_TRUE(fresh.connect(server_->port(), error)) << error;
    ASSERT_TRUE(fresh.call(small_compile(1), response, error)) << error;
    EXPECT_EQ(response.type, "result");
}

TEST_F(ServiceProtocolServer, OversizedPlanIsRefusedAndTheConnectionStays)
{
    // A 1300q Sycamore fast plan is the all-to-all swap network run to
    // completion: about 85 MB of QASM, over the 64 MiB frame cap. The
    // daemon refuses it from the predicted size, caches nothing, and
    // the same connection keeps answering.
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(server_->port(), error)) << error;
    Request big;
    big.id = 7;
    big.arch = "sycamore";
    big.problem_n = 1300;
    big.density = 0.01;
    big.tier = "fast";
    Response response;
    ASSERT_TRUE(client.call(big, response, error)) << error;
    EXPECT_EQ(response.type, "error");
    EXPECT_EQ(response.error, ErrorKind::Oversized);
    EXPECT_NE(response.message.find("frame cap"), std::string::npos)
        << response.message;
    EXPECT_EQ(server_->cache().entries(), 0u);
    EXPECT_EQ(server_->cache().bytes(), 0u);

    Request ping;
    ping.id = 8;
    ping.type = "ping";
    ASSERT_TRUE(client.call(ping, response, error)) << error;
    EXPECT_EQ(response.type, "pong");
    ASSERT_TRUE(client.call(small_compile(9), response, error)) << error;
    EXPECT_EQ(response.type, "result");
}

TEST_F(ServiceProtocolServer, MidFrameDisconnectIsAClosedConnection)
{
    // Send half a frame and hang up; the server must neither crash
    // nor leak the connection, and must keep serving others.
    {
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect(server_->port(), error)) << error;
        const std::string frame =
            encode_frame(build_request_payload(small_compile(1)));
        ASSERT_TRUE(
            client.send_raw(frame.substr(0, frame.size() / 2), error));
        client.shutdown_write();
        Response ignored;
        EXPECT_FALSE(client.receive(ignored, error)); // clean close
        client.close();
    }
    Client other;
    std::string error;
    Response response;
    ASSERT_TRUE(other.connect(server_->port(), error)) << error;
    ASSERT_TRUE(other.call(small_compile(2), response, error)) << error;
    EXPECT_EQ(response.type, "result");
}

TEST_F(ServiceProtocolServer, MutatedStreamSweep500)
{
    // The acceptance-criteria sweep: >= 500 mutated frames at a live
    // server. Every stream must end in a parseable typed error frame
    // or a clean close — and the server must still answer a fresh
    // compile afterwards. Deterministic seed.
    std::mt19937_64 rng(2026);
    auto draw = [&](std::uint64_t bound) {
        return static_cast<std::size_t>(rng() % bound);
    };
    int closes = 0, typed_errors = 0, results = 0;
    constexpr int kStreams = 100; // >= 5 mutated frames per stream
    for (int s = 0; s < kStreams; ++s) {
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect(server_->port(), error)) << error;
        for (int f = 0; f < 5; ++f) {
            std::string frame = encode_frame(
                build_request_payload(small_compile(f + 1)));
            switch (draw(5)) {
            case 0: // flip bits in the payload
                for (std::size_t flips = 1 + draw(6); flips > 0;
                     --flips)
                    frame[4 + draw(frame.size() - 4)] ^=
                        static_cast<char>(1 << draw(8));
                break;
            case 1: // truncate and resynchronize (framing breaks)
                frame.resize(4 + draw(frame.size() - 4));
                break;
            case 2: // raw garbage
                frame.clear();
                for (std::size_t n = 1 + draw(64); n > 0; --n)
                    frame.push_back(static_cast<char>(rng()));
                break;
            case 3: // corrupt the length prefix
                frame[draw(4)] ^= static_cast<char>(0x80);
                break;
            default: // leave well-formed
                break;
            }
            if (!client.send_raw(frame, error))
                break; // server already closed on us — fine
        }
        client.shutdown_write();
        // Drain whatever comes back until close; every frame must
        // parse as a protocol response.
        Response response;
        std::string error2;
        while (client.receive(response, error2)) {
            if (response.type == "error")
                ++typed_errors;
            else if (response.type == "result")
                ++results;
        }
        ++closes;
    }
    // 100 streams x 5 frames = 500 mutated frames, zero crashes.
    EXPECT_EQ(closes, kStreams);
    EXPECT_GT(typed_errors, 0);
    EXPECT_GT(results, 0);

    Client survivor;
    std::string error;
    Response response;
    ASSERT_TRUE(survivor.connect(server_->port(), error)) << error;
    ASSERT_TRUE(survivor.call(small_compile(99), response, error))
        << error;
    EXPECT_EQ(response.type, "result");
}

} // namespace
} // namespace permuq::service
