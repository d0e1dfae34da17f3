#include "service/server.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "arch/coupling_graph.h"
#include "circuit/qasm.h"
#include "common/json.h"
#include "common/log/log.h"
#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "common/timer.h"
#include "core/compiler.h"
#include "core/plan.h"
#include "service/plan_cache.h"
#include "service/protocol.h"

namespace permuq::service {

namespace {

/** Best-effort request id from a payload whose parse failed, so the
 *  error frame can still be correlated (0 when unrecoverable). */
std::int64_t
best_effort_id(const std::string& payload)
{
    std::string ignored;
    const auto doc = Json::parse(payload, &ignored);
    if (!doc || !doc->is_object())
        return 0;
    const Json* id = doc->find("id");
    return (id != nullptr && id->is_number() && id->int_value() >= 0)
               ? id->int_value()
               : 0;
}

} // namespace

struct Server::Impl
{
    explicit Impl(const ServerOptions& opts)
        : options(opts),
          queue(opts.workers > 0
                    ? opts.workers
                    : static_cast<int>(
                          std::thread::hardware_concurrency()),
                opts.queue_depth),
          cache(opts.cache_budget_bytes),
          requests(telemetry::counter("permuq.service.requests")),
          responses(telemetry::counter("permuq.service.responses")),
          errors(telemetry::counter("permuq.service.errors")),
          overloaded(telemetry::counter("permuq.service.overloaded")),
          cache_hits(telemetry::counter("permuq.service.cache_hits")),
          cache_misses(
              telemetry::counter("permuq.service.cache_misses")),
          queue_depth(telemetry::gauge("permuq.service.queue_depth")),
          cache_bytes(telemetry::gauge("permuq.service.cache_bytes")),
          cache_entries(
              telemetry::gauge("permuq.service.cache_entries")),
          queue_ms(telemetry::histogram("permuq.service.queue_ms")),
          compile_ms(
              telemetry::histogram("permuq.service.compile_ms")),
          request_ms(telemetry::histogram("permuq.service.request_ms"))
    {
    }

    /** One accepted connection; the fd closes with the last owner
     *  (reader, pending worker tasks, or the connection list). */
    struct Connection
    {
        explicit Connection(int fd_in) : fd(fd_in) {}

        ~Connection()
        {
            if (fd >= 0)
                ::close(fd);
        }

        int fd = -1;
        std::mutex write_mutex;
        /** Compile requests accepted but not yet answered. */
        std::atomic<std::size_t> outstanding{0};
        std::atomic<bool> reader_done{false};
        std::thread reader;
    };

    ServerOptions options;
    common::TaskQueue queue;
    PlanCache cache;

    /** Atomic because stop() retires it while accept_loop() reads it
     *  (the fd itself is only closed after the accept thread joins). */
    std::atomic<int> listen_fd{-1};
    int bound_port = 0;
    std::thread accept_thread;
    std::mutex connections_mutex;
    std::vector<std::shared_ptr<Connection>> connections;
    std::atomic<bool> stopping{false};
    std::atomic<bool> stopped{false};
    std::atomic<bool> shutdown_requested{false};

    telemetry::Counter& requests;
    telemetry::Counter& responses;
    telemetry::Counter& errors;
    telemetry::Counter& overloaded;
    telemetry::Counter& cache_hits;
    telemetry::Counter& cache_misses;
    telemetry::Gauge& queue_depth;
    telemetry::Gauge& cache_bytes;
    telemetry::Gauge& cache_entries;
    telemetry::Histogram& queue_ms;
    telemetry::Histogram& compile_ms;
    telemetry::Histogram& request_ms;

    void accept_loop();
    void reader_loop(const std::shared_ptr<Connection>& conn);
    void handle_frame(const std::shared_ptr<Connection>& conn,
                      const std::string& payload);
    void run_compile(const std::shared_ptr<Connection>& conn,
                     const Request& request, double queued_ms);

    bool
    write_frame(const std::shared_ptr<Connection>& conn,
                const std::string& payload)
    {
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        return send_frame(conn->fd, payload);
    }

    bool
    write_result(const std::shared_ptr<Connection>& conn, std::int64_t id,
                 bool cached, double queued_ms, double work_ms,
                 const std::string& fragment)
    {
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        return send_result_frame(conn->fd, id, cached, queued_ms, work_ms,
                                 fragment);
    }

    void
    send_error(const std::shared_ptr<Connection>& conn, std::int64_t id,
               ErrorKind kind, const std::string& message)
    {
        errors.add();
        if (kind == ErrorKind::Overloaded)
            overloaded.add();
        logging::info("service",
                      "error id=" + std::to_string(id) + " kind=" +
                          to_string(kind) + " (" + message + ")");
        write_frame(conn, build_error_payload(id, kind, message));
    }

    void
    publish_cache_stats()
    {
        cache_bytes.set(static_cast<std::int64_t>(cache.bytes()));
        cache_entries.set(static_cast<std::int64_t>(cache.entries()));
    }
};

void
Server::Impl::accept_loop()
{
    while (!stopping.load(std::memory_order_acquire)) {
        const int lfd = listen_fd.load(std::memory_order_acquire);
        if (lfd < 0)
            break; // retired by stop()
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener closed (stop()) or fatal
        }
        auto conn = std::make_shared<Connection>(fd);
        {
            std::lock_guard<std::mutex> lock(connections_mutex);
            // Reap connections whose reader has already finished, so a
            // long-lived daemon doesn't accumulate dead entries.
            for (auto it = connections.begin();
                 it != connections.end();) {
                if ((*it)->reader_done.load(
                        std::memory_order_acquire)) {
                    if ((*it)->reader.joinable())
                        (*it)->reader.join();
                    it = connections.erase(it);
                } else {
                    ++it;
                }
            }
            connections.push_back(conn);
        }
        conn->reader = std::thread([this, conn] { reader_loop(conn); });
    }
}

void
Server::Impl::reader_loop(const std::shared_ptr<Connection>& conn)
{
    FrameDecoder decoder;
    std::vector<char> buf(64 * 1024);
    for (;;) {
        const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // peer closed (possibly mid-frame) or severed
        decoder.feed(buf.data(), static_cast<std::size_t>(n));
        for (;;) {
            std::string payload, error;
            const auto status = decoder.next(payload, error);
            if (status == FrameDecoder::Status::NeedMore)
                break;
            if (status == FrameDecoder::Status::Error) {
                // Framing is unrecoverable: answer once, then close.
                send_error(conn, 0, ErrorKind::Oversized, error);
                ::shutdown(conn->fd, SHUT_RDWR);
                conn->reader_done.store(true,
                                        std::memory_order_release);
                return;
            }
            handle_frame(conn, payload);
        }
    }
    // Peer EOF (possibly mid-frame — that's just a disconnect, not a
    // protocol error). Deliver responses for already-accepted work,
    // then sever our side so the peer sees a clean close.
    while (conn->outstanding.load(std::memory_order_acquire) > 0 &&
           !stopping.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->reader_done.store(true, std::memory_order_release);
}

void
Server::Impl::handle_frame(const std::shared_ptr<Connection>& conn,
                           const std::string& payload)
{
    requests.add();
    Request request;
    ErrorKind kind = ErrorKind::Internal;
    std::string message;
    if (!parse_request(payload, request, kind, message)) {
        send_error(conn, best_effort_id(payload), kind, message);
        return;
    }

    if (request.type == "ping") {
        responses.add();
        write_frame(conn, build_pong_payload(request.id));
        return;
    }
    if (request.type == "metrics") {
        publish_cache_stats();
        responses.add();
        write_frame(
            conn,
            build_metrics_payload(
                request.id,
                telemetry::Registry::instance().prometheus_text()));
        return;
    }
    if (request.type == "shutdown") {
        responses.add();
        // Flag first, then acknowledge: a client that saw the "ok"
        // must observe shutdown_requested() as true.
        shutdown_requested.store(true, std::memory_order_release);
        logging::info("service", "shutdown requested id=" +
                                     std::to_string(request.id));
        write_frame(conn, build_ok_payload(request.id));
        return;
    }

    // compile: two-level admission control (per-connection, global).
    if (conn->outstanding.load(std::memory_order_acquire) >=
        options.max_inflight) {
        send_error(conn, request.id, ErrorKind::Overloaded,
                   "connection has " +
                       std::to_string(options.max_inflight) +
                       " compiles in flight");
        return;
    }
    conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
    auto queued = std::make_shared<Timer>();
    const bool accepted =
        queue.try_submit([this, conn, request, queued] {
            const double queued_ms = queued->elapsed_ms();
            queue_depth.set(static_cast<std::int64_t>(queue.pending()));
            run_compile(conn, request, queued_ms);
            conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
        });
    if (!accepted) {
        conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
        send_error(conn, request.id, ErrorKind::Overloaded,
                   "compile queue is full (depth " +
                       std::to_string(queue.max_pending()) + ")");
        return;
    }
    queue_depth.set(static_cast<std::int64_t>(queue.pending()));
}

void
Server::Impl::run_compile(const std::shared_ptr<Connection>& conn,
                          const Request& request, double queued_ms)
{
    telemetry::ScopedSpan span("service.compile");
    if (options.before_lookup)
        options.before_lookup();

    // The tier was validated at parse_request: this does not throw.
    const auto compile_options = core::plan_options(request);
    const std::string resolved =
        core::tier_name(core::resolve_tier(compile_options.tier));
    const std::string key = PlanCache::make_key(request, resolved);

    Timer work;
    if (auto fragment = cache.lookup(key)) {
        cache_hits.add();
        publish_cache_stats();
        const double work_ms = work.elapsed_ms();
        compile_ms.record(work_ms);
        queue_ms.record(queued_ms);
        request_ms.record(queued_ms + work_ms);
        span.arg("cached", std::int64_t{1});
        responses.add();
        logging::info("service",
                      "compile id=" + std::to_string(request.id) +
                          " tier=" + resolved + " cache=hit");
        write_result(conn, request.id, true, queued_ms, work_ms, *fragment);
        return;
    }
    cache_misses.add();

    try {
        // The inputs permuqc compiles for the same request, from the
        // same core/plan.h steps.
        const auto problem = core::plan_problem(request);
        const auto device =
            arch::named_device(request.arch, problem.num_vertices());
        const auto result = core::compile(device, problem, compile_options);

        // The fragment is written once, straight from the circuit, at
        // the exact size computed before any of it is allocated.
        circuit::QasmOptions qasm_options;
        qasm_options.full_qaoa = request.full_qaoa;
        const circuit::QasmProgram qasm(result.circuit, qasm_options,
                                        common::append_json_escaped);
        PlanSummary summary;
        summary.tier = result.tier;
        summary.selected = result.selected;
        summary.depth = result.metrics.depth;
        summary.cx = result.metrics.cx_count;
        summary.swaps = result.metrics.swap_gates;
        const std::string report_json = result.report.to_json();
        const std::size_t bytes =
            plan_fragment_size(summary, qasm, report_json);
        if (bytes > kMaxFragmentBytes) {
            send_error(conn, request.id, ErrorKind::Oversized,
                       "the plan takes " + std::to_string(bytes) +
                           " bytes, more than a result frame carries "
                           "under the " +
                           std::to_string(kMaxFrameBytes) +
                           "-byte frame cap");
            return;
        }
        auto fragment = std::make_shared<const std::string>(
            build_plan_fragment(summary, qasm, report_json));
        cache.insert(key, fragment);
        publish_cache_stats();

        const double work_ms = work.elapsed_ms();
        compile_ms.record(work_ms);
        queue_ms.record(queued_ms);
        request_ms.record(queued_ms + work_ms);
        span.arg("cached", std::int64_t{0});
        span.arg("qubits", problem.num_vertices());
        responses.add();
        logging::info("service",
                      "compile id=" + std::to_string(request.id) +
                          " tier=" + result.tier + " cache=miss n=" +
                          std::to_string(problem.num_vertices()));
        write_result(conn, request.id, false, queued_ms, work_ms,
                     *fragment);
    } catch (const std::invalid_argument& e) {
        send_error(conn, request.id, ErrorKind::BadRequest, e.what());
    } catch (const std::exception& e) {
        send_error(conn, request.id, ErrorKind::Internal, e.what());
    }
}

Server::Server(const ServerOptions& options) : impl_(new Impl(options))
{
}

Server::~Server()
{
    stop();
    delete impl_;
}

bool
Server::start(std::string& error)
{
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (lfd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(impl_->options.port));
    if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
        error = std::string("bind: ") + std::strerror(errno);
        ::close(lfd);
        return false;
    }
    if (::listen(lfd, 64) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        ::close(lfd);
        return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(lfd, reinterpret_cast<sockaddr*>(&bound), &len);
    impl_->listen_fd.store(lfd, std::memory_order_release);
    impl_->bound_port = ntohs(bound.sin_port);
    impl_->accept_thread =
        std::thread([this] { impl_->accept_loop(); });
    logging::info("service",
                  "listening on 127.0.0.1:" +
                      std::to_string(impl_->bound_port) + " workers=" +
                      std::to_string(impl_->queue.num_workers()) +
                      " queue_depth=" +
                      std::to_string(impl_->queue.max_pending()));
    return true;
}

int
Server::port() const
{
    return impl_->bound_port;
}

bool
Server::shutdown_requested() const
{
    return impl_->shutdown_requested.load(std::memory_order_acquire);
}

void
Server::stop()
{
    if (impl_->stopped.exchange(true, std::memory_order_acq_rel))
        return;
    impl_->stopping.store(true, std::memory_order_release);
    // Retire the listener fd first (so accept_loop cannot pick it up
    // again), wake the blocked accept with shutdown(), and only close
    // the fd once the accept thread has joined — closing earlier
    // would let the kernel reuse the number under a racing accept().
    const int lfd =
        impl_->listen_fd.exchange(-1, std::memory_order_acq_rel);
    if (lfd >= 0)
        ::shutdown(lfd, SHUT_RDWR);
    if (impl_->accept_thread.joinable())
        impl_->accept_thread.join();
    if (lfd >= 0)
        ::close(lfd);
    // Run every accepted compile to completion (their responses are
    // still written), then sever and join the readers.
    impl_->queue.stop();
    std::vector<std::shared_ptr<Impl::Connection>> connections;
    {
        std::lock_guard<std::mutex> lock(impl_->connections_mutex);
        connections.swap(impl_->connections);
    }
    for (auto& conn : connections)
        ::shutdown(conn->fd, SHUT_RDWR);
    for (auto& conn : connections)
        if (conn->reader.joinable())
            conn->reader.join();
    logging::info("service", "stopped");
}

const PlanCache&
Server::cache() const
{
    return impl_->cache;
}

const ServerOptions&
Server::options() const
{
    return impl_->options;
}

} // namespace permuq::service
