/**
 * @file
 * permuqd's server core: a blocking-accept TCP listener on loopback,
 * one reader thread per connection, and a shared bounded worker pool
 * (common/parallel's TaskQueue) executing the compiles.
 *
 * Request flow (see DESIGN.md §4j):
 *
 *   accept thread ── spawns ──> per-connection reader
 *       reader: recv -> FrameDecoder -> parse_request
 *         ping/metrics/shutdown  answered inline (cheap)
 *         compile                try_submit() to the TaskQueue;
 *                                rejection => typed `overloaded` frame
 *       worker: plan-cache lookup -> (miss) the core/plan.h inputs,
 *               core::compile + insert
 *               -> result frame, written under the connection's write
 *               mutex (pipelined responses may interleave per request
 *               id, but each frame is written atomically)
 *
 * Admission control is two-level: the TaskQueue bounds the *global*
 * backlog (queue_depth), and each connection bounds its own
 * outstanding compiles (max_inflight) so one pipelining client cannot
 * monopolize the queue. Both rejections surface as `overloaded`.
 *
 * Shutdown: a "shutdown" request (or SIGTERM in permuqd) flips
 * shutdown_requested(); the owner then calls stop(), which closes the
 * listener, drains accepted compiles, severs connections, and joins
 * every thread. Responses for already-accepted work are still
 * delivered.
 */
#ifndef PERMUQ_SERVICE_SERVER_H
#define PERMUQ_SERVICE_SERVER_H

#include <cstdint>
#include <functional>
#include <string>

namespace permuq::service {

class PlanCache;

/** Tunables for one Server (env defaults applied by permuqd). */
struct ServerOptions
{
    /** TCP port on 127.0.0.1; 0 = ephemeral (read back via port()). */
    int port = 0;
    /** Worker threads executing compiles; 0 = hardware concurrency. */
    int workers = 0;
    /** Global bound on queued-but-not-started compiles. */
    std::size_t queue_depth = 64;
    /** Per-connection bound on outstanding compile requests. */
    std::size_t max_inflight = 32;
    /** Plan-cache byte budget. */
    std::size_t cache_budget_bytes = 256u * 1024u * 1024u;
    /** Test hook, called on the worker before each compile's cache
     *  lookup; tests hold a worker in it to fill the queue on cue.
     *  Empty (and never set by permuqd) in production. */
    std::function<void()> before_lookup;
};

/** The permuqd server core (one listening socket). */
class Server
{
  public:
    explicit Server(const ServerOptions& options);

    /** Calls stop(). */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Bind/listen/start the accept thread; false + @p error on
     *  failure (e.g. the port is taken). */
    bool start(std::string& error);

    /** The bound port (after start(); ephemeral ports resolved). */
    int port() const;

    /** True once a shutdown request has been received. */
    bool shutdown_requested() const;

    /**
     * Stop accepting, drain accepted compiles, sever connections, and
     * join all threads. Idempotent.
     */
    void stop();

    /** The shared plan cache (stats for tests and telemetry). */
    const PlanCache& cache() const;

    const ServerOptions& options() const;

  private:
    struct Impl;
    Impl* impl_;
};

} // namespace permuq::service

#endif // PERMUQ_SERVICE_SERVER_H
