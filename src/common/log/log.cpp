/**
 * @file
 * Logger implementation: level gate, sink management, and the async
 * ring-buffered file writer declared in log.h.
 */
#include "common/log/log.h"

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/log/flight_recorder.h"
#include "common/timer.h"

namespace permuq::logging {

namespace detail {
std::atomic<std::int32_t> g_level{static_cast<std::int32_t>(Level::Warn)};
} // namespace detail

namespace {

std::atomic<std::int32_t> g_format{static_cast<std::int32_t>(Format::Text)};
std::atomic<std::int64_t> g_dropped{0};
std::atomic<std::uint32_t> g_next_tid{1};

thread_local std::uint32_t t_tid = 0;

std::uint32_t
local_tid()
{
    if (t_tid == 0)
        t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    return t_tid;
}

/** Stopwatch every log timestamp measures against, pinned at load. */
Timer&
log_epoch()
{
    static Timer epoch;
    return epoch;
}

struct LogRecord
{
    std::uint64_t ns = 0;
    std::uint32_t tid = 0;
    Level lv = Level::Info;
    const char* component = "";
    std::string msg;
};

/** Render one record in the active format, newline-terminated. */
std::string
render(const LogRecord& r, Format f)
{
    std::string line;
    if (f == Format::Json) {
        char head[96];
        std::snprintf(head, sizeof head,
                      "{\"ts_ns\": %llu, \"level\": \"%s\", "
                      "\"tid\": %u, \"component\": \"",
                      static_cast<unsigned long long>(r.ns),
                      level_name(r.lv), r.tid);
        line += head;
        common::append_json_escaped(line, r.component);
        line += "\", \"msg\": \"";
        common::append_json_escaped(line, r.msg.c_str());
        line += "\"}\n";
    } else {
        char head[96];
        std::snprintf(head, sizeof head, "[%10.3fs %-5s %s] ",
                      static_cast<double>(r.ns) / 1e9,
                      level_name(r.lv), r.component);
        line += head;
        line += r.msg;
        line += '\n';
    }
    return line;
}

/**
 * The async file writer: a bounded ring drained by one background
 * thread. Lives as a leaked singleton like the telemetry registry so
 * a log call during static destruction can never touch a destroyed
 * mutex; an atexit hook drains and closes the sink at clean exit.
 */
struct Writer
{
    static constexpr std::size_t kRingCap = 1024;

    std::mutex mu;
    std::condition_variable cv;       ///< writer wake-up
    std::condition_variable cv_empty; ///< flush() wake-up
    std::vector<LogRecord> ring;      ///< FIFO (bounded)
    std::FILE* file = nullptr;        ///< nullptr = stderr sink
    bool thread_running = false;
    bool stop = false;
    bool draining = false; ///< a batch is in flight to the sink
    std::thread thread;

    void
    run()
    {
        std::unique_lock<std::mutex> lock(mu);
        while (true) {
            cv.wait(lock, [&] { return stop || !ring.empty(); });
            if (ring.empty() && stop)
                break;
            std::vector<LogRecord> batch;
            batch.swap(ring);
            draining = true;
            std::FILE* f = file != nullptr ? file : stderr;
            const Format fmt = format();
            lock.unlock();
            for (const LogRecord& r : batch) {
                const std::string line = render(r, fmt);
                std::fwrite(line.data(), 1, line.size(), f);
            }
            std::fflush(f);
            lock.lock();
            draining = false;
            if (ring.empty())
                cv_empty.notify_all();
        }
    }

    void
    ensure_thread()
    {
        if (!thread_running) {
            thread_running = true;
            thread = std::thread([this] { run(); });
        }
    }

    /** Called with mu held. */
    void
    push(LogRecord&& r)
    {
        if (ring.size() >= kRingCap) {
            ring.erase(ring.begin());
            g_dropped.fetch_add(1, std::memory_order_relaxed);
        }
        ring.push_back(std::move(r));
        cv.notify_one();
    }

    /** Stop the thread and drain what is left, synchronously. */
    void
    shutdown()
    {
        std::thread t;
        {
            std::lock_guard<std::mutex> lock(mu);
            stop = true;
            cv.notify_all();
            if (thread_running) {
                t = std::move(thread);
                thread_running = false;
            }
        }
        if (t.joinable())
            t.join();
        std::lock_guard<std::mutex> lock(mu);
        std::FILE* f = file != nullptr ? file : stderr;
        for (const LogRecord& r : ring) {
            const std::string line = render(r, format());
            std::fwrite(line.data(), 1, line.size(), f);
        }
        ring.clear();
        if (file != nullptr) {
            std::fflush(file);
            std::fclose(file);
            file = nullptr; // later records fall back to stderr
        }
    }
};

Writer&
writer()
{
    static Writer* w = [] {
        auto* inst = new Writer();
        std::atexit([] { writer().shutdown(); });
        return inst;
    }();
    return *w;
}

} // namespace

void
set_level(Level level)
{
    detail::g_level.store(static_cast<std::int32_t>(level),
                          std::memory_order_relaxed);
}

bool
parse_level(const std::string& name, Level& out)
{
    if (name == "debug")
        out = Level::Debug;
    else if (name == "info")
        out = Level::Info;
    else if (name == "warn")
        out = Level::Warn;
    else if (name == "error")
        out = Level::Error;
    else if (name == "off")
        out = Level::Off;
    else
        return false;
    return true;
}

const char*
level_name(Level l)
{
    switch (l) {
    case Level::Debug: return "debug";
    case Level::Info: return "info";
    case Level::Warn: return "warn";
    case Level::Error: return "error";
    case Level::Off: return "off";
    }
    return "?";
}

bool
parse_format(const std::string& name, Format& out)
{
    if (name == "text")
        out = Format::Text;
    else if (name == "json")
        out = Format::Json;
    else
        return false;
    return true;
}

void
set_format(Format f)
{
    g_format.store(static_cast<std::int32_t>(f),
                   std::memory_order_relaxed);
}

Format
format()
{
    return static_cast<Format>(
        g_format.load(std::memory_order_relaxed));
}

void
set_sink_stderr()
{
    Writer& w = writer();
    flush();
    std::lock_guard<std::mutex> lock(w.mu);
    if (w.file != nullptr) {
        std::fflush(w.file);
        std::fclose(w.file);
        w.file = nullptr;
    }
}

bool
set_sink_file(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    Writer& w = writer();
    flush();
    std::lock_guard<std::mutex> lock(w.mu);
    if (w.file != nullptr) {
        std::fflush(w.file);
        std::fclose(w.file);
    }
    w.file = f;
    if (!w.stop)
        w.ensure_thread();
    return true;
}

void
write(Level lv, const char* component, const std::string& message)
{
    if (!enabled(lv) || lv == Level::Off)
        return;
    LogRecord r;
    r.ns = static_cast<std::uint64_t>(log_epoch().elapsed_ns());
    r.tid = local_tid();
    r.lv = lv;
    r.component = component != nullptr ? component : "";
    r.msg = message;

    // Feed the crash flight recorder first: the record survives even
    // if the process dies before the sink sees it.
    flight::note(flight::Kind::Log, r.component, message,
                 static_cast<std::int64_t>(lv));

    Writer& w = writer();
    std::unique_lock<std::mutex> lock(w.mu);
    if (w.file == nullptr || w.stop) {
        // stderr (or post-shutdown) sink: synchronous, one fwrite per
        // record so concurrent lines never interleave and the text is
        // on screen before any crash that follows.
        std::FILE* f = w.file != nullptr ? w.file : stderr;
        const std::string line = render(r, format());
        lock.unlock();
        std::fwrite(line.data(), 1, line.size(), f);
        return;
    }
    w.push(std::move(r));
}

void
flush()
{
    Writer& w = writer();
    std::unique_lock<std::mutex> lock(w.mu);
    if (!w.thread_running)
        return; // synchronous sinks have nothing queued
    w.cv.notify_all();
    w.cv_empty.wait(lock,
                    [&] { return w.ring.empty() && !w.draining; });
    if (w.file != nullptr)
        std::fflush(w.file);
}

std::int64_t
dropped()
{
    return g_dropped.load(std::memory_order_relaxed);
}

void
configure_from_env()
{
    if (const char* lv = std::getenv("PERMUQ_LOG_LEVEL");
        lv != nullptr && lv[0] != '\0') {
        Level parsed;
        if (parse_level(lv, parsed))
            set_level(parsed);
    }
    if (const char* fm = std::getenv("PERMUQ_LOG_FORMAT");
        fm != nullptr && fm[0] != '\0') {
        Format parsed;
        if (parse_format(fm, parsed))
            set_format(parsed);
    }
    if (const char* sink = std::getenv("PERMUQ_LOG");
        sink != nullptr && sink[0] != '\0' &&
        std::string(sink) != "stderr") {
        set_sink_file(sink);
    }
}

namespace {
// Honor the env knobs at program load, mirroring PERMUQ_TRACE
// handling in the telemetry registry.
const bool g_env_init = (configure_from_env(), true);
} // namespace

} // namespace permuq::logging
