/**
 * @file
 * Registry, span-buffer, and JSON-export implementation for the
 * telemetry layer declared in telemetry.h.
 */
#include "common/telemetry/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/json.h"
#include "common/log/flight_recorder.h"
#include "common/stats.h"

namespace permuq::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/**
 * Per-thread span ring buffer. Single writer (the owning thread);
 * readers (snapshot/export) synchronize on the release-store of
 * count_, so every export sees fully written events. Held by
 * shared_ptr from the registry so buffers outlive their threads.
 */
struct ThreadBuffer
{
    static constexpr std::size_t kCapacity = std::size_t(1) << 15;

    explicit ThreadBuffer(std::uint32_t tid) : tid(tid)
    {
        events.resize(kCapacity);
    }

    void
    push(const SpanEvent& ev)
    {
        const std::uint64_t n = count_.load(std::memory_order_relaxed);
        events[n % kCapacity] = ev;
        count_.store(n + 1, std::memory_order_release);
    }

    /** All retained events, oldest first (acquire pairs with push). */
    std::vector<SpanEvent>
    drainable() const
    {
        const std::uint64_t n = count_.load(std::memory_order_acquire);
        const std::uint64_t kept = std::min<std::uint64_t>(n, kCapacity);
        std::vector<SpanEvent> out;
        out.reserve(static_cast<std::size_t>(kept));
        for (std::uint64_t i = n - kept; i < n; ++i)
            out.push_back(events[i % kCapacity]);
        return out;
    }

    void clear() { count_.store(0, std::memory_order_release); }

    const std::uint32_t tid;
    std::uint16_t depth = 0; ///< only touched by the owning thread
    std::vector<SpanEvent> events;

  private:
    std::atomic<std::uint64_t> count_{0};
};

/** Shared stopwatch all spans measure against, started on first use. */
Timer&
trace_epoch()
{
    static Timer epoch;
    return epoch;
}

/** @p s escaped for the inside of a JSON string literal. */
std::string
escaped(std::string_view s)
{
    std::string out;
    common::append_json_escaped(out, s);
    return out;
}

std::string
format_double(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

void
set_enabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
    if (on)
        trace_epoch(); // pin the epoch before any span starts
}

const char*
env_trace_path()
{
    const char* p = std::getenv("PERMUQ_TRACE");
    return (p != nullptr && p[0] != '\0') ? p : nullptr;
}

// ----------------------------------------------------------- registry

struct Registry::Impl
{
    mutable std::mutex mu;
    std::unordered_map<std::string, std::size_t> counter_ix;
    std::unordered_map<std::string, std::size_t> gauge_ix;
    std::unordered_map<std::string, std::size_t> histogram_ix;
    // Deques keep references stable across registration.
    std::deque<std::pair<std::string, Counter>> counters;
    std::deque<std::pair<std::string, Gauge>> gauges;
    std::deque<std::pair<std::string, Histogram>> histograms;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::uint32_t next_tid = 1;
    /** Constant labels stamped on every Prometheus series (sorted so
     *  exposition order is deterministic). */
    std::map<std::string, std::string> labels;
};

namespace {

/** The calling thread's span buffer, registered on first use. */
ThreadBuffer&
local_buffer(Registry::Impl& impl)
{
    thread_local std::shared_ptr<ThreadBuffer> buf;
    if (!buf) {
        std::lock_guard<std::mutex> lock(impl.mu);
        buf = std::make_shared<ThreadBuffer>(impl.next_tid++);
        impl.buffers.push_back(buf);
    }
    return *buf;
}

Registry::Impl&
registry_impl()
{
    // Leak the registry (never destroyed) so spans recorded during
    // static destruction of other objects stay safe.
    static Registry::Impl* impl = new Registry::Impl();
    return *impl;
}

} // namespace

Registry::Registry() : impl_(&registry_impl())
{
    if (env_trace_path() != nullptr)
        set_enabled(true);
}

Registry::~Registry() = default;

Registry&
Registry::instance()
{
    static Registry reg;
    return reg;
}

namespace {
// Construct the registry (and honor PERMUQ_TRACE) at program load, so
// spans recorded before any explicit telemetry call are not lost when
// the env var is the only switch.
const bool g_env_init = (Registry::instance(), true);
} // namespace

Counter&
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->counter_ix.find(name);
    if (it == impl_->counter_ix.end()) {
        it = impl_->counter_ix.emplace(name, impl_->counters.size()).first;
        impl_->counters.emplace_back();
        impl_->counters.back().first = name;
    }
    return impl_->counters[it->second].second;
}

Gauge&
Registry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->gauge_ix.find(name);
    if (it == impl_->gauge_ix.end()) {
        it = impl_->gauge_ix.emplace(name, impl_->gauges.size()).first;
        impl_->gauges.emplace_back();
        impl_->gauges.back().first = name;
    }
    return impl_->gauges[it->second].second;
}

Histogram&
Registry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->histogram_ix.find(name);
    if (it == impl_->histogram_ix.end()) {
        it = impl_->histogram_ix.emplace(name, impl_->histograms.size())
                 .first;
        impl_->histograms.emplace_back();
        impl_->histograms.back().first = name;
    }
    return impl_->histograms[it->second].second;
}

std::vector<SpanEvent>
Registry::span_events() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        buffers = impl_->buffers;
    }
    std::vector<SpanEvent> out;
    for (const auto& buf : buffers) {
        auto evs = buf->drainable();
        out.insert(out.end(), evs.begin(), evs.end());
    }
    // Sort by (tid, start, longer-first) so parents precede children
    // at identical timestamps and ts is monotonic per tid.
    std::sort(out.begin(), out.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.start_ns != b.start_ns)
                      return a.start_ns < b.start_ns;
                  return a.dur_ns > b.dur_ns;
              });
    return out;
}

MetricsSnapshot
Registry::snapshot() const
{
    MetricsSnapshot snap;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        for (const auto& [name, c] : impl_->counters)
            snap.counters.emplace_back(name, c.value());
        for (const auto& [name, g] : impl_->gauges)
            snap.gauges.emplace_back(name, g.value());
        for (const auto& [name, h] : impl_->histograms) {
            HistogramSnapshot hs;
            hs.name = name;
            hs.count = h.count();
            hs.sum = h.sum();
            for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
                const std::int64_t n =
                    h.buckets_[i].load(std::memory_order_relaxed);
                if (n > 0)
                    hs.buckets.emplace_back(Histogram::bucket_bound(i), n);
            }
            if (hs.count > 0) {
                const std::size_t kept = std::min<std::size_t>(
                    static_cast<std::size_t>(hs.count),
                    Histogram::kSampleCap);
                std::vector<double> samples;
                samples.reserve(kept);
                for (std::size_t i = 0; i < kept; ++i)
                    samples.push_back(h.samples_[i].load(
                        std::memory_order_relaxed));
                hs.p50 = median(samples);
                hs.p95 = percentile(samples, 95.0);
            }
            snap.histograms.push_back(std::move(hs));
        }
    }
    auto by_name = [](const auto& a, const auto& b) {
        return a.first < b.first;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), by_name);
    std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
                  return a.name < b.name;
              });

    std::unordered_map<std::string, std::vector<double>> span_ms;
    for (const SpanEvent& ev : span_events())
        span_ms[ev.name].push_back(static_cast<double>(ev.dur_ns) / 1e6);
    for (auto& [name, ms] : span_ms) {
        SpanStats ss;
        ss.name = name;
        ss.count = static_cast<std::int64_t>(ms.size());
        for (double m : ms)
            ss.total_ms += m;
        ss.p50_ms = median(ms);
        ss.p95_ms = percentile(ms, 95.0);
        snap.spans.push_back(std::move(ss));
    }
    std::sort(snap.spans.begin(), snap.spans.end(),
              [](const SpanStats& a, const SpanStats& b) {
                  return a.name < b.name;
              });
    return snap;
}

std::string
Registry::trace_json() const
{
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanEvent& ev : span_events()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"";
        os << escaped(ev.name);
        os << "\",\"ph\":\"X\",\"ts\":" << format_double(
                  static_cast<double>(ev.start_ns) / 1e3)
           << ",\"dur\":" << format_double(
                  static_cast<double>(ev.dur_ns) / 1e3)
           << ",\"pid\":1,\"tid\":" << ev.tid;
        if (ev.num_args > 0) {
            os << ",\"args\":{";
            for (std::uint8_t i = 0; i < ev.num_args; ++i) {
                if (i > 0)
                    os << ",";
                os << "\"";
                os << escaped(ev.arg_keys[i]);
                os << "\":";
                if (ev.arg_strs[i] != nullptr) {
                    os << "\"";
                    os << escaped(ev.arg_strs[i]);
                    os << "\"";
                } else {
                    os << ev.arg_values[i];
                }
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return os.str();
}

std::string
Registry::metrics_json() const
{
    const MetricsSnapshot snap = snapshot();
    std::ostringstream os;
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, v] : snap.counters) {
        os << (first ? "\n" : ",\n") << "    \"";
        os << escaped(name);
        os << "\": " << v;
        first = false;
    }
    os << "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, v] : snap.gauges) {
        os << (first ? "\n" : ",\n") << "    \"";
        os << escaped(name);
        os << "\": " << v;
        first = false;
    }
    os << "\n  },\n  \"histograms\": {";
    first = true;
    for (const HistogramSnapshot& h : snap.histograms) {
        os << (first ? "\n" : ",\n") << "    \"";
        os << escaped(h.name);
        os << "\": {\"count\": " << h.count
           << ", \"sum\": " << format_double(h.sum)
           << ", \"p50\": " << format_double(h.p50)
           << ", \"p95\": " << format_double(h.p95) << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << "[" << format_double(h.buckets[i].first) << ", "
               << h.buckets[i].second << "]";
        }
        os << "]}";
        first = false;
    }
    os << "\n  },\n  \"spans\": {";
    first = true;
    for (const SpanStats& s : snap.spans) {
        os << (first ? "\n" : ",\n") << "    \"";
        os << escaped(s.name);
        os << "\": {\"count\": " << s.count
           << ", \"total_ms\": " << format_double(s.total_ms)
           << ", \"p50_ms\": " << format_double(s.p50_ms)
           << ", \"p95_ms\": " << format_double(s.p95_ms) << "}";
        first = false;
    }
    os << "\n  }\n}\n";
    return os.str();
}

// --------------------------------------------------- prometheus text

namespace {

/** Prometheus metric name: [a-zA-Z0-9_:], everything else -> '_',
 *  with the project prefix guaranteed. */
std::string
prom_name(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size() + 7);
    for (char c : raw) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.rfind("permuq_", 0) != 0)
        out.insert(0, "permuq_");
    return out;
}

/** Prometheus label name: [a-zA-Z0-9_], must not start with a digit. */
std::string
prom_label_key(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

void
prom_label_value_into(std::ostringstream& os, const std::string& v)
{
    for (char c : v) {
        switch (c) {
        case '\\': os << "\\\\"; break;
        case '"': os << "\\\""; break;
        case '\n': os << "\\n"; break;
        default: os << c;
        }
    }
}

/** Render `{base_labels}` or, with @p extra, `{base,extra}`. */
std::string
prom_labels(const std::map<std::string, std::string>& labels,
            const std::string& extra = std::string())
{
    if (labels.empty() && extra.empty())
        return std::string();
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first)
            os << ',';
        first = false;
        os << prom_label_key(k) << "=\"";
        prom_label_value_into(os, v);
        os << '"';
    }
    if (!extra.empty()) {
        if (!first)
            os << ',';
        os << extra;
    }
    os << '}';
    return os.str();
}

} // namespace

void
Registry::set_export_label(const std::string& key,
                           const std::string& value)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->labels[key] = value;
}

std::string
Registry::prometheus_text() const
{
    const MetricsSnapshot snap = snapshot();
    std::map<std::string, std::string> labels;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        labels = impl_->labels;
    }
    const std::string base = prom_labels(labels);
    std::ostringstream os;

    for (const auto& [name, v] : snap.counters) {
        const std::string n = prom_name(name);
        os << "# TYPE " << n << " counter\n"
           << n << base << ' ' << v << '\n';
    }
    for (const auto& [name, v] : snap.gauges) {
        const std::string n = prom_name(name);
        os << "# TYPE " << n << " gauge\n"
           << n << base << ' ' << v << '\n';
    }
    for (const HistogramSnapshot& h : snap.histograms) {
        const std::string n = prom_name(h.name);
        os << "# TYPE " << n << " histogram\n";
        std::int64_t cumulative = 0;
        for (const auto& [bound, count] : h.buckets) {
            cumulative += count;
            os << n << "_bucket"
               << prom_labels(labels, "le=\"" +
                                          format_double(bound) + "\"")
               << ' ' << cumulative << '\n';
        }
        os << n << "_bucket" << prom_labels(labels, "le=\"+Inf\"")
           << ' ' << h.count << '\n';
        os << n << "_sum" << base << ' ' << format_double(h.sum)
           << '\n';
        os << n << "_count" << base << ' ' << h.count << '\n';
    }
    for (const SpanStats& s : snap.spans) {
        const std::string n =
            prom_name("permuq_span_" + s.name + "_ms");
        os << "# TYPE " << n << " summary\n";
        os << n << prom_labels(labels, "quantile=\"0.5\"") << ' '
           << format_double(s.p50_ms) << '\n';
        os << n << prom_labels(labels, "quantile=\"0.95\"") << ' '
           << format_double(s.p95_ms) << '\n';
        os << n << "_sum" << base << ' ' << format_double(s.total_ms)
           << '\n';
        os << n << "_count" << base << ' ' << s.count << '\n';
    }
    return os.str();
}

bool
Registry::write_prometheus(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << prometheus_text();
    return static_cast<bool>(out);
}

bool
Registry::write_trace(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << trace_json();
    return static_cast<bool>(out);
}

bool
Registry::write_metrics(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << metrics_json();
    return static_cast<bool>(out);
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto& [name, c] : impl_->counters)
        c.v_.store(0, std::memory_order_relaxed);
    for (auto& [name, g] : impl_->gauges)
        g.v_.store(0, std::memory_order_relaxed);
    for (auto& [name, h] : impl_->histograms) {
        for (auto& b : h.buckets_)
            b.store(0, std::memory_order_relaxed);
        h.sum_.store(0.0, std::memory_order_relaxed);
        h.count_.store(0, std::memory_order_relaxed);
    }
    for (auto& buf : impl_->buffers)
        buf->clear();
    impl_->labels.clear();
}

Counter&
counter(const std::string& name)
{
    return Registry::instance().counter(name);
}

Gauge&
gauge(const std::string& name)
{
    return Registry::instance().gauge(name);
}

Histogram&
histogram(const std::string& name)
{
    return Registry::instance().histogram(name);
}

// -------------------------------------------------------------- spans

void
ScopedSpan::begin(const char* name)
{
    Registry::instance(); // honor PERMUQ_TRACE before the first span
    ThreadBuffer& buf = local_buffer(registry_impl());
    ev_.name = name;
    ev_.tid = buf.tid;
    ev_.depth = buf.depth++;
    ev_.start_ns =
        static_cast<std::uint64_t>(trace_epoch().elapsed_ns());
    live_ = true;
    timer_.reset();
}

void
ScopedSpan::end()
{
    ev_.dur_ns = static_cast<std::uint64_t>(timer_.elapsed_ns());
    ThreadBuffer& buf = local_buffer(registry_impl());
    --buf.depth;
    buf.push(ev_);
    // Mirror coarse completions into the crash flight recorder so a
    // post-mortem dump shows the phases leading up to the crash.
    // Deeply nested spans (per-cycle greedy rounds) are skipped: they
    // would evict the interesting context from the 256-record ring
    // and double the per-span cost for no diagnostic gain.
    if (ev_.depth <= 2)
        flight::note(flight::Kind::Span, ev_.name, nullptr,
                     static_cast<std::int64_t>(ev_.dur_ns));
    live_ = false;
}

} // namespace permuq::telemetry
