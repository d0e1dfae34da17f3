/**
 * @file
 * PermuQ's observability layer: a process-wide metrics registry
 * (counters, gauges, fixed-bucket histograms) plus RAII trace spans
 * exported as Chrome trace-event JSON (loadable in Perfetto or
 * chrome://tracing).
 *
 * Design contract (the compiler's golden-hash determinism depends on
 * the first point):
 *
 *  1. *Zero overhead when off.* Every recording site performs exactly
 *     one relaxed atomic load (`enabled()`) and a predictable branch
 *     when telemetry is disabled — no allocation, no locks, no clock
 *     reads. Telemetry never feeds back into compilation decisions,
 *     so enabling it cannot change any compiled circuit.
 *
 *  2. *Lock-free hot paths when on.* Counter/gauge/histogram updates
 *     are relaxed atomic operations; span completion writes into a
 *     per-thread ring buffer (single writer, no lock). The only
 *     mutex in the subsystem guards name registration and thread-
 *     buffer bookkeeping — one-time costs per site/thread.
 *
 *  3. *Bounded memory.* Histograms keep 64 power-of-two buckets plus
 *     a 256-sample reservoir; each thread keeps at most 32768 span
 *     events (oldest dropped first). Long runs cannot grow without
 *     bound.
 *
 * Metric names follow `permuq.<module>.<name>` (see README
 * "Observability"). Span names are short phase labels ("compile",
 * "greedy.round", "astar.solve") — they become the Perfetto slice
 * titles.
 *
 * Exports (`write_trace` / `write_metrics`) snapshot whatever has
 * been published; call them from quiescent points (after parallel
 * sections complete) for exact data.
 */
#ifndef PERMUQ_COMMON_TELEMETRY_TELEMETRY_H
#define PERMUQ_COMMON_TELEMETRY_TELEMETRY_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace permuq::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;

/** Lock-free add for pre-C++20-hardware atomics: CAS loop. */
inline void
atomic_add(std::atomic<double>& target, double delta)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed))
        ;
}
} // namespace detail

/** Global on/off switch; one relaxed load per recording site. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

/**
 * Honor the PERMUQ_TRACE environment variable: when set (to a trace
 * output path), telemetry is enabled. Called once from the Registry
 * constructor, so any first metric/span touch picks it up; surfaces
 * that write the trace (permuqc, bench_util) query env_trace_path().
 */
const char* env_trace_path();

// ------------------------------------------------------------ metrics

/** Monotonically increasing named value (relaxed atomic). */
class Counter
{
  public:
    void
    add(std::int64_t n = 1)
    {
        if (enabled())
            v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

    Counter() = default;
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

  private:
    friend class Registry;
    std::atomic<std::int64_t> v_{0};
};

/** Last-write-wins named value. */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        if (enabled())
            v_.store(v, std::memory_order_relaxed);
    }

    std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

    Gauge() = default;
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

  private:
    friend class Registry;
    std::atomic<std::int64_t> v_{0};
};

/**
 * Fixed-bucket histogram: bucket 0 holds values < 1, bucket i >= 1
 * holds [2^(i-1), 2^i). Also keeps a 256-slot sample reservoir (the
 * most recent samples, lock-free ring) from which snapshots compute
 * exact p50/p95 via stats::percentile.
 */
class Histogram
{
  public:
    static constexpr std::size_t kNumBuckets = 64;
    static constexpr std::size_t kSampleCap = 256;

    void
    record(double v)
    {
        if (!enabled())
            return;
        buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
        detail::atomic_add(sum_, v);
        std::uint64_t idx = count_.fetch_add(1, std::memory_order_relaxed);
        samples_[idx % kSampleCap].store(v, std::memory_order_relaxed);
    }

    std::int64_t
    count() const
    {
        return static_cast<std::int64_t>(
            count_.load(std::memory_order_relaxed));
    }

    double sum() const { return sum_.load(std::memory_order_relaxed); }

    /** Bucket index of @p v (pure; exposed for tests). */
    static std::size_t
    bucket_of(double v)
    {
        if (!(v >= 1.0)) // negatives and NaN land in bucket 0 too
            return 0;
        const double clamped = v < 9.2e18 ? v : 9.2e18;
        return std::min<std::size_t>(
            kNumBuckets - 1,
            static_cast<std::size_t>(
                std::bit_width(static_cast<std::uint64_t>(clamped))));
    }

    /** Inclusive upper bound of bucket @p i. */
    static double
    bucket_bound(std::size_t i)
    {
        return i == 0 ? 1.0
                      : static_cast<double>(std::uint64_t(1) << i);
    }

    Histogram() = default;
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

  private:
    friend class Registry;
    std::array<std::atomic<std::int64_t>, kNumBuckets> buckets_{};
    std::atomic<double> sum_{0.0};
    std::atomic<std::uint64_t> count_{0};
    std::array<std::atomic<double>, kSampleCap> samples_{};
};

// -------------------------------------------------------------- spans

/** A completed trace span (one Chrome "X" complete event). */
struct SpanEvent
{
    const char* name = nullptr; ///< must point at static storage
    std::uint64_t start_ns = 0; ///< since the process trace epoch
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;   ///< telemetry thread id (1-based)
    std::uint16_t depth = 0; ///< nesting level on its thread
    std::uint8_t num_args = 0;
    std::array<const char*, 6> arg_keys{};
    std::array<std::int64_t, 6> arg_values{};
    /** Non-null entry: the arg is the pointed-at string (static
     *  storage), not arg_values[i]. */
    std::array<const char*, 6> arg_strs{};
};

/**
 * RAII scoped span. Construction samples the clock and nesting depth
 * (only when telemetry is enabled — otherwise the constructor is a
 * single relaxed load); destruction records a SpanEvent into the
 * calling thread's ring buffer. Timing rides on common/timer.h's
 * Timer, the same stopwatch every reported compile time uses.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name)
    {
        if (enabled())
            begin(name);
    }

    ~ScopedSpan()
    {
        if (live_)
            end();
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** Attach up to six integer args (shown in the trace viewer).
     *  @p key must point at static storage. No-op when disabled.
     *  Args past the cap are dropped silently — order the calls
     *  most-important-first (the sweep span leads with tier). */
    void
    arg(const char* key, std::int64_t value)
    {
        if (!live_ || ev_.num_args >= ev_.arg_keys.size())
            return;
        ev_.arg_keys[ev_.num_args] = key;
        ev_.arg_values[ev_.num_args] = value;
        ++ev_.num_args;
    }

    /** String-valued variant (e.g. the compile tier label). Both
     *  @p key and @p value must point at static storage. */
    void
    arg(const char* key, const char* value)
    {
        if (!live_ || ev_.num_args >= ev_.arg_keys.size())
            return;
        ev_.arg_keys[ev_.num_args] = key;
        ev_.arg_strs[ev_.num_args] = value;
        ++ev_.num_args;
    }

    bool live() const { return live_; }

  private:
    void begin(const char* name);
    void end();

    bool live_ = false;
    Timer timer_;
    SpanEvent ev_{};
};

// ----------------------------------------------------------- registry

/** Snapshot of one histogram, with percentile columns computed from
 *  the sample reservoir via stats::percentile. */
struct HistogramSnapshot
{
    std::string name;
    std::int64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    /** (inclusive upper bound, count) of every nonzero bucket. */
    std::vector<std::pair<double, std::int64_t>> buckets;
};

/** Per-name aggregate over all recorded spans of that name. */
struct SpanStats
{
    std::string name;
    std::int64_t count = 0;
    double total_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
};

struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::int64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;
    std::vector<SpanStats> spans;
};

/**
 * Process-wide metric registry. Lookup by name is mutex-protected and
 * intended to happen once per site (bind the returned reference to a
 * function-local static); the returned references stay valid for the
 * process lifetime.
 */
class Registry
{
  public:
    static Registry& instance();

    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** All metrics + per-name span aggregates, names sorted. */
    MetricsSnapshot snapshot() const;

    /** Every buffered span event, sorted by (tid, start, -dur). */
    std::vector<SpanEvent> span_events() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}). */
    std::string trace_json() const;

    /** Metrics snapshot as JSON. */
    std::string metrics_json() const;

    /**
     * Prometheus text exposition (version 0.0.4) of the snapshot.
     * Metric names are sanitized to [a-z0-9_] and prefixed with
     * `permuq_`; histograms emit cumulative `_bucket{le=...}` series
     * plus `_sum`/`_count`, span aggregates become summaries with
     * p50/p95 quantile rows. Labels registered via set_export_label
     * (e.g. tier/topology/shard) are attached to every series —
     * exactly the payload a future permuqd scrape endpoint serves.
     */
    std::string prometheus_text() const;

    /**
     * Attach a constant label to every exported Prometheus series;
     * re-setting a key overwrites it. Keys/values are sanitized on
     * write-out.
     */
    void set_export_label(const std::string& key,
                          const std::string& value);

    /** Write trace_json()/metrics_json()/prometheus_text() to
     *  @p path; false on I/O failure. */
    bool write_trace(const std::string& path) const;
    bool write_metrics(const std::string& path) const;
    bool write_prometheus(const std::string& path) const;

    /** Zero every metric and drop all buffered spans (tests; call at
     *  a quiescent point). Registered names stay registered. */
    void reset();

    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    struct Impl; ///< defined in telemetry.cpp

  private:
    Registry();
    ~Registry();

    Impl* impl_;
};

/** Shorthands for Registry::instance().counter(name) etc. */
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

} // namespace permuq::telemetry

#endif // PERMUQ_COMMON_TELEMETRY_TELEMETRY_H
