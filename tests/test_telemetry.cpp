/**
 * @file
 * Tests for the telemetry layer: counter/gauge/histogram correctness,
 * span nesting and timestamps, concurrent recording from the shared
 * thread pool (exercised under the TSan CI job), disabled-mode
 * zero-recording, and the JSON exports.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/log/flight_recorder.h"
#include "common/parallel.h"
#include "common/telemetry/telemetry.h"

using namespace permuq;
using namespace permuq::telemetry;

namespace {

/** Enables telemetry for one test and restores a clean slate after. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Registry::instance().reset();
        set_enabled(true);
    }

    void
    TearDown() override
    {
        set_enabled(false);
        Registry::instance().reset();
    }
};

std::vector<SpanEvent>
events_named(const std::string& name)
{
    std::vector<SpanEvent> out;
    for (const auto& ev : Registry::instance().span_events())
        if (name == ev.name)
            out.push_back(ev);
    return out;
}

} // namespace

TEST_F(TelemetryTest, CounterAccumulates)
{
    Counter& c = counter("test.counter");
    EXPECT_EQ(c.value(), 0);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
    // Same name resolves to the same counter.
    EXPECT_EQ(&counter("test.counter"), &c);
    EXPECT_NE(&counter("test.counter2"), &c);
}

TEST_F(TelemetryTest, GaugeLastWriteWins)
{
    Gauge& g = gauge("test.gauge");
    g.set(7);
    g.set(3);
    EXPECT_EQ(g.value(), 3);
}

TEST_F(TelemetryTest, HistogramBucketsAndPercentiles)
{
    EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
    EXPECT_EQ(Histogram::bucket_of(0.5), 0u);
    EXPECT_EQ(Histogram::bucket_of(-3.0), 0u);
    EXPECT_EQ(Histogram::bucket_of(1.0), 1u);
    EXPECT_EQ(Histogram::bucket_of(1.5), 1u);
    EXPECT_EQ(Histogram::bucket_of(2.0), 2u);
    EXPECT_EQ(Histogram::bucket_of(3.0), 2u);
    EXPECT_EQ(Histogram::bucket_of(4.0), 3u);
    EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kNumBuckets - 1);
    EXPECT_DOUBLE_EQ(Histogram::bucket_bound(0), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucket_bound(3), 8.0);

    Histogram& h = histogram("test.hist");
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100);
    EXPECT_DOUBLE_EQ(h.sum(), 5050.0);

    auto snap = Registry::instance().snapshot();
    const HistogramSnapshot* hs = nullptr;
    for (const auto& s : snap.histograms)
        if (s.name == "test.hist")
            hs = &s;
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->count, 100);
    // All 100 samples fit the reservoir, so the percentiles are exact
    // over 1..100.
    EXPECT_NEAR(hs->p50, 50.5, 1e-9);
    EXPECT_NEAR(hs->p95, 95.05, 1e-9);
    std::int64_t total = 0;
    for (const auto& [bound, n] : hs->buckets) {
        EXPECT_GT(n, 0);
        total += n;
    }
    EXPECT_EQ(total, 100);
}

TEST_F(TelemetryTest, SpanNestingDepthAndTimestamps)
{
    {
        ScopedSpan outer("outer");
        outer.arg("layer", 1);
        {
            ScopedSpan inner("inner");
            inner.arg("layer", 2);
        }
    }
    auto outer_evs = events_named("outer");
    auto inner_evs = events_named("inner");
    ASSERT_EQ(outer_evs.size(), 1u);
    ASSERT_EQ(inner_evs.size(), 1u);
    const SpanEvent& outer = outer_evs[0];
    const SpanEvent& inner = inner_evs[0];
    EXPECT_EQ(outer.depth, 0);
    EXPECT_EQ(inner.depth, 1);
    EXPECT_EQ(outer.tid, inner.tid);
    // The child starts no earlier and ends no later than its parent.
    EXPECT_GE(inner.start_ns, outer.start_ns);
    EXPECT_LE(inner.start_ns + inner.dur_ns,
              outer.start_ns + outer.dur_ns);
    ASSERT_EQ(outer.num_args, 1);
    EXPECT_STREQ(outer.arg_keys[0], "layer");
    EXPECT_EQ(outer.arg_values[0], 1);
}

TEST_F(TelemetryTest, SpanEventsSortedByThreadAndTime)
{
    for (int i = 0; i < 5; ++i)
        ScopedSpan span("seq");
    auto evs = Registry::instance().span_events();
    ASSERT_EQ(evs.size(), 5u);
    for (std::size_t i = 1; i < evs.size(); ++i) {
        EXPECT_EQ(evs[i].tid, evs[i - 1].tid);
        EXPECT_GE(evs[i].start_ns, evs[i - 1].start_ns);
    }
}

TEST_F(TelemetryTest, ConcurrentRecordingFromPool)
{
    constexpr std::int64_t kTasks = 64;
    constexpr std::int64_t kAddsPerTask = 1000;
    Counter& c = counter("test.concurrent.counter");
    Histogram& h = histogram("test.concurrent.hist");
    common::parallel_tasks(kTasks, [&](std::int64_t t) {
        ScopedSpan span("pool.task");
        span.arg("task", t);
        for (std::int64_t i = 0; i < kAddsPerTask; ++i) {
            c.add();
            h.record(static_cast<double>(t));
        }
    });
    EXPECT_EQ(c.value(), kTasks * kAddsPerTask);
    EXPECT_EQ(h.count(), kTasks * kAddsPerTask);
    auto evs = events_named("pool.task");
    EXPECT_EQ(evs.size(), static_cast<std::size_t>(kTasks));
    // Every task arg shows up exactly once.
    std::set<std::int64_t> seen;
    for (const auto& ev : evs) {
        ASSERT_EQ(ev.num_args, 1);
        seen.insert(ev.arg_values[0]);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kTasks));
}

TEST_F(TelemetryTest, DisabledModeRecordsNothing)
{
    set_enabled(false);
    counter("test.disabled.counter").add(5);
    gauge("test.disabled.gauge").set(5);
    histogram("test.disabled.hist").record(5.0);
    {
        ScopedSpan span("disabled.span");
        EXPECT_FALSE(span.live());
        span.arg("ignored", 1);
    }
    EXPECT_EQ(counter("test.disabled.counter").value(), 0);
    EXPECT_EQ(gauge("test.disabled.gauge").value(), 0);
    EXPECT_EQ(histogram("test.disabled.hist").count(), 0);
    EXPECT_TRUE(events_named("disabled.span").empty());
}

TEST_F(TelemetryTest, TraceJsonHasRequiredFields)
{
    {
        ScopedSpan span("json.span");
        span.arg("k", 7);
    }
    std::string json = Registry::instance().trace_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"json.span\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
    EXPECT_NE(json.find("\"k\":7"), std::string::npos);
}

TEST_F(TelemetryTest, MetricsJsonContainsAllSections)
{
    counter("test.json.counter").add(3);
    gauge("test.json.gauge").set(-2);
    histogram("test.json.hist").record(4.0);
    {
        ScopedSpan span("json.metrics.span");
    }
    std::string json = Registry::instance().metrics_json();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.counter\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"test.json.gauge\": -2"), std::string::npos);
    EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"json.metrics.span\""), std::string::npos);
}

TEST_F(TelemetryTest, ResetClearsValuesButKeepsNames)
{
    Counter& c = counter("test.reset.counter");
    c.add(9);
    {
        ScopedSpan span("reset.span");
    }
    Registry::instance().reset();
    EXPECT_EQ(c.value(), 0);
    EXPECT_TRUE(events_named("reset.span").empty());
    EXPECT_EQ(&counter("test.reset.counter"), &c);
}

TEST_F(TelemetryTest, PrometheusTextFormatAndLabels)
{
    counter("test.prom.counter").add(5);
    gauge("test.prom.gauge").set(-3);
    Histogram& h = histogram("test.prom.hist");
    h.record(0.5);
    h.record(3.0);
    h.record(100.0);
    Registry::instance().set_export_label("tier", "fast");
    Registry::instance().set_export_label("arch", "grid");

    const std::string text = Registry::instance().prometheus_text();
    // Names are sanitized into the permuq_ namespace with TYPE lines.
    EXPECT_NE(text.find("# TYPE permuq_test_prom_counter counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE permuq_test_prom_gauge gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE permuq_test_prom_hist histogram"),
              std::string::npos);
    // Registered labels ride on every sample.
    EXPECT_NE(text.find("tier=\"fast\""), std::string::npos);
    EXPECT_NE(text.find("arch=\"grid\""), std::string::npos);
    // Histogram closes with the +Inf bucket and count/sum rows.
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(text.find("permuq_test_prom_hist_count"),
              std::string::npos);
    EXPECT_NE(text.find("permuq_test_prom_hist_sum"),
              std::string::npos);
    // Cumulative buckets: this histogram's +Inf bucket equals its
    // sample count. Earlier tests leave other (reset) histograms in the
    // registry, so look the bucket up by this histogram's name.
    const auto bucket_pos = text.find("permuq_test_prom_hist_bucket");
    ASSERT_NE(bucket_pos, std::string::npos);
    const auto inf_pos = text.find("le=\"+Inf\"", bucket_pos);
    ASSERT_NE(inf_pos, std::string::npos);
    const auto value_pos = text.find("} ", inf_pos);
    ASSERT_NE(value_pos, std::string::npos);
    EXPECT_EQ(std::atoll(text.c_str() + value_pos + 2), 3);
}

/**
 * Satellite stress for the export paths (run under the TSan CI job):
 * pool workers hammer spans, counters, and histograms while another
 * worker repeatedly snapshots the Prometheus text and fires flight
 * dumps. Nothing here asserts on timing — the point is that a
 * concurrent snapshot neither tears nor races recording.
 */
TEST_F(TelemetryTest, ConcurrentExportWhileRecording)
{
    constexpr std::int64_t kWorkers = 8;
    constexpr std::int64_t kRounds = 200;
    Counter& c = counter("test.stress.counter");
    Histogram& h = histogram("test.stress.hist");
    Registry::instance().set_export_label("tier", "stress");

    const std::string dump_path =
        ::testing::TempDir() + "permuq_stress_flight.json";
    std::atomic<std::int64_t> exports{0};
    common::parallel_tasks(kWorkers + 1, [&](std::int64_t t) {
        if (t == kWorkers) {
            // Exporter: snapshot everything while the others write.
            for (int i = 0; i < 20; ++i) {
                const std::string text =
                    Registry::instance().prometheus_text();
                EXPECT_NE(text.find("permuq_"), std::string::npos);
                EXPECT_TRUE(flight::dump(dump_path.c_str()));
                exports.fetch_add(1, std::memory_order_relaxed);
            }
            return;
        }
        for (std::int64_t i = 0; i < kRounds; ++i) {
            ScopedSpan span("stress.task");
            span.arg("worker", t);
            c.add();
            h.record(static_cast<double>(i));
            flight::note(flight::Kind::Note, "stress.note",
                         "concurrent writer", t);
        }
    });
    std::remove(dump_path.c_str());

    EXPECT_EQ(exports.load(), 20);
    EXPECT_EQ(c.value(), kWorkers * kRounds);
    EXPECT_EQ(h.count(), kWorkers * kRounds);
    // A final quiescent export still parses and carries the labels.
    const std::string text = Registry::instance().prometheus_text();
    EXPECT_NE(text.find("tier=\"stress\""), std::string::npos);
    EXPECT_NE(text.find("permuq_test_stress_counter"),
              std::string::npos);
}
