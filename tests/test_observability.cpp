// Tests of the observability layer: JSON round trips, tracer spans
// (nesting, thread safety, valid Chrome-trace output), metric
// histograms, and the run manifest.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "fault/detection_range.hpp"
#include "util/json.hpp"
#include "util/manifest.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fastmon {
namespace {

// ---------------------------------------------------------------- Json

TEST(Json, DumpParseRoundTrip) {
    Json doc = Json::object();
    doc.set("name", "s38417");
    doc.set("count", 42);
    doc.set("ratio", 0.25);
    doc.set("flag", true);
    doc.set("nothing", nullptr);
    Json arr = Json::array();
    arr.push_back(1);
    arr.push_back("two");
    arr.push_back(Json::object().set("k", 3.5));
    doc.set("items", std::move(arr));

    for (const int indent : {0, 2}) {
        std::string err;
        const auto parsed = Json::parse(doc.dump(indent), &err);
        ASSERT_TRUE(parsed.has_value()) << err;
        EXPECT_EQ(*parsed, doc);
    }
}

TEST(Json, PreservesInsertionOrder) {
    Json doc = Json::object();
    doc.set("zebra", 1);
    doc.set("apple", 2);
    const std::string text = doc.dump();
    EXPECT_LT(text.find("zebra"), text.find("apple"));
}

TEST(Json, ParseRejectsMalformed) {
    std::string err;
    EXPECT_FALSE(Json::parse("{\"a\": }", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(Json::parse("[1, 2", nullptr).has_value());
    EXPECT_FALSE(Json::parse("{} trailing", nullptr).has_value());
}

TEST(Json, EscapesStrings) {
    Json doc = Json::object();
    doc.set("s", "a\"b\\c\nd\te");
    const auto parsed = Json::parse(doc.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("s")->as_string(), "a\"b\\c\nd\te");
}

// -------------------------------------------------------------- Tracer

TEST(Tracer, DisabledSpansRecordNothing) {
    Tracer& t = Tracer::global();
    t.stop();
    t.clear();
    {
        const TraceSpan span("noop", "test");
    }
    EXPECT_EQ(t.num_events(), 0u);
}

TEST(Tracer, NestedSpansRecordInCloseOrder) {
    Tracer& t = Tracer::global();
    t.clear();
    t.start();
    {
        const TraceSpan outer("outer", "test");
        {
            const TraceSpan inner("inner", "test");
        }
    }
    t.stop();
    const Json doc = t.to_json();
    const Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->as_array().size(), 2u);
    // Inner closes first; both are complete ("X") events.
    EXPECT_EQ(events->as_array()[0].find("name")->as_string(), "inner");
    EXPECT_EQ(events->as_array()[1].find("name")->as_string(), "outer");
    for (const Json& e : events->as_array()) {
        EXPECT_EQ(e.find("ph")->as_string(), "X");
        EXPECT_GE(e.find("dur")->as_number(), 0.0);
    }
    // The outer span encloses the inner one.
    const double inner_ts = events->as_array()[0].find("ts")->as_number();
    const double outer_ts = events->as_array()[1].find("ts")->as_number();
    EXPECT_LE(outer_ts, inner_ts);
    t.clear();
}

TEST(Tracer, EndIsIdempotent) {
    Tracer& t = Tracer::global();
    t.clear();
    t.start();
    TraceSpan span("once", "test");
    span.end();
    span.end();
    t.stop();
    EXPECT_EQ(t.num_events(), 1u);
    t.clear();
}

TEST(Tracer, SpansFromPoolWorkersAreThreadSafe) {
    Tracer& t = Tracer::global();
    t.clear();
    t.start();
    ThreadPool pool(4);
    ThreadPool::TaskGroup group(pool);
    constexpr int kTasks = 200;
    std::atomic<int> ran{0};
    for (int i = 0; i < kTasks; ++i) {
        group.run([&ran] {
            const TraceSpan span("worker_task", "test");
            ran.fetch_add(1, std::memory_order_relaxed);
        });
    }
    group.wait();
    t.stop();
    EXPECT_EQ(ran.load(), kTasks);
    EXPECT_EQ(t.num_events(), static_cast<std::size_t>(kTasks));
    // The export must still be one valid JSON document.
    const auto parsed = Json::parse(t.to_json().dump());
    ASSERT_TRUE(parsed.has_value());
    t.clear();
}

TEST(Tracer, WriteProducesValidChromeTraceJson) {
    Tracer& t = Tracer::global();
    t.clear();
    t.start();
    {
        const TraceSpan span("phase_a", "test");
    }
    t.counter("queue_depth", 3.0);
    t.stop();
    const std::string path = "test_trace_out.json";
    ASSERT_TRUE(t.write(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto parsed = Json::parse(buf.str(), &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    const Json* events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->as_array().size(), 2u);
    EXPECT_EQ(events->as_array()[1].find("ph")->as_string(), "C");
    std::remove(path.c_str());
    t.clear();
}

// ------------------------------------------------------------- Metrics

TEST(Metrics, CounterAndGauge) {
    MetricsRegistry reg;
    reg.counter("hits").add(3);
    reg.counter("hits").add(2);
    EXPECT_EQ(reg.counter("hits").value(), 5u);
    reg.gauge("depth").set(7.5);
    reg.gauge("depth").max(3.0);  // lower: ignored
    EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 7.5);
    reg.gauge("depth").max(9.0);
    EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 9.0);
}

TEST(Metrics, HistogramPercentiles) {
    Histogram h;
    for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_NEAR(h.percentile(50.0), 50.5, 1.0);
    EXPECT_NEAR(h.percentile(90.0), 90.0, 1.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
}

TEST(Metrics, HistogramKeepsShapeAtScale) {
    // The sketch backend replaced the old decimating reservoir: no
    // sample is ever dropped, so the shape holds at any stream length
    // within the same tolerances the reservoir test used.
    Histogram h;
    const int n = 16384 * 4;
    for (int i = 0; i < n; ++i) h.record(static_cast<double>(i % 1000));
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(n));
    // Percentiles stay representative of the uniform 0..999 stream.
    EXPECT_NEAR(h.percentile(50.0), 500.0, 60.0);
    EXPECT_NEAR(h.percentile(99.0), 990.0, 15.0);
}

TEST(Metrics, HistogramMergesWorkerSketches) {
    // The campaign folds worker-local QuantileSketches into registry
    // histograms; the merged histogram must match recording the same
    // stream directly.
    Histogram direct;
    QuantileSketch worker_a, worker_b;
    for (int i = 1; i <= 500; ++i) {
        direct.record(static_cast<double>(i));
        (i % 2 == 0 ? worker_a : worker_b)
            .record(static_cast<double>(i));
    }
    Histogram merged;
    merged.merge(worker_a);
    merged.merge(worker_b);
    EXPECT_EQ(merged.count(), direct.count());
    EXPECT_DOUBLE_EQ(merged.min(), direct.min());
    EXPECT_DOUBLE_EQ(merged.max(), direct.max());
    EXPECT_DOUBLE_EQ(merged.percentile(50.0), direct.percentile(50.0));
    EXPECT_DOUBLE_EQ(merged.percentile(99.0), direct.percentile(99.0));
}

TEST(Metrics, ConcurrentCountersFromPool) {
    MetricsRegistry reg;
    Counter& c = reg.counter("parallel");
    ThreadPool pool(4);
    ThreadPool::TaskGroup group(pool);
    constexpr int kTasks = 500;
    for (int i = 0; i < kTasks; ++i) {
        group.run([&c] { c.add(2); });
    }
    group.wait();
    EXPECT_EQ(c.value(), 2u * kTasks);
}

TEST(Metrics, ToJsonIsSortedAndTyped) {
    MetricsRegistry reg;
    reg.counter("b.count").add(1);
    reg.gauge("a.gauge").set(2.5);
    reg.histogram("c.hist").record(4.0);
    const Json j = reg.to_json();
    ASSERT_TRUE(j.is_object());
    const Json* counters = j.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("b.count"), nullptr);
    EXPECT_DOUBLE_EQ(counters->find("b.count")->as_number(), 1.0);
    const Json* gauges = j.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_DOUBLE_EQ(gauges->find("a.gauge")->as_number(), 2.5);
    const Json* hists = j.find("histograms");
    ASSERT_NE(hists, nullptr);
    const Json* hist = hists->find("c.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 1.0);
    EXPECT_DOUBLE_EQ(hist->find("p50")->as_number(), 4.0);
}

TEST(Metrics, DetectionCountersToJsonCoversEveryField) {
    DetectionCounters c;
    c.pairs_total = 10;
    c.pairs_detected = 4;
    c.analyze_seconds = 0.5;
    const Json j = c.to_json();
    ASSERT_TRUE(j.is_object());
    EXPECT_EQ(j.as_object().size(), 12u);
    EXPECT_DOUBLE_EQ(j.find("pairs_total")->as_number(), 10.0);
    EXPECT_DOUBLE_EQ(j.find("pairs_detected")->as_number(), 4.0);
    EXPECT_DOUBLE_EQ(j.find("analyze_seconds")->as_number(), 0.5);
}

// ------------------------------------------------------------ Manifest

TEST(Manifest, RoundTripThroughJson) {
    RunManifest m;
    m.set_config("seed", 42);
    m.set_config("fmax_factor", 3.0);
    m.set_circuit("name", "s38417");
    m.set_circuit("num_gates", 22179);
    m.add_phase({"sta", 0.125, 0.5});
    m.add_phase({"atpg", 2.0, 7.5});
    m.set_total_wall_seconds(2.5);
    Json metrics = Json::object();
    metrics.set("atpg.backtracks", 17);
    m.set_metrics(std::move(metrics));

    const Json j = m.to_json();
    const auto back = RunManifest::from_json(j);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
    EXPECT_EQ(back->phases().size(), 2u);
    EXPECT_DOUBLE_EQ(back->total_phase_wall_seconds(), 2.125);
    EXPECT_DOUBLE_EQ(back->total_wall_seconds(), 2.5);
}

TEST(Manifest, FromJsonRejectsMissingBlocks) {
    EXPECT_FALSE(RunManifest::from_json(Json::object()).has_value());
    Json half = Json::object();
    half.set("tool", Json::object());
    EXPECT_FALSE(RunManifest::from_json(half).has_value());
}

TEST(Manifest, WriteProducesParsableFile) {
    RunManifest m;
    m.set_config("seed", 1);
    m.add_phase({"sta", 0.1, 0.1});
    m.set_total_wall_seconds(0.1);
    const std::string path = "test_manifest_out.json";
    ASSERT_TRUE(m.write(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto parsed = Json::parse(buf.str(), &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_NE(parsed->find("tool"), nullptr);
    EXPECT_NE(parsed->find("tool")->find("git"), nullptr);
    std::remove(path.c_str());
}

TEST(Manifest, PhaseStopwatchMeasuresWallAndCpu) {
    const PhaseStopwatch watch;
    volatile double sink = 0.0;
    for (int i = 0; i < 2000000; ++i) sink = sink + 1e-9;
    const PhaseTime p = watch.elapsed("busy");
    EXPECT_EQ(p.name, "busy");
    EXPECT_GT(p.wall_seconds, 0.0);
    EXPECT_GE(p.cpu_seconds, 0.0);
    EXPECT_LT(p.wall_seconds, 60.0);
}

}  // namespace
}  // namespace fastmon
