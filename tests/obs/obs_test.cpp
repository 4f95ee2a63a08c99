// Tests for the observability layer: labeled metrics, span nesting,
// exporter round-trips, and registry thread safety.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/json.h"

namespace harvest::obs {
namespace {

// --- helpers -------------------------------------------------------------

/// The number at `key` of the JSON object `line`; NaN when absent.
double json_field(const std::string& line, const std::string& key) {
  const util::json::Value object = util::json::parse(line, "line");
  const util::json::Value* v = object.find(key);
  return (v != nullptr ? v->as_double() : std::nullopt)
      .value_or(std::numeric_limits<double>::quiet_NaN());
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

// --- metrics -------------------------------------------------------------

TEST(CounterTest, LabeledSeriesAggregateIndependently) {
  Registry registry;
  registry.counter("requests_total", {{"server", "0"}}).add(1);
  registry.counter("requests_total", {{"server", "0"}}).add(2);
  registry.counter("requests_total", {{"server", "1"}}).add(5);
  registry.counter("requests_total").add(10);

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_DOUBLE_EQ(
      registry.counter("requests_total", {{"server", "0"}}).value(), 3.0);
  EXPECT_DOUBLE_EQ(
      registry.counter("requests_total", {{"server", "1"}}).value(), 5.0);
  EXPECT_DOUBLE_EQ(registry.counter("requests_total").value(), 10.0);
}

TEST(CounterTest, HandlesAreStable) {
  Registry registry;
  Counter& a = registry.counter("c", {{"k", "v"}});
  Counter& b = registry.counter("c", {{"k", "v"}});
  EXPECT_EQ(&a, &b);  // same series, same object
}

TEST(CounterTest, LabelOrderDoesNotSplitSeries) {
  Registry registry;
  registry.counter("c", {{"a", "1"}, {"b", "2"}}).add(1);
  registry.counter("c", {{"b", "2"}, {"a", "1"}}).add(1);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_DOUBLE_EQ(registry.counter("c", {{"a", "1"}, {"b", "2"}}).value(),
                   2.0);
}

TEST(GaugeTest, LastWriteWins) {
  Registry registry;
  registry.gauge("g").set(1.5);
  registry.gauge("g").set(-2.5);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), -2.5);
}

TEST(HistogramTest, MomentsAndQuantiles) {
  Registry registry;
  Histogram& h = registry.histogram("latency");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.p50(), 500, 25);
  EXPECT_NEAR(h.p99(), 990, 20);
}

TEST(RegistryTest, ConcurrentRecordingIsSafe) {
  Registry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        // Lazy creation races on purpose: every thread resolves the same
        // series and a thread-unique one.
        registry.counter("shared_total").add(1);
        registry.histogram("shared_hist").observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(registry.counter("shared_total").value(),
                   kThreads * kPerThread);
  EXPECT_EQ(registry.histogram("shared_hist").count(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// --- exporters -----------------------------------------------------------

TEST(ExportTest, JsonlRoundTripPreservesValues) {
  Registry registry;
  registry.counter("events_total", {{"kind", "route"}}).add(42);
  registry.gauge("epsilon").set(0.125);
  Histogram& h = registry.histogram("latency_seconds");
  for (int i = 0; i < 100; ++i) h.observe(0.5);

  std::ostringstream out;
  write_jsonl(registry, out);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);

  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"events_total\"") != std::string::npos) {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(json_field(line, "value"), 42.0);
      EXPECT_NE(line.find("\"kind\":\"route\""), std::string::npos);
    } else if (line.find("\"epsilon\"") != std::string::npos) {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(json_field(line, "value"), 0.125);
    } else if (line.find("\"latency_seconds\"") != std::string::npos) {
      saw_histogram = true;
      EXPECT_DOUBLE_EQ(json_field(line, "count"), 100.0);
      EXPECT_DOUBLE_EQ(json_field(line, "mean"), 0.5);
      EXPECT_DOUBLE_EQ(json_field(line, "p99"), 0.5);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_histogram);
}

TEST(ExportTest, EmptyHistogramExportsNullNotNan) {
  Registry registry;
  registry.histogram("empty");
  std::ostringstream out;
  write_jsonl(registry, out);
  EXPECT_EQ(out.str().find("nan"), std::string::npos);
  EXPECT_EQ(out.str().find("inf"), std::string::npos);
  EXPECT_NE(out.str().find("null"), std::string::npos);
}

TEST(ExportTest, JsonEscape) {
  EXPECT_EQ(util::json::escape("plain"), "plain");
  EXPECT_EQ(util::json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// --- tracing -------------------------------------------------------------

/// A private recorder keeping the newest `trace_capacity` events.
Recorder::Options span_options(std::size_t trace_capacity) {
  Recorder::Options options;
  options.trace_capacity = trace_capacity;
  options.ring_capacity = 1 << 10;
  return options;
}

TEST(TraceTest, NestedSpansRecordParentAndTiming) {
  Recorder recorder(span_options(16));
  {
    ScopedSpan outer(recorder, "outer");
    {
      ScopedSpan inner(recorder, "inner");
    }
    {
      ScopedSpan sibling(recorder, "sibling");
    }
  }
  const std::vector<Event> spans = recorder.snapshot_events();
  ASSERT_EQ(spans.size(), 3u);
  // Completion order: inner, sibling, outer.
  EXPECT_EQ(recorder.name_of(spans[0].name), "inner");
  EXPECT_EQ(recorder.name_of(spans[1].name), "sibling");
  EXPECT_EQ(recorder.name_of(spans[2].name), "outer");

  const Event& outer = spans[2];
  EXPECT_EQ(outer.kind, EventKind::kScopeSpan);
  EXPECT_EQ(outer.b, 0u);  // no parent
  EXPECT_EQ(outer.depth, 0);
  for (int i : {0, 1}) {
    EXPECT_EQ(spans[i].kind, EventKind::kScopeSpan);
    EXPECT_EQ(spans[i].b, outer.a);  // parent id is the outer span's id
    EXPECT_EQ(spans[i].depth, 1);
    EXPECT_GE(spans[i].ts_ns, outer.ts_ns);
    EXPECT_LE(spans[i].dur_ns, outer.dur_ns);
  }
}

TEST(TraceTest, RingBufferKeepsNewestSpans) {
  Recorder recorder(span_options(2));
  { ScopedSpan s(recorder, "first"); }
  { ScopedSpan s(recorder, "second"); }
  { ScopedSpan s(recorder, "third"); }
  const std::vector<Event> spans = recorder.snapshot_events();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(recorder.name_of(spans[0].name), "second");
  EXPECT_EQ(recorder.name_of(spans[1].name), "third");
}

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  Recorder recorder(span_options(16));
  recorder.set_enabled(false);
  { ScopedSpan s(recorder, "ignored"); }
  EXPECT_TRUE(recorder.snapshot_events().empty());
}

TEST(TraceTest, ChromeTraceNamesEachSpansParent) {
  Recorder recorder(span_options(16));
  {
    ScopedSpan outer(recorder, "pipeline.evaluate");
    ScopedSpan inner(recorder, "pipeline.scavenge");
  }
  std::ostringstream out;
  recorder.write_chrome_trace(out);
  const util::json::Value doc = util::json::parse(out.str(), "trace");
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ids;
  for (const util::json::Value& e : *doc.find("traceEvents")->as_array()) {
    if (*e.find("ph")->as_string() != "X") continue;
    const util::json::Value* args = e.find("args");
    ASSERT_NE(args, nullptr);
    ids[*e.find("name")->as_string()] = {*args->find("id")->as_uint64(),
                                         *args->find("parent")->as_uint64()};
  }
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids["pipeline.evaluate"].second, 0u);
  EXPECT_EQ(ids["pipeline.scavenge"].second, ids["pipeline.evaluate"].first);
}

TEST(TraceTest, ClearResets) {
  Recorder recorder(span_options(4));
  { ScopedSpan s(recorder, "x"); }
  recorder.reset();
  EXPECT_TRUE(recorder.snapshot_events().empty());
}

}  // namespace
}  // namespace harvest::obs
