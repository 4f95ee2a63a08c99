// Unit tests for the flight recorder: event round-trips, exact drop
// accounting, bounded-trace eviction, registry aggregation, the registry's
// series-cardinality guard, and a golden chrome-trace validity check.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/json.h"

namespace harvest::obs {
namespace {

Recorder::Options small_options(std::size_t ring, std::size_t trace,
                                bool self_drain) {
  Recorder::Options options;
  options.ring_capacity = ring;
  options.trace_capacity = trace;
  options.self_drain = self_drain;
  return options;
}

TEST(RecorderTest, EventIsFixedSize) {
  EXPECT_EQ(sizeof(Event), 40u);
}

TEST(RecorderTest, EmittedEventsRoundTripThroughDrain) {
  Recorder recorder(small_options(64, 1024, true));
  const std::uint32_t name = recorder.intern("test.span");
  EXPECT_EQ(recorder.intern("test.span"), name);  // interning is stable
  EXPECT_EQ(recorder.name_of(name), "test.span");

  EXPECT_TRUE(recorder.emit_span(name, 100, 50, 7, 8));
  EXPECT_TRUE(recorder.emit_instant(name, 1, 2));
  EXPECT_TRUE(recorder.emit_counter(name, 2.5));

  const std::vector<Event> events = recorder.snapshot_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kSpan);
  EXPECT_EQ(events[0].ts_ns, 100u);
  EXPECT_EQ(events[0].dur_ns, 50u);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 8u);
  EXPECT_EQ(events[1].kind, EventKind::kInstant);
  EXPECT_EQ(events[2].kind, EventKind::kCounter);
  EXPECT_EQ(recorder.ring_dropped_total(), 0u);
}

TEST(RecorderTest, DisabledRecorderEmitsNothing) {
  Recorder recorder(small_options(64, 64, true));
  recorder.set_enabled(false);
  const std::uint32_t name = recorder.intern("off");
  EXPECT_FALSE(recorder.emit_instant(name));
  EXPECT_TRUE(recorder.snapshot_events().empty());
  EXPECT_EQ(recorder.ring_dropped_total(), 0u);  // disabled != dropped
}

TEST(RecorderTest, DropAccountingIsExactWithoutSelfDrain) {
  // Ring of 8 slots, self-drain off: exactly capacity pushes land, the rest
  // are counted drops — pushed + dropped == attempted.
  Recorder recorder(small_options(8, 1024, false));
  const std::uint32_t name = recorder.intern("drop");
  const std::size_t attempted = 50;
  std::size_t pushed = 0;
  for (std::size_t i = 0; i < attempted; ++i) {
    if (recorder.emit_instant(name, i)) ++pushed;
  }
  EXPECT_EQ(pushed, recorder.ring_capacity());
  EXPECT_EQ(recorder.ring_dropped_total(), attempted - pushed);
  EXPECT_EQ(recorder.snapshot_events().size(), pushed);
  // After a drain the ring has room again.
  EXPECT_TRUE(recorder.emit_instant(name, 99));
}

TEST(RecorderTest, SelfDrainKeepsDefaultConfigLossFree) {
  Recorder recorder(small_options(8, 4096, true));
  const std::uint32_t name = recorder.intern("burst");
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(recorder.emit_instant(name, i));
  }
  EXPECT_EQ(recorder.ring_dropped_total(), 0u);
  EXPECT_EQ(recorder.snapshot_events().size(), 1000u);
}

TEST(RecorderTest, BoundedTraceKeepsNewestAndCountsEvictions) {
  Recorder recorder(small_options(64, 4, true));
  const std::uint32_t name = recorder.intern("evict");
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.emit_span(name, i, 1, i);
  }
  const std::vector<Event> events = recorder.snapshot_events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first snapshot of the newest four events.
  EXPECT_EQ(events[0].a, 6u);
  EXPECT_EQ(events[3].a, 9u);
  EXPECT_EQ(recorder.trace_evicted_total(), 6u);
  EXPECT_EQ(recorder.ring_dropped_total(), 0u);
}

TEST(RecorderTest, ResetClearsEventsAndAccounting) {
  Recorder recorder(small_options(8, 4, false));
  const std::uint32_t name = recorder.intern("reset");
  for (std::size_t i = 0; i < 20; ++i) recorder.emit_instant(name);
  recorder.drain();
  EXPECT_GT(recorder.ring_dropped_total(), 0u);
  recorder.reset();
  EXPECT_EQ(recorder.ring_dropped_total(), 0u);
  EXPECT_EQ(recorder.trace_evicted_total(), 0u);
  EXPECT_TRUE(recorder.snapshot_events().empty());
  // Interned names survive reset.
  EXPECT_EQ(recorder.name_of(name), "reset");
}

TEST(RecorderTest, DrainAggregatesIntoRegistry) {
  Registry registry;
  Recorder::Options options = small_options(64, 1024, true);
  options.registry = &registry;
  Recorder recorder(options);
  const std::uint32_t span_name = recorder.intern("agg.span");
  const std::uint32_t instant_name = recorder.intern("agg.instant");
  recorder.emit_span(span_name, 0, 5000, 0, 0);  // 5 us
  recorder.emit_span(span_name, 0, 7000, 0, 0);  // 7 us
  recorder.emit_instant(instant_name);
  recorder.drain();

  EXPECT_DOUBLE_EQ(
      registry.counter("recorder_events_total", {{"kind", "span"}}).value(),
      2.0);
  EXPECT_DOUBLE_EQ(
      registry.counter("recorder_events_total", {{"kind", "instant"}})
          .value(),
      1.0);
  Histogram& h =
      registry.histogram("recorder_span_us", {{"name", "agg.span"}});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 6.0);
}

TEST(RecorderTest, ThreadNamesAppearInExportOrder) {
  Recorder recorder(small_options(64, 64, true));
  recorder.set_thread_name("main");
  recorder.emit_instant(recorder.intern("x"));
  const auto names = recorder.thread_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "main");
}

// Golden chrome-trace check: deterministic event stream (explicit
// timestamps) must render as byte-stable, loadable Trace Event JSON.
TEST(RecorderTest, ChromeTraceGolden) {
  Recorder recorder(small_options(64, 64, true));
  recorder.set_thread_name("main");
  const std::uint32_t stage = recorder.intern("stage");
  const std::uint32_t mark = recorder.intern("mark");
  const std::uint32_t depth = recorder.intern("queue_depth");
  recorder.emit_span(stage, 1000, 2500, 3, 4);
  recorder.emit_instant(mark, 1, 0);  // ts from the live clock
  recorder.emit_counter(depth, 2.0);

  std::ostringstream out;
  recorder.write_chrome_trace(out);
  const std::string json = out.str();

  // Envelope + metadata.
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                      "\"thread_name\",\"args\":{\"name\":\"main\"}"),
            std::string::npos);
  // The explicit-timestamp span renders exactly.
  EXPECT_NE(json.find("{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1,"
                      "\"dur\":2.5,\"name\":\"stage\","
                      "\"args\":{\"a\":3,\"b\":4}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":2"), std::string::npos);
  // Valid JSON: one object whose traceEvents hold the metadata event and
  // the three recorded events, closed by the envelope.
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\n]}"), std::string::npos);
  const util::json::Value doc = util::json::parse(json, "golden");
  const util::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(events->as_array(), nullptr);
  EXPECT_EQ(events->as_array()->size(), 4u);
}

// --- satellite regressions ----------------------------------------------

TEST(RegistryTest, CardinalityGuardCollapsesIntoOverflowSeries) {
  Registry registry;
  registry.set_series_limit(4);
  for (int i = 0; i < 10; ++i) {
    registry.counter("blocks_total", {{"block", std::to_string(i)}}).add(1);
  }
  // 4 real series + 1 overflow series, never more.
  EXPECT_EQ(registry.size(), 5u);
  EXPECT_EQ(registry.series_overflow_total(), 6u);
  EXPECT_DOUBLE_EQ(
      registry.counter("blocks_total", {{"overflow", "true"}}).value(), 6.0);
  // Pre-existing series keep recording normally.
  registry.counter("blocks_total", {{"block", "0"}}).add(1);
  EXPECT_DOUBLE_EQ(
      registry.counter("blocks_total", {{"block", "0"}}).value(), 2.0);
  // Other names are unaffected by this name's overflow.
  registry.counter("other_total").add(1);
  EXPECT_DOUBLE_EQ(registry.counter("other_total").value(), 1.0);
}

TEST(RegistryTest, ClearResetsCardinalityAccounting) {
  Registry registry;
  registry.set_series_limit(1);
  registry.counter("c", {{"k", "1"}}).add(1);
  registry.counter("c", {{"k", "2"}}).add(1);
  EXPECT_GT(registry.series_overflow_total(), 0u);
  registry.clear();
  EXPECT_EQ(registry.series_overflow_total(), 0u);
  registry.counter("c", {{"k", "3"}}).add(1);  // room again after clear
  EXPECT_DOUBLE_EQ(registry.counter("c", {{"k", "3"}}).value(), 1.0);
}

}  // namespace
}  // namespace harvest::obs
