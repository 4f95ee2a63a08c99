#include <gtest/gtest.h>

#include <sstream>

#include "logs/log_store.h"
#include "logs/record.h"
#include "logs/scavenger.h"

namespace harvest::logs {
namespace {

TEST(RecordTest, SerializeParseRoundtrip) {
  Record rec;
  rec.time = 12.5;
  rec.event = "route";
  rec.set("server", std::int64_t{1});
  rec.set("latency", 0.375);
  rec.set("label", "backend-a");
  const std::string line = serialize(rec);
  const auto parsed = parse(line);
  ASSERT_TRUE(parsed);
  EXPECT_DOUBLE_EQ(parsed->time, 12.5);
  EXPECT_EQ(parsed->event, "route");
  EXPECT_EQ(parsed->integer("server"), 1);
  EXPECT_DOUBLE_EQ(*parsed->number("latency"), 0.375);
  EXPECT_EQ(*parsed->text("label"), "backend-a");
}

TEST(RecordTest, TypedAccessorsHandleMissingAndMalformed) {
  Record rec;
  rec.set("x", "abc");
  EXPECT_FALSE(rec.number("x"));
  EXPECT_FALSE(rec.number("absent"));
  EXPECT_FALSE(rec.integer("x"));
  EXPECT_EQ(rec.text("absent"), nullptr);
}

TEST(RecordTest, SerializeRejectsUnsafeValues) {
  Record rec;
  rec.event = "e";
  rec.set("bad key", "v");
  EXPECT_THROW(serialize(rec), std::invalid_argument);
  Record rec2;
  rec2.event = "e";
  rec2.set("k", "has space");
  EXPECT_THROW(serialize(rec2), std::invalid_argument);
}

TEST(ParseTest, RejectsMalformedLines) {
  EXPECT_FALSE(parse(""));
  EXPECT_FALSE(parse("ev=x"));           // missing t
  EXPECT_FALSE(parse("t=1.0"));          // missing ev
  EXPECT_FALSE(parse("t=abc ev=x"));     // bad time
  EXPECT_FALSE(parse("t=1 ev=x garbage"));  // token without '='
  EXPECT_TRUE(parse("t=1 ev=x"));
}

TEST(LogStoreTest, TextRoundtripPreservesEverything) {
  LogStore store;
  for (int i = 0; i < 5; ++i) {
    Record rec;
    rec.time = i * 1.5;
    rec.event = i % 2 == 0 ? "access" : "evict";
    rec.set("key", static_cast<std::int64_t>(i * 7));
    store.append(std::move(rec));
  }
  const LogStore copy = store.roundtrip();
  ASSERT_EQ(copy.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_DOUBLE_EQ(copy[i].time, store[i].time);
    EXPECT_EQ(copy[i].event, store[i].event);
    EXPECT_EQ(copy[i].integer("key"), store[i].integer("key"));
  }
}

TEST(LogStoreTest, TornLinesAreCountedAndSkipped) {
  std::stringstream text;
  text << "t=1 ev=ok a=1\n";
  text << "t=2 ev=ok broken line here\n";  // tokens without '='
  text << "not a record at all\n";
  text << "t=3 ev=ok b=2\n";
  const auto [store, skipped] = LogStore::read_text(text);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(skipped, 2u);
}

TEST(LogStoreTest, ChunkedReaderHandlesLinesSplitAcrossChunks) {
  // A tiny chunk size forces every line to straddle chunk boundaries; the
  // carry buffer must reassemble them without loss.
  std::stringstream text;
  for (int i = 0; i < 50; ++i) {
    text << "t=" << i << " ev=ok key=value" << i << "\n";
  }
  ReadOptions options;
  options.chunk_bytes = 7;  // far smaller than any line
  const auto [store, stats] = LogStore::read_text_chunked(text, options);
  EXPECT_EQ(store.size(), 50u);
  EXPECT_EQ(stats.parsed, 50u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.lines_seen, 50u);
  EXPECT_GT(stats.chunks, 50u);  // many reads, bounded memory
  ASSERT_NE(store[49].text("key"), nullptr);
  EXPECT_EQ(*store[49].text("key"), "value49");
}

TEST(LogStoreTest, ChunkedReaderQuarantinesOversizedLines) {
  std::stringstream text;
  text << "t=1 ev=ok a=1\n";
  text << "t=2 ev=ok blob=" << std::string(5000, 'x') << "\n";
  text << "t=3 ev=ok b=2\n";
  ReadOptions options;
  options.chunk_bytes = 256;
  options.max_line_bytes = 1024;
  const auto [store, stats] = LogStore::read_text_chunked(text, options);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(stats.oversized, 1u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.parsed + stats.skipped(), stats.lines_seen);
}

TEST(LogStoreTest, ChunkedReaderHandlesMissingTrailingNewline) {
  std::stringstream text("t=1 ev=ok a=1\nt=2 ev=ok b=2");  // no final \n
  const auto [store, stats] = LogStore::read_text_chunked(text);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(stats.lines_seen, 2u);
}

TEST(LogStoreTest, ChunkedReaderRejectsZeroLimits) {
  std::stringstream text("t=1 ev=ok a=1\n");
  ReadOptions zero_chunk;
  zero_chunk.chunk_bytes = 0;
  EXPECT_THROW(LogStore::read_text_chunked(text, zero_chunk),
               std::invalid_argument);
  ReadOptions zero_line;
  zero_line.max_line_bytes = 0;
  EXPECT_THROW(LogStore::read_text_chunked(text, zero_line),
               std::invalid_argument);
}

ScavengeSpec basic_spec() {
  ScavengeSpec spec;
  spec.decision_event = "route";
  spec.context_fields = {"load0", "load1"};
  spec.action_field = "server";
  spec.reward_field = "latency";
  spec.reward_transform = [](double lat) { return 1.0 - lat; };
  spec.num_actions = 2;
  spec.reward_range = {0.0, 1.0};
  return spec;
}

Record route_record(double t, double l0, double l1, std::int64_t server,
                    double latency) {
  Record rec;
  rec.time = t;
  rec.event = "route";
  rec.set("load0", l0);
  rec.set("load1", l1);
  rec.set("server", server);
  rec.set("latency", latency);
  return rec;
}

TEST(ScavengerTest, ExtractsTuplesAndCountsDrops) {
  LogStore log;
  log.append(route_record(1, 3, 5, 0, 0.2));
  Record other;
  other.time = 1.5;
  other.event = "heartbeat";
  log.append(other);
  log.append(route_record(2, 4, 4, 1, 0.4));
  log.append(route_record(3, 1, 1, 7, 0.1));  // bad action id
  Record missing = route_record(4, 2, 2, 0, 0.3);
  missing.fields.erase("load1");
  log.append(missing);

  const ScavengeResult result = scavenge(log, basic_spec());
  EXPECT_EQ(result.records_seen, 5u);
  EXPECT_EQ(result.decisions_seen, 4u);
  EXPECT_EQ(result.data.size(), 2u);
  EXPECT_EQ(result.dropped_bad_action, 1u);
  EXPECT_EQ(result.dropped_missing_fields, 1u);
  EXPECT_DOUBLE_EQ(result.data[0].context[0], 3.0);
  EXPECT_DOUBLE_EQ(result.data[0].context[1], 5.0);
  EXPECT_EQ(result.data[1].action, 1u);
  EXPECT_NEAR(result.data[1].reward, 0.6, 1e-12);
  // No propensity field: placeholder 1.0 awaiting step-2 annotation.
  EXPECT_DOUBLE_EQ(result.data[0].propensity, 1.0);
}

TEST(ScavengerTest, ReadsPropensityFieldWhenConfigured) {
  LogStore log;
  Record rec = route_record(1, 0, 0, 0, 0.5);
  rec.set("p", 0.25);
  log.append(rec);
  ScavengeSpec spec = basic_spec();
  spec.propensity_field = "p";
  const ScavengeResult result = scavenge(log, spec);
  ASSERT_EQ(result.data.size(), 1u);
  EXPECT_DOUBLE_EQ(result.data[0].propensity, 0.25);
}

TEST(ScavengerTest, ClassifiesBadPropensitySeparatelyFromMissing) {
  // Regression: a present-but-out-of-range propensity used to be misfiled
  // under dropped_missing_fields.
  LogStore log;
  Record good = route_record(1, 0, 0, 0, 0.5);
  good.set("p", 0.25);
  log.append(good);
  Record absent = route_record(2, 0, 0, 0, 0.5);  // no p at all
  log.append(absent);
  Record zero = route_record(3, 0, 0, 0, 0.5);
  zero.set("p", 0.0);  // present but invalid
  log.append(zero);
  Record above_one = route_record(4, 0, 0, 0, 0.5);
  above_one.set("p", 1.7);  // present but invalid
  log.append(above_one);

  ScavengeSpec spec = basic_spec();
  spec.propensity_field = "p";
  const ScavengeResult result = scavenge(log, spec);
  EXPECT_EQ(result.data.size(), 1u);
  EXPECT_EQ(result.dropped_missing_fields, 1u);
  EXPECT_EQ(result.dropped_bad_propensity, 2u);
  EXPECT_EQ(result.total_dropped(), 3u);
  EXPECT_EQ(result.data.size() + result.total_dropped(),
            result.decisions_seen);
}

TEST(ScavengerTest, QuarantineCallbackSeesEveryDrop) {
  LogStore log;
  log.append(route_record(1, 3, 5, 0, 0.2));
  log.append(route_record(2, 1, 1, 9, 0.1));  // bad action
  std::vector<QuarantineClass> seen;
  ScavengeSpec spec = basic_spec();
  spec.on_quarantine = [&](QuarantineClass cls, const Record&) {
    seen.push_back(cls);
  };
  const ScavengeResult result = scavenge(log, spec);
  EXPECT_EQ(result.dropped_bad_action, 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], QuarantineClass::kBadAction);
  EXPECT_EQ(to_string(QuarantineClass::kBadAction), "bad_action");
}

TEST(ScavengerTest, ValidatesSpec) {
  LogStore log;
  ScavengeSpec spec = basic_spec();
  spec.decision_event.clear();
  EXPECT_THROW(scavenge(log, spec), std::invalid_argument);
  spec = basic_spec();
  spec.num_actions = 0;
  EXPECT_THROW(scavenge(log, spec), std::invalid_argument);
  spec = basic_spec();
  spec.reward_transform = nullptr;
  EXPECT_THROW(scavenge(log, spec), std::invalid_argument);
}

}  // namespace
}  // namespace harvest::logs
