// Property tests for the HLOG store: random corpora must round-trip
// bit-exactly through Writer → Reader, the writer must be deterministic,
// scans must be thread-count-invariant, and scavenging an HLOG corpus must
// be bit-identical to scavenging the text it was compacted from.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "logs/log_store.h"
#include "logs/scavenger.h"
#include "par/thread_pool.h"
#include "store/store.h"
#include "util/rng.h"

namespace harvest::store {
namespace {

struct Row {
  double time;
  std::vector<double> context;
  std::uint32_t action;
  double reward;
  double propensity;
};

Schema test_schema(std::size_t dim) {
  Schema schema;
  schema.decision_event = "decide";
  for (std::size_t i = 0; i < dim; ++i) {
    schema.context_fields.push_back("f" + std::to_string(i));
  }
  schema.action_field = "a";
  schema.reward_field = "r";
  schema.propensity_field = "p";
  schema.num_actions = 16;
  schema.reward_lo = -2.0;
  schema.reward_hi = 2.0;
  return schema;
}

/// Random rows with adversarial values: denormal-propensity exploration
/// data, negative-zero rewards, far-future timestamps.
std::vector<Row> random_rows(std::size_t n, std::size_t dim,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Row row;
    row.time = static_cast<double>(i) * 1e6 + rng.uniform(0.0, 1.0);
    for (std::size_t f = 0; f < dim; ++f) {
      row.context.push_back(rng.normal(0.0, 100.0));
    }
    row.action = static_cast<std::uint32_t>(rng.uniform_index(16));
    row.reward = (i % 7 == 0) ? -0.0 : rng.uniform(-2.0, 2.0);
    switch (i % 5) {
      case 0:
        row.propensity = 1e-12;  // extreme importance weight, still legal
        break;
      case 1:
        row.propensity = 1.0;
        break;
      default:
        row.propensity = rng.uniform(1e-6, 1.0);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string write_rows(const std::vector<Row>& rows, const Schema& schema,
                       WriterOptions options) {
  std::ostringstream out;
  Writer writer(out, schema, options);
  for (const auto& row : rows) {
    writer.add(row.time, row.context, row.action, row.reward, row.propensity);
  }
  Counts counts;
  counts.records_seen = rows.size();
  counts.decisions_seen = rows.size();
  writer.set_counts(counts);
  writer.finish();
  return out.str();
}

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want, const char* column) {
  ASSERT_EQ(got.size(), want.size()) << column;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << column << " row " << i;
  }
}

TEST(StoreRoundTripTest, RandomCorporaRoundTripBitExactly) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const std::size_t dim = 1 + seed % 4;
    const auto rows = random_rows(997, dim, seed);  // prime: ragged last block
    const std::string bytes =
        write_rows(rows, test_schema(dim), {.rows_per_block = 64,
                                            .blocks_per_shard = 3});
    const Reader reader = Reader::from_memory(bytes);
    EXPECT_EQ(reader.rows(), rows.size());
    const ScanResult scan = reader.scan();
    ASSERT_EQ(scan.rows(), rows.size());
    EXPECT_TRUE(scan.quarantined.empty());
    EXPECT_EQ(scan.context_dim, dim);

    std::vector<double> time, reward, propensity, context;
    std::vector<std::uint32_t> action;
    for (const auto& row : rows) {
      time.push_back(row.time);
      reward.push_back(row.reward);
      propensity.push_back(row.propensity);
      action.push_back(row.action);
      context.insert(context.end(), row.context.begin(), row.context.end());
    }
    expect_bits_equal(scan.time, time, "time");
    expect_bits_equal(scan.context, context, "context");
    expect_bits_equal(scan.reward, reward, "reward");
    expect_bits_equal(scan.propensity, propensity, "propensity");
    EXPECT_EQ(scan.action, action);
  }
}

TEST(StoreRoundTripTest, WriterIsDeterministic) {
  const auto rows = random_rows(500, 3, 77);
  const Schema schema = test_schema(3);
  const WriterOptions options{.rows_per_block = 128, .blocks_per_shard = 2};
  EXPECT_EQ(write_rows(rows, schema, options),
            write_rows(rows, schema, options));
}

TEST(StoreRoundTripTest, ScanIsThreadCountInvariant) {
  const auto rows = random_rows(2000, 2, 99);
  const std::string bytes =
      write_rows(rows, test_schema(2), {.rows_per_block = 100,
                                        .blocks_per_shard = 2});
  const Reader reader = Reader::from_memory(bytes);
  const ScanResult sequential = reader.scan(nullptr);
  par::ThreadPool pool(8);
  const ScanResult parallel = reader.scan(&pool);
  expect_bits_equal(parallel.time, sequential.time, "time");
  expect_bits_equal(parallel.context, sequential.context, "context");
  expect_bits_equal(parallel.reward, sequential.reward, "reward");
  expect_bits_equal(parallel.propensity, sequential.propensity, "propensity");
  EXPECT_EQ(parallel.action, sequential.action);
  EXPECT_EQ(parallel.blocks_read, sequential.blocks_read);
}

TEST(StoreRoundTripTest, SchemaRoundTripsThroughTheFile) {
  Schema schema = test_schema(2);
  schema.stale_after_seconds = 90.0;
  const std::string bytes =
      write_rows(random_rows(10, 2, 5), schema, {.rows_per_block = 4});
  const Reader reader = Reader::from_memory(bytes);
  EXPECT_EQ(reader.schema(), schema);
}

/// The acceptance bar of the subsystem: scavenging a compacted corpus is
/// bit-identical to scavenging the text log it came from — same tuples,
/// same order, same ledger — including under a non-trivial reward
/// transform applied at scan time.
TEST(StoreRoundTripTest, HlogScavengeMatchesTextScavengeBitExactly) {
  util::Rng rng(4242);
  logs::LogStore log;
  for (std::size_t i = 0; i < 3000; ++i) {
    logs::Record rec;
    rec.time = static_cast<double>(i);
    rec.event = (i % 9 == 0) ? "heartbeat" : "decide";
    rec.set("x", rng.normal(0.0, 1.0));
    rec.set("y", rng.uniform(-5.0, 5.0));
    // A sprinkle of quarantine fodder so the persisted ledger is non-trivial.
    if (i % 31 == 0) {
      rec.set("a", std::int64_t{999});  // bad action
    } else if (i % 47 == 0) {
      rec.set("a", "not-a-number");  // missing (unparsable) field
    } else {
      rec.set("a", static_cast<std::int64_t>(i % 4));
    }
    rec.set("r", rng.uniform(0.0, 1.0));
    rec.set("p", (i % 13 == 0) ? 1e-9 : 0.25);
    log.append(std::move(rec));
  }

  logs::ScavengeSpec spec;
  spec.decision_event = "decide";
  spec.context_fields = {"x", "y"};
  spec.action_field = "a";
  spec.reward_field = "r";
  spec.propensity_field = "p";
  spec.num_actions = 4;
  spec.reward_range = {0.0, 1.0};
  spec.reward_transform = [](double r) { return 1.0 - r; };

  // Compact: identity transform (HLOG stores raw values), tap the kept rows.
  std::ostringstream out;
  Schema schema;
  schema.decision_event = spec.decision_event;
  schema.context_fields = spec.context_fields;
  schema.action_field = spec.action_field;
  schema.reward_field = spec.reward_field;
  schema.propensity_field = spec.propensity_field;
  schema.num_actions = 4;
  schema.reward_lo = 0.0;
  schema.reward_hi = 1.0;
  Writer writer(out, schema, {.rows_per_block = 200, .blocks_per_shard = 2});
  logs::ScavengeSpec compact_spec = spec;
  compact_spec.reward_transform = [](double r) { return r; };
  compact_spec.on_harvest = [&](const logs::Record& rec,
                                const core::ExplorationPoint& point) {
    writer.add(rec.time, point.context.values(), point.action, point.reward,
               point.propensity);
  };
  const logs::ScavengeResult compacted = logs::scavenge(log, compact_spec);
  Counts counts;
  counts.records_seen = compacted.records_seen;
  counts.decisions_seen = compacted.decisions_seen;
  counts.dropped_missing_fields = compacted.dropped_missing_fields;
  counts.dropped_bad_action = compacted.dropped_bad_action;
  counts.dropped_bad_propensity = compacted.dropped_bad_propensity;
  counts.dropped_stale_timestamp = compacted.dropped_stale_timestamp;
  writer.set_counts(counts);
  writer.finish();

  const Reader reader = Reader::from_memory(out.str());
  const logs::ScavengeResult from_text = logs::scavenge(log, spec);
  const logs::ScavengeResult from_hlog = logs::scavenge(reader, spec);

  EXPECT_EQ(from_hlog.records_seen, from_text.records_seen);
  EXPECT_EQ(from_hlog.decisions_seen, from_text.decisions_seen);
  EXPECT_EQ(from_hlog.dropped_missing_fields, from_text.dropped_missing_fields);
  EXPECT_EQ(from_hlog.dropped_bad_action, from_text.dropped_bad_action);
  EXPECT_EQ(from_hlog.dropped_bad_propensity,
            from_text.dropped_bad_propensity);
  EXPECT_EQ(from_hlog.dropped_corrupt_block, 0u);
  ASSERT_EQ(from_hlog.data.size(), from_text.data.size());
  for (std::size_t i = 0; i < from_text.data.size(); ++i) {
    const core::ExplorationPoint& a = from_text.data[i];
    const core::ExplorationPoint& b = from_hlog.data[i];
    ASSERT_EQ(a.action, b.action) << "row " << i;
    ASSERT_EQ(std::memcmp(&a.reward, &b.reward, sizeof(double)), 0)
        << "row " << i;
    ASSERT_EQ(std::memcmp(&a.propensity, &b.propensity, sizeof(double)), 0)
        << "row " << i;
    ASSERT_EQ(a.context.size(), b.context.size());
    for (std::size_t f = 0; f < a.context.size(); ++f) {
      const double fa = a.context[f];
      const double fb = b.context[f];
      ASSERT_EQ(std::memcmp(&fa, &fb, sizeof(double)), 0)
          << "row " << i << " feature " << f;
    }
  }
}

TEST(StoreRoundTripTest, ScavengeRefusesMismatchedSpec) {
  const std::string bytes =
      write_rows(random_rows(50, 2, 3), test_schema(2), {});
  const Reader reader = Reader::from_memory(bytes);
  logs::ScavengeSpec spec;
  spec.decision_event = "decide";
  spec.context_fields = {"f0", "f1"};
  spec.action_field = "a";
  spec.reward_field = "WRONG";
  spec.propensity_field = "p";
  spec.num_actions = 16;
  spec.reward_range = {-2.0, 2.0};
  spec.reward_transform = [](double r) { return r; };
  EXPECT_THROW(logs::scavenge(reader, spec), std::invalid_argument);
}

TEST(StoreRoundTripTest, SpecFromSchemaMatchesItsSchema) {
  for (std::size_t dim = 0; dim < 4; ++dim) {
    Schema schema = test_schema(dim);
    if (dim % 2 == 1) schema.stale_after_seconds = 30;
    if (dim == 2) schema.propensity_field.clear();
    const std::string bytes =
        write_rows(random_rows(40, dim, 5 + dim), schema, {});
    const Reader reader = Reader::from_memory(bytes);
    const logs::ScavengeSpec spec = logs::spec_from_schema(reader.schema());
    EXPECT_EQ(spec.reward_transform(-1.25), -1.25);  // identity transform
    EXPECT_EQ(logs::scavenge(reader, spec).data.size(), 40u) << "dim " << dim;
  }
}

TEST(StoreRoundTripTest, EmptyCorpusRoundTrips) {
  const std::string bytes = write_rows({}, test_schema(1), {});
  const Reader reader = Reader::from_memory(bytes);
  EXPECT_EQ(reader.rows(), 0u);
  const ScanResult scan = reader.scan();
  EXPECT_EQ(scan.rows(), 0u);
  EXPECT_TRUE(scan.quarantined.empty());
}

/// Low-cardinality context fields (with adversarial bit patterns: -0.0 and
/// NaN as distinct dictionary entries) round-trip bit-exactly through the
/// dictionary coder, shrink the file, and survive dictionary overflow by
/// falling back to raw encoding mid-shard.
TEST(StoreRoundTripTest, DictionaryCodedContextRoundTripsBitExactly) {
  util::Rng rng(314);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0, -0.0, nan, 1.5, -7.25, 1e300};
  std::vector<Row> rows;
  for (std::size_t i = 0; i < 1500; ++i) {
    Row row;
    row.time = static_cast<double>(i);
    // f0: 6 distinct bit patterns (dict-coded); f1: continuous (raw).
    row.context = {specials[rng.uniform_index(6)], rng.normal(0.0, 100.0)};
    row.action = static_cast<std::uint32_t>(rng.uniform_index(16));
    row.reward = rng.uniform(-2.0, 2.0);
    row.propensity = rng.uniform(1e-6, 1.0);
    rows.push_back(std::move(row));
  }
  const Schema schema = test_schema(2);
  const std::string dict_bytes = write_rows(
      rows, schema,
      {.rows_per_block = 64, .blocks_per_shard = 4, .max_dict_entries = 256});
  const std::string raw_bytes = write_rows(
      rows, schema,
      {.rows_per_block = 64, .blocks_per_shard = 4, .max_dict_entries = 0});
  EXPECT_LT(dict_bytes.size(), raw_bytes.size())
      << "dictionary coding should shrink a low-cardinality column";

  for (const std::string* bytes : {&dict_bytes, &raw_bytes}) {
    const Reader reader = Reader::from_memory(*bytes);
    const ScanResult scan = reader.scan();
    ASSERT_EQ(scan.rows(), rows.size());
    EXPECT_TRUE(scan.quarantined.empty());
    std::vector<double> context;
    for (const auto& row : rows) {
      context.insert(context.end(), row.context.begin(), row.context.end());
    }
    expect_bits_equal(scan.context, context, "context");
  }

  // Overflow: a 4-entry budget against 6+ distinct values trips the
  // rollback-and-go-raw path partway through a shard; the data must still
  // round-trip bit-exactly (just without the size win).
  const std::string overflow_bytes = write_rows(
      rows, schema,
      {.rows_per_block = 64, .blocks_per_shard = 4, .max_dict_entries = 4});
  const Reader reader = Reader::from_memory(overflow_bytes);
  const ScanResult scan = reader.scan();
  ASSERT_EQ(scan.rows(), rows.size());
  EXPECT_TRUE(scan.quarantined.empty());
  std::vector<double> context;
  for (const auto& row : rows) {
    context.insert(context.end(), row.context.begin(), row.context.end());
  }
  expect_bits_equal(scan.context, context, "context after overflow");
}

/// A partitioned dataset round-trips: DatasetWriter rolls part files at the
/// configured row count, the manifest ledger adds up, and Dataset::scan
/// returns the same columns as writing everything into one file.
TEST(StoreRoundTripTest, DatasetRoundTripsAcrossPartFiles) {
  const auto rows = random_rows(1003, 2, 55);  // prime: ragged last part
  const Schema schema = test_schema(2);
  const WriterOptions options{.rows_per_block = 32, .blocks_per_shard = 2};
  const std::string dir = testing::TempDir() + "hlog_dataset_roundtrip";
  std::filesystem::remove_all(dir);
  {
    DatasetWriter writer(dir, schema, options, 256);
    for (const auto& row : rows) {
      writer.add(row.time, row.context, row.action, row.reward,
                 row.propensity);
    }
    writer.finish();
  }
  ASSERT_TRUE(is_dataset_dir(dir));

  const Dataset dataset = Dataset::open(dir);
  EXPECT_EQ(dataset.rows(), rows.size());
  EXPECT_EQ(dataset.manifest().shards.size(), (rows.size() + 255) / 256);
  EXPECT_EQ(dataset.schema(), schema);
  std::uint64_t part_total = 0;
  for (const auto& shard : dataset.manifest().shards) {
    part_total += shard.counts.rows;
  }
  EXPECT_EQ(part_total, rows.size());

  const ScanResult scan = dataset.scan();
  const std::string single = write_rows(rows, schema, options);
  const ScanResult expected = Reader::from_memory(single).scan();
  ASSERT_EQ(scan.rows(), rows.size());
  EXPECT_TRUE(scan.quarantined.empty());
  expect_bits_equal(scan.time, expected.time, "time");
  expect_bits_equal(scan.context, expected.context, "context");
  expect_bits_equal(scan.reward, expected.reward, "reward");
  expect_bits_equal(scan.propensity, expected.propensity, "propensity");
  EXPECT_EQ(scan.action, expected.action);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace harvest::store
