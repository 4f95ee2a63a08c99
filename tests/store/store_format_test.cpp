#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "store/crc32c.h"
#include "store/dataset.h"
#include "store/encoding.h"
#include "store/format.h"
#include "util/rng.h"

namespace harvest::store {
namespace {

/// A whole column payload through the pointer codecs, framed the way the
/// writer and reader frame it: the encoder sized to the worst case, the
/// decoder required to consume the payload exactly.
std::string encode_f64_payload(const std::vector<double>& values) {
  std::string out(values.size() * kMaxVarintBytes, '\0');
  out.resize(static_cast<std::size_t>(
      encode_f64(values.data(), values.size(), 1, out.data()) - out.data()));
  return out;
}

std::string encode_u32_payload(const std::vector<std::uint32_t>& values) {
  std::string out(values.size() * kMaxVarintBytes, '\0');
  out.resize(static_cast<std::size_t>(
      encode_u32(values.data(), values.size(), out.data()) - out.data()));
  return out;
}

bool decode_f64_payload(std::string_view payload, std::size_t rows,
                        double* out) {
  std::size_t pos = 0;
  return decode_f64(payload, &pos, rows, out, 1) && pos == payload.size();
}

bool decode_u32_payload(std::string_view payload, std::size_t rows,
                        std::uint32_t* out) {
  std::size_t pos = 0;
  return decode_u32(payload, &pos, rows, out) && pos == payload.size();
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / Castagnoli check value.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  // 32 zero bytes — the iSCSI test vector.
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, SeedChainsIncrementalComputation) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split : {std::size_t{1}, std::size_t{7}, data.size() - 1}) {
    const std::uint32_t first = crc32c(data.substr(0, split));
    EXPECT_EQ(crc32c(data.substr(split), first), whole) << "split " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(64, 'x');
  const std::uint32_t clean = crc32c(data);
  for (std::size_t byte : {std::size_t{0}, std::size_t{31}, data.size() - 1}) {
    std::string bad = data;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x01);
    EXPECT_NE(crc32c(bad), clean);
  }
}

TEST(Crc32cTest, SoftwareFallbackMatchesKnownVectors) {
  // The slice-by-4 table path must hold the same vectors on its own — it is
  // the cross-check oracle for the hardware path below.
  EXPECT_EQ(crc32c_software("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c_software(""), 0u);
  EXPECT_EQ(crc32c_software(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, DispatchedAndSoftwarePathsAgree) {
  // crc32c() dispatches to SSE4.2/ARMv8 CRC instructions when the CPU has
  // them; whatever backend ran, it must agree with the table fallback on
  // every length class (word loop, 8-byte chunks, byte tails) and seed.
  EXPECT_FALSE(crc32c_backend().empty());
  util::Rng rng(20260808);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{15},
        std::size_t{16}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{255}, std::size_t{1024}, std::size_t{4097}}) {
    std::string buf(len, '\0');
    for (char& c : buf) {
      c = static_cast<char>(rng.uniform_index(256));
    }
    const auto seed = static_cast<std::uint32_t>(rng.uniform_index(1u << 31));
    EXPECT_EQ(crc32c(buf, seed), crc32c_software(buf, seed)) << "len " << len;
    if (len > 3) {
      // Misaligned start: the hardware path's unaligned loads must not
      // change the answer.
      const std::string_view tail(buf.data() + 3, len - 3);
      EXPECT_EQ(crc32c(tail, seed), crc32c_software(tail, seed))
          << "len " << len;
    }
  }
}

TEST(EncodingTest, FixedWidthRoundTrip) {
  std::string buf;
  put_u16(buf, 0xBEEF);
  put_u32(buf, 0xDEADBEEFu);
  put_u64(buf, 0x0123456789ABCDEFull);
  put_f64(buf, -0.0);
  ASSERT_EQ(buf.size(), 2u + 4u + 8u + 8u);
  EXPECT_EQ(get_u16(buf.data()), 0xBEEF);
  EXPECT_EQ(get_u32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(get_u64(buf.data() + 6), 0x0123456789ABCDEFull);
  EXPECT_EQ(std::signbit(get_f64(buf.data() + 14)), true);
  // The wire layout is little-endian regardless of host order.
  EXPECT_EQ(buf[0], '\xEF');
  EXPECT_EQ(buf[1], '\xBE');
}

TEST(EncodingTest, VarintRoundTripAndEdges) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 300,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : cases) {
    std::string buf;
    put_varint(buf, v);
    EXPECT_LE(buf.size(), 10u);
    std::size_t pos = 0;
    std::uint64_t back = 0;
    ASSERT_TRUE(get_varint(buf, &pos, &back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(EncodingTest, VarintRejectsTruncation) {
  std::string buf;
  put_varint(buf, std::numeric_limits<std::uint64_t>::max());
  buf.pop_back();  // drop the terminating byte
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(get_varint(buf, &pos, &out));
}

TEST(EncodingTest, ZigzagRoundTrip) {
  const std::int64_t cases[] = {0, -1, 1, -2, 2,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : cases) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
  // Small magnitudes map to small codes (the property the action column
  // relies on for one-byte deltas).
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

TEST(EncodingTest, F64ColumnRoundTripsEveryBitPattern) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      1e-300,
      -1e300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      4.9406564584124654e-324};
  const std::string buf = encode_f64_payload(values);
  std::vector<double> back(values.size());
  ASSERT_TRUE(decode_f64_payload(buf, values.size(), back.data()));
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "index " << i;
  }
}

TEST(EncodingTest, ConstantF64ColumnIsOneBytePerRowAfterFirst) {
  const std::vector<double> values(1000, 1.0);
  const std::string buf = encode_f64_payload(values);
  // First row carries bits(1.0); every later XOR-delta is 0 → one byte.
  EXPECT_LE(buf.size(), 999u + 10u);
}

TEST(EncodingTest, F64ColumnRejectsTruncationAndTrailingGarbage) {
  const std::vector<double> values = {3.14, 2.71, 1.41};
  const std::string buf = encode_f64_payload(values);
  std::vector<double> out(values.size());
  std::string truncated = buf.substr(0, buf.size() - 1);
  EXPECT_FALSE(decode_f64_payload(truncated, values.size(), out.data()));
  std::string padded = buf + '\0';
  EXPECT_FALSE(decode_f64_payload(padded, values.size(), out.data()));
}

TEST(EncodingTest, U32ColumnRoundTripAndBoundsCheck) {
  const std::vector<std::uint32_t> values = {0, 5, 2, 2, 0xFFFFFFFFu, 0, 7};
  const std::string buf = encode_u32_payload(values);
  std::vector<std::uint32_t> back(values.size());
  ASSERT_TRUE(decode_u32_payload(buf, values.size(), back.data()));
  EXPECT_EQ(back, values);

  // A delta that drives the running value negative must be rejected.
  std::string bad;
  put_varint(bad, zigzag(-1));
  std::uint32_t one = 0;
  EXPECT_FALSE(decode_u32_payload(bad, 1, &one));
}

TEST(FormatTest, MagicDetection) {
  std::string hlog;
  put_u32(hlog, kFileMagic);
  hlog += "rest";
  EXPECT_TRUE(is_hlog(hlog));
  EXPECT_FALSE(is_hlog("t=0 ev=decide x=1\n"));
  EXPECT_FALSE(is_hlog(""));
  EXPECT_FALSE(is_hlog("HLO"));
}

TEST(FormatTest, SchemaEquality) {
  Schema a;
  a.decision_event = "decide";
  a.context_fields = {"x", "y"};
  a.action_field = "a";
  a.reward_field = "r";
  a.num_actions = 3;
  Schema b = a;
  EXPECT_EQ(a, b);
  b.reward_hi = 2.0;
  EXPECT_NE(a, b);
}

ZoneMap zone(double tmin, double tmax, std::uint32_t amin, std::uint32_t amax,
             double pmin, double pmax) {
  ZoneMap z;
  z.min_time = tmin;
  z.max_time = tmax;
  z.min_action = amin;
  z.max_action = amax;
  z.min_propensity = pmin;
  z.max_propensity = pmax;
  return z;
}

TEST(FormatTest, TrivialPredicateAdmitsAndMatchesEverything) {
  const ScanPredicate all;
  EXPECT_TRUE(all.trivial());
  EXPECT_EQ(all.describe(), "all");
  EXPECT_TRUE(all.admits(zone(10, 20, 2, 5, 0.1, 0.5)));
  EXPECT_TRUE(all.matches(1e300, 7, -3.0));
  EXPECT_TRUE(all.matches(std::numeric_limits<double>::quiet_NaN(), 0,
                          std::numeric_limits<double>::quiet_NaN()));
}

TEST(FormatTest, PredicatePrunesByEveryZoneDimension) {
  const ZoneMap z = zone(10, 20, 2, 5, 0.1, 0.5);

  ScanPredicate time_after;
  time_after.min_time = 25;
  EXPECT_FALSE(time_after.trivial());
  EXPECT_FALSE(time_after.admits(z));
  time_after.min_time = 20;  // zone max is inclusive
  EXPECT_TRUE(time_after.admits(z));

  ScanPredicate time_before;
  time_before.max_time = 5;
  EXPECT_FALSE(time_before.admits(z));

  ScanPredicate wrong_action;
  wrong_action.action = 7;
  EXPECT_FALSE(wrong_action.admits(z));
  wrong_action.action = 3;
  EXPECT_TRUE(wrong_action.admits(z));

  ScanPredicate p_band;
  p_band.min_propensity = 0.6;
  EXPECT_FALSE(p_band.admits(z));
  p_band.min_propensity = 0.3;
  EXPECT_TRUE(p_band.admits(z));
}

TEST(FormatTest, NanWidenedZoneIsNeverPruned) {
  // Writer widens a block's zone to ±inf when it saw a NaN value; no
  // predicate may prune such a block, else pruned != filtered.
  const double inf = std::numeric_limits<double>::infinity();
  const ZoneMap widened = zone(-inf, inf, 0, 0, -inf, inf);
  ScanPredicate narrow;
  narrow.min_time = 1e9;
  narrow.max_time = 1e9 + 1;
  narrow.min_propensity = 0.999;
  EXPECT_TRUE(narrow.admits(widened));
}

TEST(FormatTest, NanRowPassesRangeFiltersButNotActionEquality) {
  // Row filters are negated comparisons: NaN fails every ordered compare,
  // so a NaN time/propensity row survives range predicates (matching what a
  // post-hoc filter built the same way would keep).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScanPredicate range;
  range.min_time = 100;
  range.max_propensity = 0.5;
  EXPECT_TRUE(range.matches(nan, 0, nan));
  EXPECT_FALSE(range.matches(50, 0, 0.25));

  ScanPredicate only2;
  only2.action = 2;
  EXPECT_TRUE(only2.matches(nan, 2, nan));
  EXPECT_FALSE(only2.matches(nan, 3, nan));
}

TEST(FormatTest, ManifestJsonRoundTrips) {
  Manifest manifest;
  manifest.version = kManifestVersion;
  manifest.counts.records_seen = 100;
  manifest.counts.decisions_seen = 90;
  manifest.counts.dropped_missing_fields = 3;
  manifest.counts.dropped_bad_action = 2;
  manifest.counts.dropped_bad_propensity = 1;
  manifest.counts.dropped_stale_timestamp = 4;
  manifest.counts.dropped_corrupt_block = 5;
  manifest.counts.rows = 75;
  Counts part;
  part.records_seen = 40;
  part.decisions_seen = 40;
  part.rows = 40;
  manifest.shards.push_back({"part-00000.hlog", part});
  part.rows = 35;
  part.records_seen = 35;
  part.decisions_seen = 35;
  manifest.shards.push_back({"part-00001.hlog", part});

  const Manifest back = Manifest::parse_json(manifest.to_json(), "test");
  EXPECT_EQ(back.version, manifest.version);
  EXPECT_EQ(back.counts, manifest.counts);
  ASSERT_EQ(back.shards.size(), manifest.shards.size());
  for (std::size_t i = 0; i < back.shards.size(); ++i) {
    EXPECT_EQ(back.shards[i].file, manifest.shards[i].file);
    EXPECT_EQ(back.shards[i].counts, manifest.shards[i].counts);
  }
}

TEST(FormatTest, ManifestRejectsMalformedJson) {
  EXPECT_THROW(Manifest::parse_json("not json at all", "t"),
               std::runtime_error);
  EXPECT_THROW(Manifest::parse_json("{\"hlog_dataset\": 1}", "t"),
               std::runtime_error);
  EXPECT_THROW(
      Manifest::parse_json(
          "{\"hlog_dataset\": 99, \"counts\": {}, \"shards\": []}", "t"),
      std::runtime_error);
}

TEST(FormatTest, ManifestRejectsDeepNestingWithItsOwnError) {
  try {
    Manifest::parse_json(std::string(1000000, '['), "deep");
    FAIL() << "accepted a manifest nested 1,000,000 arrays deep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("hlog dataset: deep: ", 0), 0u) << what;
  }
}

/// Pins the exact bytes the writer emits: a fixed-seed dataset whose part
/// files must keep their length and CRC32C. Every value comes from util::Rng
/// through integer, bit and single correctly rounded IEEE-754 operations, so
/// the files are the same on any IEEE-754 host. The corpus walks every
/// writer path: three part files (a DatasetWriter roll), several shards per
/// part with a partial last block, a dictionary-coded field, a field whose
/// dictionary overflows in the second block of a shard (the rollback path),
/// raw fields with NaN payloads, -0.0, denormals and infinities, multi-byte
/// action deltas, and NaN time and propensity rows that widen their block's
/// zone map.
TEST(FormatTest, WriterBytesArePinned) {
  Schema schema;
  schema.decision_event = "decide";
  schema.context_fields = {"tier", "load", "x", "y"};
  schema.action_field = "a";
  schema.reward_field = "r";
  schema.propensity_field = "p";
  schema.num_actions = 1000000;
  schema.reward_lo = -1.0;
  schema.reward_hi = 1.0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::bit_cast<double>(0x7FF8000000000001ull),
                             std::bit_cast<double>(0xFFF800000000BEEFull),
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             0x1p-1040,
                             inf,
                             -inf};

  const std::string dir = testing::TempDir() + "hlog_pinned_bytes";
  std::filesystem::remove_all(dir);
  {
    DatasetWriter writer(
        dir, schema,
        {.rows_per_block = 64, .blocks_per_shard = 3, .max_dict_entries = 16},
        500);
    util::Rng rng(20261017);
    double context[4];
    for (std::size_t i = 0; i < 1100; ++i) {
      context[0] = static_cast<double>(rng.uniform_index(5)) * 0.25;
      context[1] =
          static_cast<double>(rng.uniform_index(i % 192 < 96 ? 8 : 64));
      context[2] = rng.uniform(-100.0, 100.0);
      context[3] = i % 13 == 0
                       ? specials[rng.uniform_index(std::size(specials))]
                       : static_cast<double>(rng.uniform_index(1000)) / 8.0;
      const double time = i % 301 == 7 ? nan : static_cast<double>(i) * 0.5;
      const auto action = static_cast<std::uint32_t>(
          i % 97 == 0 ? 999999 : rng.uniform_index(3));
      const double reward = i % 4 == 0    ? 1.0
                            : i % 11 == 0 ? -0.0
                                          : rng.uniform(-1.0, 1.0);
      const double propensity = i % 257 == 3 ? nan
                                : action < 3 ? 1.0 / 3.0
                                             : 0.5;
      writer.add(time, context, action, reward, propensity);
    }
    writer.finish();
  }

  struct Pin {
    const char* file;
    std::size_t bytes;
    std::uint32_t crc;
  };
  const Pin pins[] = {{"part-00000.hlog", 22493, 2344524585u},
                      {"part-00001.hlog", 23574, 1959066324u},
                      {"part-00002.hlog", 4626, 1648931739u}};
  const Dataset dataset = Dataset::open(dir);
  ASSERT_EQ(dataset.manifest().shards.size(), std::size(pins));
  for (const Pin& pin : pins) {
    std::ifstream in(dir + "/" + pin.file, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string file = bytes.str();
    EXPECT_EQ(file.size(), pin.bytes) << pin.file;
    EXPECT_EQ(crc32c(file), pin.crc) << pin.file;
  }
  const ScanResult scan = dataset.scan();
  EXPECT_EQ(scan.rows(), 1100u);
  EXPECT_TRUE(scan.quarantined.empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace harvest::store
