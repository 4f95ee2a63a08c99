// Tests for util::json, the one JSON reader: the RFC 8259 accept/reject
// grammar, \u escapes and surrogates, duplicate keys, the depth cap on
// hostile nesting, exact integer reads, bit-exact double reads, and the
// escaper's round trip through the reader.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/rng.h"

namespace harvest::util::json {
namespace {

bool accepts(const std::string& text) {
  try {
    parse(text, "t");
    return true;
  } catch (const Error&) {
    return false;
  }
}

std::string parse_string(const std::string& text) {
  const Value v = parse(text, "t");
  EXPECT_NE(v.as_string(), nullptr) << text;
  return v.as_string() != nullptr ? *v.as_string() : "";
}

TEST(JsonTest, GrammarAcceptRejectTable) {
  const std::vector<std::string> good = {
      "null", "true", "false", "0", "-0", "12", "-3.25", "1e10", "1E+2",
      "2.5e-3", "\"\"", "\"a b\"", "[]", "{}", " [ 1 , 2 ] ",
      "\t\r\n{\"a\" : [true, false, null], \"b\": {\"c\": \"d\"}}\n",
      "[[[]]]", "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"", "\"\\u00e9\"",
      "\"caf\xc3\xa9\""};
  for (const std::string& text : good) {
    EXPECT_TRUE(accepts(text)) << text;
  }
  const std::vector<std::string> bad = {
      "", " ", "nul", "tru", "True", "NaN", "Infinity", "-Infinity", "+1",
      "01", "-", "1.", ".5", "1e", "1e+", "0x10", "[1,]", "[,1]", "[1 2]",
      "{\"a\":1,}", "{a:1}", "{\"a\" 1}", "{\"a\":}", "{1:2}", "'a'",
      "\"abc", "\"\\x\"", "\"\\u12\"", "\"\\uZZZZ\"", "\"tab\there\"",
      "\"nl\nhere\"", std::string("\"nul\0\"", 6), "[1] x", "{} {}", "[",
      "{\"a\":", "]", "}", "[1}", "{\"a\":1]"};
  for (const std::string& text : bad) {
    EXPECT_FALSE(accepts(text)) << text;
  }
}

TEST(JsonTest, ValuesReadBackByKind) {
  const Value v = parse(
      "{\"s\":\"x\",\"n\":3,\"b\":true,\"z\":null,\"a\":[1,2],\"o\":{}}", "t");
  ASSERT_EQ(v.kind(), Value::Kind::kObject);
  EXPECT_EQ(*v.find("s")->as_string(), "x");
  EXPECT_EQ(v.find("n")->as_uint64(), 3u);
  EXPECT_EQ(v.find("b")->as_bool(), true);
  EXPECT_EQ(v.find("z")->kind(), Value::Kind::kNull);
  EXPECT_EQ(v.find("a")->as_array()->size(), 2u);
  EXPECT_TRUE(v.find("o")->as_object()->empty());
  EXPECT_EQ(v.find("missing"), nullptr);
  // Wrong-kind reads are empty, never a crash or a coercion.
  EXPECT_EQ(v.find("s")->as_double(), std::nullopt);
  EXPECT_EQ(v.find("n")->as_string(), nullptr);
  EXPECT_EQ(v.find("b")->as_uint64(), std::nullopt);
  EXPECT_EQ(v.find("a")->find("x"), nullptr);
  // Members keep file order.
  const Value::Object& members = *v.as_object();
  ASSERT_EQ(members.size(), 6u);
  EXPECT_EQ(members.front().first, "s");
  EXPECT_EQ(members.back().first, "o");
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(parse_string("\"\\u0041\""), "A");
  EXPECT_EQ(parse_string("\"\\u0001\""), "\x01");
  EXPECT_EQ(parse_string("\"\\u0000\""), std::string(1, '\0'));
  EXPECT_EQ(parse_string("\"\\u00e9\""), "\xc3\xa9");
  EXPECT_EQ(parse_string("\"\\u20AC\""), "\xe2\x82\xac");
  EXPECT_EQ(parse_string("\"\\uFFFF\""), "\xef\xbf\xbf");
  // A surrogate pair joins into one 4-byte code point.
  EXPECT_EQ(parse_string("\"\\ud83d\\ude00\""), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse_string("\"\\uDBFF\\uDFFF\""), "\xf4\x8f\xbf\xbf");
  // Lone surrogates are errors.
  EXPECT_FALSE(accepts("\"\\ud83d\""));
  EXPECT_FALSE(accepts("\"\\ud83dx\""));
  EXPECT_FALSE(accepts("\"\\ud83d\\u0041\""));
  EXPECT_FALSE(accepts("\"\\ude00\""));
  EXPECT_FALSE(accepts("\"\\ude00\\ud83d\""));
}

TEST(JsonTest, DuplicateKeysAreRejected) {
  EXPECT_FALSE(accepts("{\"a\":1,\"a\":2}"));
  EXPECT_FALSE(accepts("{\"a\":1,\"b\":2,\"a\":3}"));
  EXPECT_FALSE(accepts("[{\"x\":{\"k\":1,\"k\":1}}]"));
  // Keys compare after unescaping.
  EXPECT_FALSE(accepts("{\"a\":1,\"\\u0061\":2}"));
  // The same key in sibling objects is fine.
  EXPECT_TRUE(accepts("[{\"a\":1},{\"a\":2}]"));
  // A hostile object with many members is checked without quadratic work.
  std::string big = "{";
  for (int i = 0; i < 100000; ++i) big += "\"k" + std::to_string(i) + "\":0,";
  EXPECT_TRUE(accepts(big + "\"end\":0}"));
  EXPECT_FALSE(accepts(big + "\"k5\":0}"));
}

TEST(JsonTest, DeepNestingThrowsTheTypedError) {
  const std::string deep(1000000, '[');
  try {
    parse(deep, "deep.json");
    FAIL() << "accepted 1,000,000 nested arrays";
  } catch (const Error& e) {
    EXPECT_EQ(e.origin(), "deep.json");
    EXPECT_EQ(e.offset(), kMaxDepth);
  }
  // The cap itself is accepted; one more level is not.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(accepts(nested(kMaxDepth)));
  EXPECT_FALSE(accepts(nested(kMaxDepth + 1)));
  EXPECT_FALSE(accepts(std::string(1000000, '{')));
}

TEST(JsonTest, ErrorsCarryOriginAndOffset) {
  try {
    parse("[1,]", "plan.json");
    FAIL() << "accepted a trailing comma";
  } catch (const Error& e) {
    EXPECT_EQ(e.origin(), "plan.json");
    EXPECT_EQ(e.offset(), 3u);
    EXPECT_EQ(std::string(e.what()), "plan.json: " + e.detail());
    EXPECT_NE(e.detail().find("at byte 3"), std::string::npos);
  }
}

TEST(JsonTest, Uint64IsExactAndRejectsNonIntegers) {
  const auto read = [](const std::string& token) {
    return parse(token, "t").as_uint64();
  };
  EXPECT_EQ(read("0"), 0u);
  EXPECT_EQ(read("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(read("9007199254740993"), 9007199254740993u);  // 2^53 + 1
  EXPECT_EQ(read("18446744073709551616"), std::nullopt);   // 2^64
  EXPECT_EQ(read("-1"), std::nullopt);
  EXPECT_EQ(read("-0"), std::nullopt);
  EXPECT_EQ(read("1.0"), std::nullopt);
  EXPECT_EQ(read("1e3"), std::nullopt);
  EXPECT_EQ(read("\"7\""), std::nullopt);
}

TEST(JsonTest, DoubleTokensFromPercent17gReadBackBitIdentical) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                1.0 / 3.0,
                                -2.5e-7,
                                DBL_MAX,
                                -DBL_MAX,
                                DBL_MIN,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                2.2250738585072009e-308,  // largest denormal
                                123456789.123456789};
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    values.push_back(std::bit_cast<double>(rng.next_u64()));
  }
  for (const double v : values) {
    if (!std::isfinite(v)) continue;  // JSON has no inf/nan literals
    char token[64];
    std::snprintf(token, sizeof(token), "%.17g", v);
    const std::optional<double> back = parse(token, "t").as_double();
    ASSERT_TRUE(back.has_value()) << token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(v))
        << token;
  }
}

TEST(JsonTest, EscapeRoundTripsThroughTheReader) {
  EXPECT_EQ(escape("\x01\x1f"), "\\u0001\\u001f");
  std::string every_byte;
  for (int c = 1; c < 256; ++c) every_byte.push_back(static_cast<char>(c));
  EXPECT_EQ(parse_string("\"" + escape(every_byte) + "\""), every_byte);
}

}  // namespace
}  // namespace harvest::util::json
