// Property tests for the HLOG column codecs: the pointer encoders must emit
// exactly the bytes of a byte-at-a-time reference encoder, and the
// word-at-a-time varint decoder must agree with a byte-loop reference
// decoder in value, cursor and verdict on valid and damaged payloads alike.
// Every payload under decode sits in a heap block of exactly its own size,
// so a sanitizer build also checks that no load reads past a payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/encoding.h"
#include "util/rng.h"

namespace harvest::store {
namespace {

// ---- reference codec: the byte-at-a-time forms the pointer codec replaced --

void ref_put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool ref_get_varint(std::string_view data, std::size_t* pos,
                    std::uint64_t* out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size() && shift < 70) {
    const auto byte = static_cast<unsigned char>(data[*pos]);
    ++*pos;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

std::string ref_encode_f64(const double* values, std::size_t rows,
                           std::size_t stride) {
  std::string out;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(values[i * stride]);
    ref_put_varint(out, bits ^ prev);
    prev = bits;
  }
  return out;
}

std::string ref_encode_u32(const std::vector<std::uint32_t>& values) {
  std::string out;
  std::int64_t prev = 0;
  for (const std::uint32_t v : values) {
    ref_put_varint(out, zigzag(static_cast<std::int64_t>(v) - prev));
    prev = static_cast<std::int64_t>(v);
  }
  return out;
}

bool ref_decode_f64(std::string_view payload, std::size_t* pos,
                    std::size_t rows, double* out, std::size_t stride) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t delta = 0;
    if (!ref_get_varint(payload, pos, &delta)) return false;
    prev ^= delta;
    out[i * stride] = std::bit_cast<double>(prev);
  }
  return true;
}

bool ref_decode_u32(std::string_view payload, std::size_t* pos,
                    std::size_t rows, std::uint32_t* out) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t raw = 0;
    if (!ref_get_varint(payload, pos, &raw)) return false;
    // prev + delta must land in [0, 2^32); checked without overflowing.
    const std::int64_t delta = unzigzag(raw);
    if (delta > 0xFFFFFFFFll - prev) return false;
    prev += delta;
    if (prev < 0) return false;
    out[i] = static_cast<std::uint32_t>(prev);
  }
  return true;
}

// ---- inputs ----------------------------------------------------------------

/// A payload copied into a heap block of exactly its size.
class ExactBuffer {
 public:
  explicit ExactBuffer(std::string_view bytes)
      : data_(new char[bytes.size()]), size_(bytes.size()) {
    if (size_ > 0) std::memcpy(data_.get(), bytes.data(), size_);
  }
  std::string_view view() const { return {data_.get(), size_}; }

 private:
  std::unique_ptr<char[]> data_;
  std::size_t size_;
};

/// A random f64 column whose XOR deltas take every varint length from 1 to
/// 10 bytes, mixed with the bit patterns a codec is likeliest to get wrong.
std::vector<double> random_f64_column(util::Rng& rng, std::size_t n) {
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(0x7FF8000000000001ull),  // NaN payloads, both
      std::bit_cast<double>(0xFFF800000000BEEFull),  // signs
      std::bit_cast<double>(0x7FF0000000000001ull),
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      0x1p-1040,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      1.0};
  std::vector<double> values;
  values.reserve(n);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    if (rng.uniform_index(5) == 0) {
      bits = std::bit_cast<std::uint64_t>(
          specials[rng.uniform_index(std::size(specials))]);
    } else {
      const auto width = static_cast<int>(rng.uniform_index(65));
      const std::uint64_t delta =
          width == 0 ? 0
                     : (rng.next_u64() >> (64 - width)) | (1ull << (width - 1));
      bits = prev ^ delta;
    }
    values.push_back(std::bit_cast<double>(bits));
    prev = bits;
  }
  return values;
}

/// A random u32 column whose zigzag deltas take every length from 1 to 5.
std::vector<std::uint32_t> random_u32_column(util::Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto width = static_cast<int>(rng.uniform_index(33));
    values.push_back(width == 0 ? 0u
                                : static_cast<std::uint32_t>(
                                      rng.next_u64() >> (64 - width)));
  }
  return values;
}

/// One damaged copy of `payload`: a bit flip, a truncation within the last
/// 12 bytes, a run of 11+ continuation bytes, a 10-byte varint whose last
/// byte is above 1, or trailing garbage.
std::string mutate(util::Rng& rng, const std::string& payload, int kind) {
  std::string out = payload;
  const auto at = [&] {
    return static_cast<std::size_t>(rng.uniform_index(out.size() + 1));
  };
  switch (kind) {
    case 0:
      if (!out.empty()) {
        for (int flips = 1 + static_cast<int>(rng.uniform_index(3));
             flips > 0; --flips) {
          out[rng.uniform_index(out.size())] ^=
              static_cast<char>(1 << rng.uniform_index(8));
        }
      }
      break;
    case 1:
      out.resize(out.size() -
                 std::min<std::size_t>(out.size(),
                                       1 + rng.uniform_index(12)));
      break;
    case 2:
      out.insert(at(), std::string(11 + rng.uniform_index(10), '\x80'));
      break;
    case 3: {
      std::string varint(9, '\xFF');
      varint.push_back(static_cast<char>(2 + rng.uniform_index(126)));
      out.insert(at(), varint);
      break;
    }
    default:
      for (std::size_t k = 1 + rng.uniform_index(9); k > 0; --k) {
        out.push_back(static_cast<char>(rng.uniform_index(256)));
      }
  }
  return out;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---- encoders ----------------------------------------------------------------

TEST(StoreCodecPropertyTest, EncodersMatchByteAtATimeReference) {
  util::Rng rng(20261017);
  constexpr std::size_t kDim = 4;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t rows = rng.uniform_index(300);
    const std::vector<double> values = random_f64_column(rng, rows * kDim);
    for (const std::size_t stride : {std::size_t{1}, kDim}) {
      const std::size_t n = stride == 1 ? rows * kDim : rows;
      for (std::size_t f = 0; f < (stride == 1 ? 1 : kDim); ++f) {
        const std::string expect = ref_encode_f64(values.data() + f, n, stride);
        std::vector<char> buf(n * kMaxVarintBytes);
        const char* end = encode_f64(values.data() + f, n, stride, buf.data());
        ASSERT_EQ(std::string_view(buf.data(),
                                   static_cast<std::size_t>(end - buf.data())),
                  expect)
            << "trial " << trial << " stride " << stride << " field " << f;
      }
    }

    const std::vector<std::uint32_t> codes = random_u32_column(rng, rows);
    std::vector<char> buf(rows * kMaxVarintBytes);
    const char* end = encode_u32(codes.data(), rows, buf.data());
    ASSERT_EQ(
        std::string_view(buf.data(), static_cast<std::size_t>(end - buf.data())),
        ref_encode_u32(codes))
        << "trial " << trial;
  }

  // Every varint length, one value at a time, through the string wrapper.
  for (int width = 0; width <= 64; ++width) {
    const std::uint64_t v =
        width == 0 ? 0 : (rng.next_u64() >> (64 - width)) | (1ull << (width - 1));
    std::string expect;
    ref_put_varint(expect, v);
    std::string got;
    put_varint(got, v);
    EXPECT_EQ(got, expect) << "width " << width;
    EXPECT_EQ(got.size(), width == 0 ? 1u : (width + 6u) / 7u);
  }
}

// ---- decoders ----------------------------------------------------------------

/// get_varint agrees with the byte loop at every start offset of `bytes`.
void expect_varints_match(std::string_view bytes, const char* what) {
  const ExactBuffer exact(bytes);
  const std::string_view data = exact.view();
  for (std::size_t start = 0; start <= data.size(); ++start) {
    std::size_t pos = start;
    std::size_t ref_pos = start;
    std::uint64_t value = 0xDEADBEEF;
    std::uint64_t ref_value = 0xDEADBEEF;
    const bool ok = get_varint(data, &pos, &value);
    const bool ref_ok = ref_get_varint(data, &ref_pos, &ref_value);
    ASSERT_EQ(ok, ref_ok) << what << " at " << start;
    ASSERT_EQ(pos, ref_pos) << what << " at " << start;
    ASSERT_EQ(value, ref_value) << what << " at " << start;
  }
}

/// decode_f64 and decode_u32 agree with the references from `start`: same
/// verdict, same cursor, same values written (including a failed decode's
/// partial output), and so the same whole-payload check.
void expect_columns_match(std::string_view bytes, std::size_t start,
                          std::size_t rows, std::size_t stride,
                          const char* what) {
  const ExactBuffer exact(bytes);
  const std::string_view data = exact.view();
  const double sentinel = std::bit_cast<double>(0x7FF4000000005A5Aull);

  std::vector<double> got(rows * stride + 1, sentinel);
  std::vector<double> expect(rows * stride + 1, sentinel);
  std::size_t pos = start;
  std::size_t ref_pos = start;
  const bool ok = decode_f64(data, &pos, rows, got.data(), stride);
  const bool ref_ok = ref_decode_f64(data, &ref_pos, rows, expect.data(), stride);
  ASSERT_EQ(ok, ref_ok) << what << " f64 from " << start;
  ASSERT_EQ(pos, ref_pos) << what << " f64 from " << start;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(expect[i])) << what << " f64 row " << i;
  }

  std::vector<std::uint32_t> codes(rows + 1, 0xA5A5A5A5u);
  std::vector<std::uint32_t> ref_codes(rows + 1, 0xA5A5A5A5u);
  pos = start;
  ref_pos = start;
  const bool u32_ok = decode_u32(data, &pos, rows, codes.data());
  const bool ref_u32_ok = ref_decode_u32(data, &ref_pos, rows, ref_codes.data());
  ASSERT_EQ(u32_ok, ref_u32_ok) << what << " u32 from " << start;
  ASSERT_EQ(pos, ref_pos) << what << " u32 from " << start;
  ASSERT_EQ(codes, ref_codes) << what << " u32 from " << start;
}

TEST(StoreCodecPropertyTest, DecodersMatchByteLoopReferenceOnValidPayloads) {
  util::Rng rng(7);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t rows = rng.uniform_index(200);
    const std::vector<double> values = random_f64_column(rng, rows);
    const std::string payload = ref_encode_f64(values.data(), rows, 1);
    expect_varints_match(payload, "valid f64");
    expect_columns_match(payload, 0, rows, 1, "valid f64");
    expect_columns_match(payload, 0, rows, 3, "valid f64 strided");

    // Round trip, strided, consuming the payload exactly.
    std::vector<double> back(rows * 3);
    std::size_t pos = 0;
    const ExactBuffer exact(payload);
    ASSERT_TRUE(decode_f64(exact.view(), &pos, rows, back.data() + 1, 3));
    EXPECT_EQ(pos, payload.size());
    for (std::size_t i = 0; i < rows; ++i) {
      ASSERT_EQ(bits_of(back[i * 3 + 1]), bits_of(values[i])) << "row " << i;
    }

    const std::vector<std::uint32_t> codes = random_u32_column(rng, rows);
    const std::string u32_payload = ref_encode_u32(codes);
    expect_varints_match(u32_payload, "valid u32");
    expect_columns_match(u32_payload, 0, rows, 1, "valid u32");
  }
}

TEST(StoreCodecPropertyTest, DecodersMatchByteLoopReferenceOnDamagedPayloads) {
  util::Rng rng(99);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t rows = 1 + rng.uniform_index(120);
    const std::vector<double> values = random_f64_column(rng, rows);
    const std::string payloads[] = {
        ref_encode_f64(values.data(), rows, 1),
        ref_encode_u32(random_u32_column(rng, rows))};
    for (const std::string& payload : payloads) {
      for (int kind = 0; kind < 5; ++kind) {
        const std::string bad = mutate(rng, payload, kind);
        expect_varints_match(bad, "mutated");
        expect_columns_match(bad, 0, rows, 1, "mutated");
        // A stream that starts mid-payload, as a context field's does.
        const std::size_t start = rng.uniform_index(bad.size() + 1);
        expect_columns_match(bad, start, rng.uniform_index(rows + 1), 2,
                             "mutated mid-payload");
      }
      // Truncation at each of the last 12 offsets.
      for (std::size_t cut = 1; cut <= 12 && cut <= payload.size(); ++cut) {
        const std::string shorter = payload.substr(0, payload.size() - cut);
        expect_varints_match(shorter, "truncated");
        expect_columns_match(shorter, 0, rows, 1, "truncated");
      }
    }
  }

  // Hand-built edges: eleven continuation bytes, a tenth byte above 1, the
  // longest legal varint, and eight continuation bytes (the stop byte, if
  // any, just past the word), each at every offset within an 8-byte window
  // and with or without bytes after it.
  for (std::size_t lead = 0; lead < 9; ++lead) {
    const std::string pad(lead, '\x01');
    std::string ten(9, '\xFF');
    ten.push_back('\x02');
    std::string max_varint;
    ref_put_varint(max_varint, std::numeric_limits<std::uint64_t>::max());
    for (const std::string& body :
         {std::string(11, '\x80'), ten, max_varint, std::string(8, '\x80')}) {
      for (const std::string& tail : {std::string(), std::string(9, '\x00')}) {
        const std::string bytes = pad + body + tail;
        expect_varints_match(bytes, "edge");
        expect_columns_match(bytes, 0, lead + 1, 1, "edge");
      }
    }
  }
}

}  // namespace
}  // namespace harvest::store
