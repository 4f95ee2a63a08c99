// Byte-level codecs shared by the HLOG writer and reader: little-endian
// fixed-width primitives, LEB128 varints, zigzag, and the two exact column
// codecs (XOR-prev f64, delta-zigzag u32). Everything here is pure
// function-of-input — no locale, no platform byte-order dependence — which
// is what makes writer output and reader scans bit-reproducible anywhere.
//
// The column codecs work through plain pointers: an encoder stores into a
// caller-sized buffer (kMaxVarintBytes per value) and returns its new end; a
// decoder advances a cursor through one payload and never reads outside it.
// The std::string forms below are thin wrappers for the cold sections
// (schema, footer, dictionary) and tests.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace harvest::store {

// ---- fixed-width little-endian primitives ---------------------------------

inline char* put_u32(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
  p[2] = static_cast<char>((v >> 16) & 0xFF);
  p[3] = static_cast<char>((v >> 24) & 0xFF);
  return p + 4;
}

inline void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  out.append(bytes, put_u32(bytes, v));
}

inline void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-unchecked reads — callers validate lengths against the section
/// framing before decoding (a CRC-verified payload cannot be short).
inline std::uint16_t get_u16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

inline std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

inline std::uint64_t get_u64(const char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
  } else {
    return static_cast<std::uint64_t>(get_u32(p)) |
           (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
  }
}

inline double get_f64(const char* p) {
  return std::bit_cast<double>(get_u64(p));
}

// ---- varint / zigzag ------------------------------------------------------

/// Longest LEB128 encoding of a 64-bit value: the room an encoder needs per
/// value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Stores `v` as LEB128 at `p` (which has kMaxVarintBytes of room); returns
/// the end of the encoding.
inline char* put_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

inline void put_varint(std::string& out, std::uint64_t v) {
  char bytes[kMaxVarintBytes];
  out.append(bytes, put_varint(bytes, v));
}

/// Decodes one varint from [*pos, data.size()); advances *pos. Returns false
/// on truncation or a varint longer than 10 bytes (overlong encodings of
/// values that fit 64 bits are accepted; the writer never emits them).
///
/// With at least 8 bytes left it loads them as one little-endian word: the
/// lowest clear high bit marks the stop byte, and the 7-bit groups up to it
/// are gathered with shifts and masks. A varint with no stop byte in the
/// word (9–10 bytes, or damage) continues in the byte loop from its ninth
/// byte, and the last bytes of a payload take the byte loop alone. Every
/// path yields the value, cursor and verdict of the byte loop, and none
/// reads past data.size().
inline bool get_varint(std::string_view data, std::size_t* pos,
                       std::uint64_t* out) {
  std::uint64_t v = 0;
  int shift = 0;
  if (data.size() >= 8 && *pos <= data.size() - 8) {
    const std::uint64_t word = get_u64(data.data() + *pos);
    const std::uint64_t stops = ~word & 0x8080808080808080ull;
    // Keep the bytes up to and including the stop byte (all eight when
    // there is none), then pack their 7-bit groups into contiguous bits; the
    // first step's masks drop the continuation bits.
    v = word & (stops ^ (stops - 1));
    v = (v & 0x007F007F007F007Full) | ((v & 0x7F007F007F007F00ull) >> 1);
    v = (v & 0x00003FFF00003FFFull) | ((v & 0x3FFF00003FFF0000ull) >> 2);
    v = (v & 0x000000000FFFFFFFull) | ((v & 0x0FFFFFFF00000000ull) >> 4);
    if (stops != 0) {
      *out = v;
      *pos += static_cast<std::size_t>(std::countr_zero(stops) / 8 + 1);
      return true;
    }
    *pos += 8;
    shift = 56;
  }
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

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// ---- column codecs --------------------------------------------------------
// One encoder and one decoder per column kind. An encoder writes `rows`
// varints at `out` (room for rows * kMaxVarintBytes) and returns the end. A
// decoder reads `rows` values from payload[*pos, ...) and advances *pos past
// them (also on failure, as far as it got); callers that expect the payload
// to be exactly one stream check *pos == payload.size() themselves. The
// stride lets the field-major context column scatter into row-major arrays.

/// f64 stream: varint of bits(v[i]) XOR bits(v[i-1]), prev starts at 0.
/// Exact for every bit pattern; constant runs cost one byte per row.
inline char* encode_f64(const double* values, std::size_t rows,
                        std::size_t stride, char* out) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(values[i * stride]);
    out = put_varint(out, bits ^ prev);
    prev = bits;
  }
  return out;
}

inline bool decode_f64(std::string_view payload, std::size_t* pos,
                       std::size_t rows, double* out, std::size_t stride) {
  std::size_t at = *pos;
  std::uint64_t prev = 0;
  std::size_t i = 0;
  for (; i < rows; ++i) {
    std::uint64_t delta = 0;
    if (!get_varint(payload, &at, &delta)) break;
    prev ^= delta;
    out[i * stride] = std::bit_cast<double>(prev);
  }
  *pos = at;
  return i == rows;
}

/// u32 stream (actions, dictionary codes): varint of zigzag(delta), prev
/// starts at 0. Small action sets make every delta a single byte. A delta
/// that leaves [0, 2^32) fails the decode.
inline char* encode_u32(const std::uint32_t* values, std::size_t rows,
                        char* out) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const auto v = static_cast<std::int64_t>(values[i]);
    out = put_varint(out, zigzag(v - prev));
    prev = v;
  }
  return out;
}

inline bool decode_u32(std::string_view payload, std::size_t* pos,
                       std::size_t rows, std::uint32_t* out) {
  std::size_t at = *pos;
  // In [0, 2^32) between rows. Unsigned, so a hostile delta wraps instead
  // of overflowing; any wrapped sum still lands outside [0, 2^32).
  std::uint64_t prev = 0;
  std::size_t i = 0;
  for (; i < rows; ++i) {
    std::uint64_t raw = 0;
    if (!get_varint(payload, &at, &raw)) break;
    prev += static_cast<std::uint64_t>(unzigzag(raw));
    if (prev > 0xFFFFFFFFu) break;
    out[i] = static_cast<std::uint32_t>(prev);
  }
  *pos = at;
  return i == rows;
}

// ---- length-prefixed strings (schema section) -----------------------------

inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

inline bool get_str(std::string_view data, std::size_t* pos,
                    std::string* out) {
  if (*pos + 4 > data.size()) return false;
  const std::uint32_t len = get_u32(data.data() + *pos);
  *pos += 4;
  if (*pos + len > data.size()) return false;
  out->assign(data.substr(*pos, len));
  *pos += len;
  return true;
}

}  // namespace harvest::store
