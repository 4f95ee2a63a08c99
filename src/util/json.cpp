#include "util/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace harvest::util::json {

Error::Error(std::string origin, std::size_t offset, const std::string& reason)
    : std::runtime_error(origin + ": " + reason + " at byte " +
                         std::to_string(offset)),
      origin_(std::move(origin)),
      offset_(offset),
      detail_(reason + " at byte " + std::to_string(offset)) {}

std::optional<bool> Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  return std::nullopt;
}

const std::string* Value::as_string() const {
  return std::get_if<std::string>(&data_);
}

const Value::Array* Value::as_array() const {
  return std::get_if<Array>(&data_);
}

const Value::Object* Value::as_object() const {
  return std::get_if<Object>(&data_);
}

std::optional<std::uint64_t> Value::as_uint64() const {
  const Number* n = std::get_if<Number>(&data_);
  if (n == nullptr) return std::nullopt;
  const char* end = n->token.data() + n->token.size();
  std::uint64_t v = 0;
  // from_chars takes no sign for unsigned types and reports overflow; a
  // fraction or exponent leaves characters unconsumed.
  const auto [stop, ec] = std::from_chars(n->token.data(), end, v);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return v;
}

std::optional<double> Value::as_double() const {
  const Number* n = std::get_if<Number>(&data_);
  if (n == nullptr) return std::nullopt;
  return std::strtod(n->token.c_str(), nullptr);
}

const Value* Value::find(std::string_view key) const {
  const Object* members = as_object();
  if (members == nullptr) return nullptr;
  for (const auto& [k, v] : *members) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Recursive-descent parser over one document; `depth` counts the open
/// arrays and objects around the value being parsed.
class Parser {
 public:
  Parser(std::string_view text, const std::string& origin)
      : text_(text), origin_(origin) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("unexpected text after the value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& reason) const {
    throw Error(origin_, pos_, reason);
  }

  bool at_end() const { return pos_ >= text_.size(); }

  void skip_ws() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                         text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  Value parse_value(std::size_t depth) {
    skip_ws();
    if (at_end()) fail("unexpected end of input");
    Value v;
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      if (c == '{') {
        v.data_ = parse_object(depth + 1);
      } else {
        v.data_ = parse_array(depth + 1);
      }
    } else if (c == '"') {
      v.data_ = parse_string();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      v.data_ = Value::Number{parse_number()};
    } else if (literal("true")) {
      v.data_ = true;
    } else if (literal("false")) {
      v.data_ = false;
    } else if (!literal("null")) {
      fail("unexpected character");
    }
    return v;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value::Array parse_array(std::size_t depth) {
    ++pos_;  // '['
    Value::Array items;
    if (consume(']')) return items;
    do {
      items.push_back(parse_value(depth));
    } while (consume(','));
    expect(']');
    return items;
  }

  Value::Object parse_object(std::size_t depth) {
    const std::size_t start = pos_;
    ++pos_;  // '{'
    Value::Object members;
    if (consume('}')) return members;
    do {
      skip_ws();
      if (at_end() || text_[pos_] != '"') fail("expected a string key");
      std::string key = parse_string();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth));
    } while (consume(','));
    expect('}');
    if (const std::string* dup = duplicate_key(members)) {
      pos_ = start;
      fail("duplicate key \"" + escape(*dup) + "\" in object");
    }
    return members;
  }

  /// A key that occurs twice in `members`, or nullptr. Sorting keeps a
  /// hostile object with a huge member count at O(n log n).
  static const std::string* duplicate_key(const Value::Object& members) {
    if (members.size() < 2) return nullptr;
    std::vector<const std::string*> keys;
    keys.reserve(members.size());
    for (const auto& member : members) keys.push_back(&member.first);
    std::sort(keys.begin(), keys.end(),
              [](const std::string* x, const std::string* y) {
                return *x < *y;
              });
    const auto dup = std::adjacent_find(
        keys.begin(), keys.end(),
        [](const std::string* x, const std::string* y) { return *x == *y; });
    return dup == keys.end() ? nullptr : *dup;
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      ++pos_;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) fail("unterminated string");
      switch (text_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, parse_code_point()); break;
        default:
          --pos_;
          fail("invalid escape");
      }
    }
  }

  /// The code point of a \u escape whose "\u" was just consumed, joining a
  /// surrogate pair into one code point.
  std::uint32_t parse_code_point() {
    const std::uint32_t unit = parse_hex4();
    if (unit >= 0xDC00 && unit <= 0xDFFF) fail("lone low surrogate");
    if (unit < 0xD800 || unit > 0xDBFF) return unit;
    if (!literal("\\u")) fail("lone high surrogate");
    const std::uint32_t low = parse_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
    return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
  }

  std::uint32_t parse_hex4() {
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + std::min(pos_ + 4, text_.size());
    std::uint32_t unit = 0;
    const auto [stop, ec] = std::from_chars(first, last, unit, 16);
    if (ec != std::errc{} || stop != first + 4) fail("invalid \\u escape");
    pos_ += 4;
    return unit;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    const auto byte = [&](std::uint32_t b) {
      out.push_back(static_cast<char>(b));
    };
    if (cp < 0x80) {
      byte(cp);
    } else if (cp < 0x800) {
      byte(0xC0 | (cp >> 6));
      byte(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      byte(0xE0 | (cp >> 12));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    } else {
      byte(0xF0 | (cp >> 18));
      byte(0x80 | ((cp >> 12) & 0x3F));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    }
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, returned as its text.
  std::string parse_number() {
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ - from;
    };
    const auto next_is = [&](char c) {
      return !at_end() && text_[pos_] == c;
    };
    if (next_is('-')) ++pos_;
    if (next_is('0')) {
      ++pos_;
    } else if (digits() == 0) {
      fail("expected a digit");
    }
    if (next_is('.')) {
      ++pos_;
      if (digits() == 0) fail("expected a digit after the decimal point");
    }
    if (next_is('e') || next_is('E')) {
      ++pos_;
      if (next_is('+') || next_is('-')) ++pos_;
      if (digits() == 0) fail("expected an exponent digit");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string_view text_;
  const std::string& origin_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text, const std::string& origin) {
  return Parser(text, origin).parse_document();
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace harvest::util::json
