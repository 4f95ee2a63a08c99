// The repo's one JSON reader and its one JSON string escaper.
//
// Every JSON file the harvest loop hands between stages — HLOG dataset
// manifests, logging plans, Chrome traces — is read through parse(), and
// every writer escapes its strings with escape(). The reader is strict
// RFC 8259: all escapes including \uXXXX (decoded to UTF-8; a lone
// surrogate is an error), no raw control characters inside strings, no
// duplicate keys, nothing after the value, and nesting capped at kMaxDepth
// so hostile input cannot exhaust the stack. Bytes >= 0x80 pass through
// unvalidated, since escape() writes them raw.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace harvest::util::json {

/// Deepest array/object nesting parse() accepts. The formats this repo
/// writes nest at most 4 deep.
inline constexpr std::size_t kMaxDepth = 64;

/// Malformed JSON. what() reads "<origin>: <reason> at byte <offset>".
class Error : public std::runtime_error {
 public:
  Error(std::string origin, std::size_t offset, const std::string& reason);

  const std::string& origin() const { return origin_; }
  std::size_t offset() const { return offset_; }
  /// what() without the origin prefix: "<reason> at byte <offset>".
  const std::string& detail() const { return detail_; }

 private:
  std::string origin_;
  std::size_t offset_;
  std::string detail_;
};

/// One parsed JSON value. Objects keep their members in file order.
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::vector<std::pair<std::string, Value>>;

  /// Listed in the order of data_'s alternatives.
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return static_cast<Kind>(data_.index()); }

  // Typed reads: nullopt / nullptr when the value is of another kind.
  std::optional<bool> as_bool() const;
  const std::string* as_string() const;
  const Array* as_array() const;
  const Object* as_object() const;
  /// Numbers keep their token text. as_uint64() is exact up to 2^64-1 and
  /// rejects signs, fractions, exponents and overflow; as_double() is
  /// strtod of the token, so %.17g output reads back bit-identical.
  std::optional<std::uint64_t> as_uint64() const;
  std::optional<double> as_double() const;

  /// The member named `key`; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

 private:
  friend class Parser;
  struct Number {
    std::string token;
  };
  std::variant<std::monostate, bool, Number, std::string, Array, Object>
      data_;
};

/// Parses one JSON document. Throws Error naming `origin` (a file path or
/// other label) and the byte offset of the first violation.
Value parse(std::string_view text, const std::string& origin);

/// Escapes `"`, `\` and control characters for embedding in a JSON string
/// (without the surrounding quotes).
std::string escape(std::string_view s);

}  // namespace harvest::util::json
