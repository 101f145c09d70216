#ifndef CPA_UTIL_JSON_H_
#define CPA_UTIL_JSON_H_

/// \file json.h
/// \brief A minimal JSON document, sufficient to round-trip the repo's
/// machine-readable artefacts (bench reports, engine configs).
///
/// Supports objects, arrays, strings (with `\"`, `\\`, `\/`, `\b`, `\f`,
/// `\n`, `\r`, `\t` escapes), finite numbers, booleans and null — exactly
/// the grammar `Dump` emits. Not a general-purpose JSON library; lives
/// here so reports and configs can be validated without external deps.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cpa {

/// \brief A parsed (or constructed) JSON value.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : kind_(Kind::kNull) {}
  explicit JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  explicit JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}
  explicit JsonValue(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}
  explicit JsonValue(Array value)
      : kind_(Kind::kArray), array_(std::move(value)) {}
  explicit JsonValue(Object value)
      : kind_(Kind::kObject), object_(std::move(value)) {}

  /// Deepest array/object nesting `Parse` accepts. The parser recurses
  /// once per level, so without a bound a few hundred KB of `[` (far under
  /// the server's frame cap) overflow the stack; the repo's documents nest
  /// fewer than ten levels.
  static constexpr std::size_t kMaxDepth = 256;

  /// Parses `text` as a single JSON document (trailing garbage is an error;
  /// so is nesting deeper than `kMaxDepth`, reported as InvalidArgument
  /// before the parser descends further).
  static Result<JsonValue> Parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const Array& array() const { return array_; }
  const Object& object() const { return object_; }

  /// Object lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Serializes with 2-space indentation and sorted object keys.
  std::string Dump() const;

  /// Serializes without any whitespace — one line, for line-delimited
  /// protocols (the server's wire format). Parses back identically.
  std::string DumpCompact() const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace cpa

#endif  // CPA_UTIL_JSON_H_
