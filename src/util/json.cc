#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace cpa {
namespace {

/// Recursive-descent parser over the supported grammar. `pos` always points
/// at the next unconsumed character.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    CPA_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(Error("trailing characters"));
    }
    return value;
  }

 private:
  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument(Error("unexpected end of input"));
    }
    switch (text_[pos_]) {
      case '{': return ParseNested(&JsonParser::ParseObject);
      case '[': return ParseNested(&JsonParser::ParseArray);
      case '"': return ParseString();
      case 't': return ParseLiteral("true", JsonValue(true));
      case 'f': return ParseLiteral("false", JsonValue(false));
      case 'n': return ParseLiteral("null", JsonValue());
      default: return ParseNumber();
    }
  }

  /// Runs one container parser a level deeper, refusing to recurse past
  /// `JsonValue::kMaxDepth`.
  Result<JsonValue> ParseNested(Result<JsonValue> (JsonParser::*parse)()) {
    if (depth_ >= JsonValue::kMaxDepth) {
      return Status::InvalidArgument(Error("nesting deeper than the depth limit"));
    }
    ++depth_;
    Result<JsonValue> value = (this->*parse)();
    --depth_;
    return value;
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // consume '{'
    JsonValue::Object object;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      SkipWhitespace();
      if (Peek() != '"') {
        return Status::InvalidArgument(Error("expected object key"));
      }
      CPA_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipWhitespace();
      if (Peek() != ':') {
        return Status::InvalidArgument(Error("expected ':' after object key"));
      }
      ++pos_;
      CPA_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      object[key.string_value()] = std::move(value);
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return JsonValue(std::move(object));
      }
      return Status::InvalidArgument(Error("expected ',' or '}' in object"));
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // consume '['
    JsonValue::Array array;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      CPA_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      array.push_back(std::move(value));
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return JsonValue(std::move(array));
      }
      return Status::InvalidArgument(Error("expected ',' or ']' in array"));
    }
  }

  Result<JsonValue> ParseString() {
    ++pos_;  // consume '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return JsonValue(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char escape = text_[pos_++];
        switch (escape) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          default:
            return Status::InvalidArgument(Error("unsupported string escape"));
        }
      } else {
        out.push_back(c);
      }
    }
    return Status::InvalidArgument(Error("unterminated string"));
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size() ||
        !std::isfinite(value)) {
      return Status::InvalidArgument(Error("malformed number"));
    }
    return JsonValue(value);
  }

  Result<JsonValue> ParseLiteral(std::string_view literal, JsonValue value) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Status::InvalidArgument(Error("malformed literal"));
    }
    pos_ += literal.size();
    return value;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  /// The next unconsumed character, or '\0' at end of input.
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string Error(std::string_view what) const {
    std::ostringstream os;
    os << "JSON parse error at offset " << pos_ << ": " << what;
    return os.str();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open around `pos_`
};

void EscapeStringTo(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

/// One serializer for both renderings: `pretty` adds the 2-space
/// indentation and per-entry newlines of `Dump`; compact mode emits the
/// same tokens with no whitespace at all (`DumpCompact`).
void DumpTo(std::ostream& os, const JsonValue& value, int indent, bool pretty) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      os << "null";
      break;
    case JsonValue::Kind::kBool:
      os << (value.bool_value() ? "true" : "false");
      break;
    case JsonValue::Kind::kNumber: {
      // JSON has no NaN/Inf; emit null so the file stays parseable (the
      // parser rejects non-finite numbers, keeping round-trips symmetric).
      if (!std::isfinite(value.number_value())) {
        os << "null";
        break;
      }
      // max_digits10 keeps doubles exact across a serialize/parse cycle.
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value.number_value());
      os << buffer;
      break;
    }
    case JsonValue::Kind::kString:
      EscapeStringTo(os, value.string_value());
      break;
    case JsonValue::Kind::kArray: {
      if (value.array().empty()) {
        os << "[]";
        break;
      }
      os << '[';
      for (std::size_t i = 0; i < value.array().size(); ++i) {
        if (i > 0) os << ',';
        if (pretty) os << '\n' << std::string(2 * (indent + 1), ' ');
        DumpTo(os, value.array()[i], indent + 1, pretty);
      }
      if (pretty) os << '\n' << std::string(2 * indent, ' ');
      os << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      if (value.object().empty()) {
        os << "{}";
        break;
      }
      os << '{';
      std::size_t i = 0;
      for (const auto& [key, child] : value.object()) {
        if (i++ > 0) os << ',';
        if (pretty) os << '\n' << std::string(2 * (indent + 1), ' ');
        EscapeStringTo(os, key);
        os << (pretty ? ": " : ":");
        DumpTo(os, child, indent + 1, pretty);
      }
      if (pretty) os << '\n' << std::string(2 * indent, ' ');
      os << '}';
      break;
    }
  }
}

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonValue::Dump() const {
  std::ostringstream os;
  DumpTo(os, *this, 0, /*pretty=*/true);
  return os.str();
}

std::string JsonValue::DumpCompact() const {
  std::ostringstream os;
  DumpTo(os, *this, 0, /*pretty=*/false);
  return os.str();
}

}  // namespace cpa
