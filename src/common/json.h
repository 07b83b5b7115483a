/// \file
/// The one JSON module: a string escaper shared by every JSON writer in the
/// tree, and a minimal document model with a recursive-descent parser.
///
/// The writers (the `stmbench7 --json` report, `BENCH_*.json`, telemetry
/// JSONL and `/series`, Chrome traces) assemble documents with streams and
/// quote every string through `JsonString`. `sb7-bench --compare`,
/// `--validate-json` and the telemetry validator read them back with
/// `ParseJson`. The parser handles exactly the JSON subset the writers emit
/// (objects, arrays, strings with the escape set of `JsonString`, doubles,
/// booleans, null) and rejects everything else with a position-tagged error.
/// It is not a general-purpose JSON library: numbers are always doubles and
/// object key order is not preserved.

#ifndef STMBENCH7_SRC_COMMON_JSON_H_
#define STMBENCH7_SRC_COMMON_JSON_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sb7 {

/// `text` as a quoted JSON string literal. Escapes `"`, `\`, newline and
/// tab by name and every other byte below 0x20 as `\u00XX`; all other bytes
/// (UTF-8 included) pass through unchanged.
std::string JsonString(std::string_view text);

/// One parsed JSON value. The kind discriminates which accessor is valid;
/// the convenience getters below return a fallback instead of asserting so
/// schema probing ("is there a cell key here?") stays terse.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  explicit JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  explicit JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}
  explicit JsonValue(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Numeric value, or `fallback` when this is not a number.
  double AsNumber(double fallback = 0.0) const {
    return kind_ == Kind::kNumber ? number_ : fallback;
  }
  /// String value; the empty string when this is not a string.
  const std::string& AsString() const { return string_; }
  bool AsBool(bool fallback = false) const { return kind_ == Kind::kBool ? bool_ : fallback; }

  /// Array elements (empty for non-arrays).
  const std::vector<JsonValue>& Items() const;
  /// Object members (empty for non-objects).
  const std::map<std::string, JsonValue>& Members() const;

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Builders the parser assembles documents with.
  static JsonValue MakeObject() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static JsonValue MakeArray() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  std::map<std::string, JsonValue>& MutableMembers() { return members_; }
  std::vector<JsonValue>& MutableItems() { return items_; }

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

/// Parse outcome: `value` is set iff `error` is empty. `error` carries a
/// byte offset and a short description ("offset 120: expected ':'").
struct JsonParseResult {
  JsonValue value;
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Parses one JSON document; trailing non-whitespace is an error.
JsonParseResult ParseJson(const std::string& text);

}  // namespace sb7

#endif  // STMBENCH7_SRC_COMMON_JSON_H_
