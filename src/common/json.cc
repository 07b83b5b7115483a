#include "src/common/json.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace sb7 {

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

const std::vector<JsonValue>& JsonValue::Items() const {
  static const std::vector<JsonValue> empty;
  return kind_ == Kind::kArray ? items_ : empty;
}

const std::map<std::string, JsonValue>& JsonValue::Members() const {
  static const std::map<std::string, JsonValue> empty;
  return kind_ == Kind::kObject ? members_ : empty;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  const auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonParseResult Parse() {
    JsonParseResult result;
    result.value = ParseValue();
    if (error_.empty()) {
      SkipWhitespace();
      if (pos_ != text_.size()) {
        Fail("trailing content after document");
      }
    }
    result.error = error_;
    return result;
  }

 private:
  void Fail(const std::string& message) {
    if (error_.empty()) {
      std::ostringstream out;
      out << "offset " << pos_ << ": " << message;
      error_ = out.str();
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char expected) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) == 0) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  JsonValue ParseLiteral() {
    if (ConsumeLiteral("true")) {
      return JsonValue(true);
    }
    if (ConsumeLiteral("false")) {
      return JsonValue(false);
    }
    if (!ConsumeLiteral("null")) {
      Fail("invalid literal");
    }
    return JsonValue();
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of document");
      return JsonValue();
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return JsonValue(ParseString());
      case 't':
      case 'f':
      case 'n':
        return ParseLiteral();
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    JsonValue object = JsonValue::MakeObject();
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) {
      return object;
    }
    while (error_.empty()) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        Fail("expected object key string");
        break;
      }
      const std::string key = ParseString();
      if (!error_.empty()) {
        break;
      }
      if (!Consume(':')) {
        Fail("expected ':' after object key");
        break;
      }
      object.MutableMembers()[key] = ParseValue();
      if (!error_.empty()) {
        break;
      }
      if (Consume(',')) {
        continue;
      }
      if (!Consume('}')) {
        Fail("expected ',' or '}' in object");
      }
      break;
    }
    return object;
  }

  JsonValue ParseArray() {
    JsonValue array = JsonValue::MakeArray();
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) {
      return array;
    }
    while (error_.empty()) {
      array.MutableItems().push_back(ParseValue());
      if (!error_.empty()) {
        break;
      }
      if (Consume(',')) {
        continue;
      }
      if (!Consume(']')) {
        Fail("expected ',' or ']' in array");
      }
      break;
    }
    return array;
  }

  std::string ParseString() {
    std::string out;
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          // JsonString only emits \u00XX for control characters;
          // decode the low byte and reject anything beyond Latin-1.
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return out;
          }
          const std::string hex = text_.substr(pos_, 4);
          // strtol alone would accept leading whitespace/signs that are not
          // legal JSON; only four hex digits are.
          const bool digits = std::all_of(hex.begin(), hex.end(), [](char h) {
            return std::isxdigit(static_cast<unsigned char>(h)) != 0;
          });
          const long code = digits ? std::strtol(hex.c_str(), nullptr, 16) : -1;
          if (code < 0 || code > 0xFF) {
            Fail("unsupported \\u escape: " + hex);
            return out;
          }
          out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default:
          Fail(std::string("unknown escape: \\") + escape);
          return out;
      }
    }
    Fail("unterminated string");
    return out;
  }

  JsonValue ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected a value");
      return JsonValue();
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      Fail("malformed number: " + token);
      return JsonValue();
    }
    return JsonValue(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult ParseJson(const std::string& text) { return Parser(text).Parse(); }

}  // namespace sb7
