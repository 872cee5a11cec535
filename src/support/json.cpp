#include "safeopt/support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "safeopt/support/error.h"
#include "safeopt/support/strings.h"

namespace safeopt {
namespace {

[[noreturn]] void fail(std::string_view what, std::size_t offset) {
  throw Error(ErrorCategory::kInvalidInput,
              concat("json: ", what, " at offset ", std::to_string(offset)));
}

constexpr std::string_view kind_name(JsonValue::Kind kind) noexcept {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "a boolean";
    case JsonValue::Kind::kNumber: return "a number";
    case JsonValue::Kind::kString: return "a string";
    case JsonValue::Kind::kArray: return "an array";
    case JsonValue::Kind::kObject: return "an object";
  }
  return "a value";
}

/// Recursive-descent parser over the whole text; depth-guarded like the
/// study-document parser so adversarial bodies cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing data", pos_);
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 128;

  void skip_whitespace() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  bool consume_literal(std::string_view literal) noexcept {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep", pos_);
    skip_whitespace();
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{': value = parse_object(); break;
      case '[': value = parse_array(); break;
      case '"': value = JsonValue::string(parse_string()); break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal", pos_);
        value = JsonValue::boolean(true);
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal", pos_);
        value = JsonValue::boolean(false);
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal", pos_);
        value = JsonValue::null();
        break;
      default: value = parse_number(); break;
    }
    --depth_;
    return value;
  }

  JsonValue parse_object() {
    ++pos_;  // '{'
    JsonValue object = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected a member name", pos_);
      std::string key = parse_string();
      skip_whitespace();
      if (peek() != ':') fail("expected ':'", pos_);
      ++pos_;
      object.set(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return object;
      }
      fail("expected ',' or '}'", pos_);
    }
  }

  JsonValue parse_array() {
    ++pos_;  // '['
    JsonValue array = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return array;
      }
      fail("expected ',' or ']'", pos_);
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("unescaped control character", pos_);
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;
      const char escape = peek();
      ++pos_;
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, parse_hex4()); break;
        default: fail("unknown escape", pos_ - 1);
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape", pos_ - 1);
      }
    }
    return value;
  }

  /// Encodes one BMP code point (surrogate pairs combined when both halves
  /// are present) as UTF-8.
  void append_utf8(std::string& out, unsigned code) {
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: a \uXXXX low surrogate must follow.
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
          text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned low = parse_hex4();
        if (low < 0xDC00 || low > 0xDFFF) fail("invalid surrogate pair", pos_);
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
      } else {
        fail("lone surrogate", pos_);
      }
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("lone surrogate", pos_);
    }
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value", start);
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    // The token holds only [-+.0-9eE], so strtod's hex, inf and whitespace
    // leniency cannot apply; it is kept for out-of-range literals, which
    // it reads as ±inf or 0 (1e999 is +inf) where std::from_chars fails.
    // safeopt-lint: allow(number-parse)
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number", start);
    return JsonValue::number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

void dump_value(const JsonValue& value, std::string& out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull: out += "null"; return;
    case JsonValue::Kind::kBool: out += value.as_bool() ? "true" : "false"; return;
    case JsonValue::Kind::kNumber: {
      const double number = value.as_number();
      if (!std::isfinite(number)) {
        // JSON has no inf/nan; null is the least-wrong spelling.
        out += "null";
        return;
      }
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", number);
      out += buffer;
      return;
    }
    case JsonValue::Kind::kString:
      out += '"';
      out += json_escape(value.as_string());
      out += '"';
      return;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_escape(key);
        out += "\":";
        dump_value(member, out);
      }
      out += '}';
      return;
    }
  }
}

[[noreturn]] void wrong_kind(JsonValue::Kind expected, JsonValue::Kind got) {
  throw Error(ErrorCategory::kInvalidInput,
              concat("json: expected ", kind_name(expected), ", got ",
                     kind_name(got)));
}

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) wrong_kind(Kind::kBool, kind_);
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) wrong_kind(Kind::kNumber, kind_);
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) wrong_kind(Kind::kString, kind_);
  return string_;
}

const JsonValue::Items& JsonValue::items() const {
  if (kind_ != Kind::kArray) wrong_kind(Kind::kArray, kind_);
  return items_;
}

const JsonValue::Members& JsonValue::members() const {
  if (kind_ != Kind::kObject) wrong_kind(Kind::kObject, kind_);
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::kObject) wrong_kind(Kind::kObject, kind_);
  members_.emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  if (kind_ != Kind::kArray) wrong_kind(Kind::kArray, kind_);
  items_.push_back(std::move(value));
}

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace safeopt
