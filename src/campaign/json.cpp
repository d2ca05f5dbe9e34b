#include "campaign/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace satin::campaign {

namespace {

std::string position_prefix(const std::string& source, int line, int col) {
  return source + ":" + std::to_string(line) + ":" + std::to_string(col) +
         ": ";
}

}  // namespace

void JsonValue::fail(const std::string& message) const {
  throw JsonError(position_prefix(source_, line_, col_) + message);
}

bool JsonValue::as_bool(const std::string& where) const {
  if (kind_ != Kind::kBool) fail(where + ": expected true or false");
  return bool_;
}

double JsonValue::as_number(const std::string& where) const {
  if (kind_ != Kind::kNumber) fail(where + ": expected a number");
  return number_;
}

template <typename Int>
Int JsonValue::as_integer(const std::string& where,
                          const char* expected) const {
  const double v = as_number(where);
  Int out = 0;
  const char* last = string_.data() + string_.size();
  const auto [end, ec] = std::from_chars(string_.data(), last, out);
  if (ec == std::errc() && end == last) return out;
  if (ec == std::errc::result_out_of_range) {
    fail(where + ": " + string_ + " is out of range");
  }
  // A fraction, an exponent, or a '-' an unsigned read refuses: the
  // double holds every integer up to 2^53 exactly.
  if (std::nearbyint(v) != v || std::fabs(v) > 0x1p53 ||
      (std::is_unsigned_v<Int> && v < 0.0)) {
    fail(where + ": expected " + expected);
  }
  return static_cast<Int>(v);
}

std::int64_t JsonValue::as_int(const std::string& where) const {
  return as_integer<std::int64_t>(where, "an integer");
}

std::uint64_t JsonValue::as_uint(const std::string& where) const {
  return as_integer<std::uint64_t>(where, "a non-negative integer");
}

const std::string& JsonValue::as_string(const std::string& where) const {
  if (kind_ != Kind::kString) fail(where + ": expected a string");
  return string_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members(
    const std::string& where) const {
  if (kind_ != Kind::kObject) fail(where + ": expected an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::reject_unknown_keys(
    const std::string& where, const std::vector<std::string>& allowed) const {
  for (const auto& [key, value] : members(where)) {
    bool known = false;
    for (const std::string& a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      value.fail(where + ": unknown key \"" + key + "\"");
    }
  }
}

// Recursive-descent parser tracking line/col per token. Depth is bounded
// so a pathological input can't blow the stack.
class JsonParser {
 public:
  JsonParser(const std::string& text, const std::string& source)
      : text_(text), source_(source) {}

  JsonValue parse() {
    JsonValue root = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing content after the JSON document");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& message) {
    throw JsonError(position_prefix(source_, line_, col_) + message);
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (at_end() || peek() != c) {
      fail(std::string("expected '") + c + "'" +
           (at_end() ? " before end of input"
                     : std::string(", got '") + peek() + "'"));
    }
    advance();
  }

  JsonValue make_value(int line, int col) {
    JsonValue v;
    v.line_ = line;
    v.col_ = col;
    v.source_ = source_;
    return v;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    if (at_end()) fail("unexpected end of input");
    const int line = line_;
    const int col = col_;
    const char c = peek();
    if (c == '{') return parse_object(depth, line, col);
    if (c == '[') return parse_array(depth, line, col);
    if (c == '"') {
      JsonValue v = make_value(line, col);
      v.kind_ = JsonValue::Kind::kString;
      v.string_ = parse_string();
      return v;
    }
    if (c == 't' || c == 'f') {
      JsonValue v = make_value(line, col);
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = (c == 't');
      expect_keyword(c == 't' ? "true" : "false");
      return v;
    }
    if (c == 'n') {
      JsonValue v = make_value(line, col);
      expect_keyword("null");
      return v;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      JsonValue v = make_value(line, col);
      v.kind_ = JsonValue::Kind::kNumber;
      v.number_ = parse_number(v.string_);
      return v;
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  void expect_keyword(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (at_end() || peek() != *p) {
        fail(std::string("expected '") + word + "'");
      }
      advance();
    }
  }

  double parse_number(std::string& token) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') advance();
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      advance();
    }
    if (!at_end() && peek() == '.') {
      advance();
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        advance();
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!at_end() && (peek() == '+' || peek() == '-')) advance();
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        advance();
      }
    }
    token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      fail("malformed number '" + token + "'");
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = advance();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) fail("unterminated escape");
      const char e = advance();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (at_end()) fail("unterminated \\u escape");
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (spec keys are ASCII; this
          // keeps arbitrary names lossless without surrogate handling).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  JsonValue parse_object(int depth, int line, int col) {
    JsonValue v = make_value(line, col);
    v.kind_ = JsonValue::Kind::kObject;
    expect('{');
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      advance();
      return v;
    }
    for (;;) {
      skip_whitespace();
      if (at_end() || peek() != '"') fail("expected a quoted object key");
      const int key_line = line_;
      const int key_col = col_;
      const std::string key = parse_string();
      for (const auto& [existing, unused] : v.object_) {
        (void)unused;
        if (existing == key) {
          throw JsonError(position_prefix(source_, key_line, key_col) +
                          "duplicate key \"" + key + "\"");
        }
      }
      skip_whitespace();
      expect(':');
      v.object_.emplace_back(key, parse_value(depth + 1));
      skip_whitespace();
      if (at_end()) fail("unterminated object");
      if (peek() == ',') {
        advance();
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array(int depth, int line, int col) {
    JsonValue v = make_value(line, col);
    v.kind_ = JsonValue::Kind::kArray;
    expect('[');
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      advance();
      return v;
    }
    for (;;) {
      parse_value(depth + 1);  // checked, not kept: no spec key is a list
      skip_whitespace();
      if (at_end()) fail("unterminated array");
      if (peek() == ',') {
        advance();
        continue;
      }
      expect(']');
      return v;
    }
  }

  const std::string& text_;
  std::string source_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

JsonValue parse_json(const std::string& text, const std::string& source) {
  return JsonParser(text, source).parse();
}

}  // namespace satin::campaign
