#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace acclaim::util {

// ---------------------------------------------------------------- JsonObject

bool JsonObject::contains(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) {
      return true;
    }
  }
  return false;
}

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      return v;
    }
  }
  entries_.emplace_back(key, Json());
  return entries_.back().second;
}

const Json& JsonObject::at(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) {
      return v;
    }
  }
  throw NotFoundError("JSON object has no key '" + key + "'");
}

Json& JsonObject::at(const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      return v;
    }
  }
  throw NotFoundError("JSON object has no key '" + key + "'");
}

// ---------------------------------------------------------------- accessors

bool Json::as_bool() const {
  if (!is_bool()) {
    throw InvalidArgument("JSON value is not a bool");
  }
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) {
    throw InvalidArgument("JSON value is not a number");
  }
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  const auto i = static_cast<std::int64_t>(std::llround(d));
  if (std::abs(d - static_cast<double>(i)) > 1e-9) {
    throw InvalidArgument("JSON number is not integral");
  }
  return i;
}

const std::string& Json::as_string() const {
  if (!is_string()) {
    throw InvalidArgument("JSON value is not a string");
  }
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  if (!is_array()) {
    throw InvalidArgument("JSON value is not an array");
  }
  return std::get<JsonArray>(value_);
}

JsonArray& Json::as_array() {
  if (!is_array()) {
    throw InvalidArgument("JSON value is not an array");
  }
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) {
    throw InvalidArgument("JSON value is not an object");
  }
  return std::get<JsonObject>(value_);
}

JsonObject& Json::as_object() {
  if (!is_object()) {
    throw InvalidArgument("JSON value is not an object");
  }
  return std::get<JsonObject>(value_);
}

Json& Json::operator[](const std::string& key) { return as_object()[key]; }

const Json& Json::at(const std::string& key) const { return as_object().at(key); }

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().contains(key);
}

void Json::push_back(Json v) { as_array().push_back(std::move(v)); }

bool Json::operator==(const Json& other) const {
  if (value_.index() != other.value_.index()) {
    return false;
  }
  if (is_null()) {
    return true;
  }
  if (is_bool()) {
    return as_bool() == other.as_bool();
  }
  if (is_number()) {
    return as_number() == other.as_number();
  }
  if (is_string()) {
    return as_string() == other.as_string();
  }
  if (is_array()) {
    const auto& a = as_array();
    const auto& b = other.as_array();
    if (a.size() != b.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) {
        return false;
      }
    }
    return true;
  }
  const auto& a = as_object();
  const auto& b = other.as_object();
  if (a.size() != b.size()) {
    return false;
  }
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    if (ita->first != itb->first || !(ita->second == itb->second)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- serializer

namespace {

void escape_to(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_to(double d, std::string& out) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  // Recursive lambda over the variant.
  auto emit = [&](auto&& self, const Json& j, int depth) -> void {
    const std::string pad = indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ') : "";
    const std::string pad_in =
        indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ') : "";
    const char* nl = indent > 0 ? "\n" : "";
    if (j.is_null()) {
      out += "null";
    } else if (j.is_bool()) {
      out += j.as_bool() ? "true" : "false";
    } else if (j.is_number()) {
      number_to(j.as_number(), out);
    } else if (j.is_string()) {
      escape_to(j.as_string(), out);
    } else if (j.is_array()) {
      const auto& a = j.as_array();
      if (a.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < a.size(); ++i) {
        out += pad_in;
        self(self, a[i], depth + 1);
        if (i + 1 < a.size()) {
          out += ',';
        }
        out += nl;
      }
      out += pad;
      out += ']';
    } else {
      const auto& o = j.as_object();
      if (o.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      out += nl;
      std::size_t i = 0;
      for (const auto& [k, v] : o) {
        out += pad_in;
        escape_to(k, out);
        out += indent > 0 ? ": " : ":";
        self(self, v, depth + 1);
        if (++i < o.size()) {
          out += ',';
        }
        out += nl;
      }
      out += pad;
      out += '}';
    }
  };
  emit(emit, *this, 0);
  return out;
}

// ------------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content after JSON document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const { throw ParseError(msg, line_, col_); }

  char peek() const {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (advance() != c) {
      fail(std::string("expected '") + c + "'");
    }
  }

  void expect_word(const char* w) {
    for (const char* p = w; *p; ++p) {
      if (pos_ >= text_.size() || advance() != *p) {
        fail(std::string("expected literal '") + w + "'");
      }
    }
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json(nullptr);
      default:
        if (c != '-' && !std::isdigit(static_cast<unsigned char>(c))) {
          fail(std::string("unexpected character '") + c + "'");
        }
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject o;
    skip_ws();
    if (peek() == '}') {
      advance();
      return Json(std::move(o));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      o[key] = parse_value();
      skip_ws();
      const char c = advance();
      if (c == '}') {
        break;
      }
      if (c != ',') {
        fail("expected ',' or '}' in object");
      }
    }
    return Json(std::move(o));
  }

  Json parse_array() {
    expect('[');
    JsonArray a;
    skip_ws();
    if (peek() == ']') {
      advance();
      return Json(std::move(a));
    }
    while (true) {
      a.push_back(parse_value());
      skip_ws();
      const char c = advance();
      if (c == ']') {
        break;
      }
      if (c != ',') {
        fail("expected ',' or ']' in array");
      }
    }
    return Json(std::move(a));
  }

  std::string parse_string() {
    expect('"');
    std::string s;
    while (true) {
      const char c = advance();
      if (c == '"') {
        break;
      }
      if (c == '\\') {
        const char e = advance();
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'n': s += '\n'; break;
          case 't': s += '\t'; break;
          case 'r': s += '\r'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = advance();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("invalid \\u escape");
              }
            }
            // Encode the BMP code point as UTF-8.
            if (code < 0x80) {
              s += static_cast<char>(code);
            } else if (code < 0x800) {
              s += static_cast<char>(0xC0 | (code >> 6));
              s += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (code >> 12));
              s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("invalid escape sequence");
        }
      } else {
        s += c;
      }
    }
    return s;
  }

  /// True when the next character is `c` (false at the end of input).
  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  /// Consumes a run of digits; false if there was none.
  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      advance();
    }
    return pos_ > from;
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?, checked
  // in the one pass that scans the token. The token then runs over any
  // further number characters, so a bad one ("01", "1.", "-.5") is named
  // whole in the error.
  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      advance();
    }
    bool ok = true;
    if (at('0')) {
      advance();  // a leading zero stands alone
    } else {
      ok = digits();
    }
    if (ok && at('.')) {
      advance();
      ok = digits();
    }
    if (ok && (at('e') || at('E'))) {
      advance();
      if (at('+') || at('-')) {
        advance();
      }
      ok = digits();
    }
    while (pos_ < text_.size() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                                   text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                                   text_[pos_] == '+' || text_[pos_] == '-')) {
      advance();
      ok = false;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (!ok) {
      fail("invalid number '" + token + "'");
    }
    try {
      std::size_t consumed = 0;
      const double d = std::stod(token, &consumed);
      if (consumed != token.size()) {
        fail("invalid number '" + token + "'");
      }
      return Json(d);
      // fail() throws ParseError.
    } catch (const std::logic_error&) {
      fail("invalid number '" + token + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

Json Json::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open JSON file '" + path + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

void Json::dump_file(const std::string& path, int indent) const {
  std::ofstream out(path);
  if (!out) {
    throw IoError("cannot write JSON file '" + path + "'");
  }
  out << dump(indent) << '\n';
}

}  // namespace acclaim::util
