#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace cil::obs {

namespace {

[[noreturn]] void parse_fail(std::size_t pos, const std::string& what) {
  throw ContractViolation("JSON parse error at offset " + std::to_string(pos) +
                          ": " + what);
}

/// Recursive-descent parser over a string_view. Every resource a document
/// can consume — stack depth, decoded string bytes, total value count,
/// input size — is capped by ParseLimits, so a pathological or hostile
/// input fails with a ContractViolation instead of exhausting the process.
class Parser {
 public:
  Parser(std::string_view text, const ParseLimits& limits)
      : text_(text), limits_(limits) {}

  Json parse_document() {
    if (text_.size() > limits_.max_input_bytes)
      parse_fail(0, "document exceeds max_input_bytes");
    const Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) parse_fail(pos_, "trailing characters");
    return v;
  }

 private:

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) parse_fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      parse_fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > limits_.max_depth) parse_fail(pos_, "nesting too deep");
    if (++values_ > limits_.max_total_values)
      parse_fail(pos_, "document exceeds max_total_values");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        parse_fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        parse_fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        parse_fail(pos_, "bad literal");
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') parse_fail(pos_, "expected object key");
      const std::string key = parse_string();
      if (out.find(key) != nullptr)
        parse_fail(pos_, "duplicate object key '" + key + "'");
      skip_ws();
      expect(':');
      out[key] = parse_value(depth + 1);
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') parse_fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') parse_fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      return pos_ > before;
    };
    const std::size_t int_start = pos_;
    if (!digits()) parse_fail(pos_, "expected a number");
    if (text_[int_start] == '0' && pos_ > int_start + 1)
      parse_fail(int_start, "leading zero in number");  // RFC 8259
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) parse_fail(pos_, "expected digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) parse_fail(pos_, "expected exponent digits");
    }
    // The slice is a validated JSON number; strtod accepts a superset.
    const std::string slice(text_.substr(start, pos_ - start));
    const double d = std::strtod(slice.c_str(), nullptr);
    // "NaN"/"inf" never lex (the grammar is digits-only), but an oversized
    // exponent overflows to +-inf — reject it rather than store a value
    // dump() would later refuse to serialize.
    if (!std::isfinite(d)) parse_fail(start, "number out of range");
    return Json(d);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) parse_fail(pos_, "unterminated string");
      if (out.size() > limits_.max_string_bytes)
        parse_fail(pos_, "string exceeds max_string_bytes");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        parse_fail(pos_ - 1, "raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) parse_fail(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, parse_hex4()); break;
        default: parse_fail(pos_ - 1, "bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) parse_fail(pos_, "truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else parse_fail(pos_ - 1, "bad hex digit in \\u escape");
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    // Combine a surrogate pair when one follows; lone surrogates become
    // U+FFFD rather than invalid UTF-8.
    if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
        text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
      pos_ += 2;
      const unsigned lo = parse_hex4();
      if (lo >= 0xDC00 && lo <= 0xDFFF)
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      else
        cp = 0xFFFD;
    } else if (cp >= 0xD800 && cp <= 0xDFFF) {
      cp = 0xFFFD;
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string_view text_;
  ParseLimits limits_;
  std::size_t pos_ = 0;
  std::size_t values_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return parse(text, ParseLimits{}); }

Json Json::parse(std::string_view text, const ParseLimits& limits) {
  Parser p(text, limits);
  return p.parse_document();
}

bool Json::as_bool() const {
  CIL_CHECK_MSG(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  CIL_CHECK_MSG(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  // Range-check before the cast: converting a double outside int64 (1e300,
  // -1e19, 2^63) is undefined behaviour. -2^63 and 2^63 are exact doubles.
  constexpr double kTwo63 = 9223372036854775808.0;
  CIL_CHECK_MSG(std::isfinite(d) && d >= -kTwo63 && d < kTwo63,
                "Json: number is outside the int64 range");
  const auto i = static_cast<std::int64_t>(d);
  CIL_CHECK_MSG(static_cast<double>(i) == d, "Json: number is not integral");
  return i;
}

const std::string& Json::as_string() const {
  CIL_CHECK_MSG(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  CIL_CHECK_MSG(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  CIL_CHECK_MSG(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  CIL_CHECK_MSG(is_object(), "Json: operator[] on a non-object");
  return std::get<Object>(value_)[key];
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  CIL_CHECK_MSG(v != nullptr, "Json: missing key '" + key + "'");
  return *v;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<Object>(value_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

void Json::push_back(Json v) {
  if (is_null()) value_ = Array{};
  CIL_CHECK_MSG(is_array(), "Json: push_back on a non-array");
  std::get<Array>(value_).push_back(std::move(v));
}

const Json& Json::at(std::size_t i) const {
  const auto& arr = as_array();
  CIL_CHECK_MSG(i < arr.size(), "Json: array index out of range");
  return arr[i];
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  CIL_CHECK_MSG(false, "Json: size() on a scalar");
  return 0;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void dump_number(std::string& out, double d) {
  CIL_CHECK_MSG(std::isfinite(d), "Json: cannot serialize a non-finite number");
  // Integers (the common case: counters, steps) print without a fraction.
  if (d == std::floor(d) && std::abs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void dump_value(std::string& out, const Json& v) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    dump_number(out, v.as_number());
  } else if (v.is_string()) {
    out.push_back('"');
    out += json_escape(v.as_string());
    out.push_back('"');
  } else if (v.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const Json& e : v.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      dump_value(out, e);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, e] : v.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      out += json_escape(key);
      out += "\":";
      dump_value(out, e);
    }
    out.push_back('}');
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(out, *this);
  return out;
}

}  // namespace cil::obs
