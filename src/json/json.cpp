#include "json/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace emlio::json {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not ") + want);
}

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void format_double(std::string& out, double d) {
  if (std::isfinite(d)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  } else {
    out += "null";  // JSON has no inf/nan
  }
}

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(v_);
}
std::int64_t Value::as_int() const {
  if (is_int()) return std::get<std::int64_t>(v_);
  if (is_double()) return static_cast<std::int64_t>(std::get<double>(v_));
  type_error("int");
}
double Value::as_double() const {
  if (is_double()) return std::get<double>(v_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  type_error("double");
}
const std::string& Value::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(v_);
}
const Array& Value::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(v_);
}
Array& Value::as_array() {
  if (!is_array()) type_error("array");
  return std::get<Array>(v_);
}
const Object& Value::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<Object>(v_);
}
Object& Value::as_object() {
  if (!is_object()) type_error("object");
  return std::get<Object>(v_);
}

const Value& Value::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw std::runtime_error("json: missing key '" + key + "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().count(key) != 0;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent >= 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(v_) ? "true" : "false";
  } else if (is_int()) {
    out += std::to_string(std::get<std::int64_t>(v_));
  } else if (is_double()) {
    format_double(out, std::get<double>(v_));
  } else if (is_string()) {
    escape_string(out, std::get<std::string>(v_));
  } else if (is_array()) {
    const auto& arr = std::get<Array>(v_);
    out += '[';
    bool first = true;
    for (const auto& el : arr) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      el.dump_to(out, indent, depth + 1);
    }
    if (!arr.empty()) newline(depth);
    out += ']';
  } else {
    const auto& obj = std::get<Object>(v_);
    out += '{';
    bool first = true;
    for (const auto& [k, val] : obj) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      escape_string(out, k);
      out += indent >= 0 ? ": " : ":";
      val.dump_to(out, indent, depth + 1);
    }
    if (!obj.empty()) newline(depth);
    out += '}';
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------- parsing

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  /// Recursion bound: each nesting level costs one parse_value frame, so an
  /// adversarial "[[[[..." document would otherwise overflow the stack. 256
  /// is far beyond any shard index / config / bench output we emit.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& msg) {
    throw std::runtime_error("json parse error at offset " + std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value(parse_string());
      case 't': expect_literal("true"); return Value(true);
      case 'f': expect_literal("false"); return Value(false);
      case 'n': expect_literal("null"); return Value(nullptr);
      default: return parse_number();
    }
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) fail("invalid literal");
    pos_ += lit.size();
  }

  Value parse_object(int depth) {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value(depth + 1);
      skip_ws();
      char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Value(std::move(obj));
  }

  Value parse_array(int depth) {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        char e = next();
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
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs passed through raw).
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
          default: fail("invalid escape character");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string tok(text_.substr(start, pos_ - start));
    if (tok.empty() || tok == "-") fail("invalid number");
    try {
      if (is_double) return Value(std::stod(tok));
      return Value(static_cast<std::int64_t>(std::stoll(tok)));
    } catch (const std::exception&) {
      fail("number out of range: " + tok);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("json: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

void write_file(const std::string& path, const Value& v) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("json: cannot write " + path);
  out << v.dump(2) << '\n';
}

}  // namespace emlio::json
