// Minimal JSON value, parser and serializer.
//
// Used for the TFRecord shard index files (the paper's
// `mapping_shard_*.json`), testbed configuration and benchmark output. This
// is a deliberate subset: UTF-8 strings are passed through verbatim, numbers
// are doubles or int64, no comments, no trailing commas.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace emlio::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps keys sorted so serialization is deterministic.
using Object = std::map<std::string, Value>;

/// A JSON value: null, bool, int64, double, string, array or object.
class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : v_(i) {}
  Value(std::uint64_t i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member access; throws if not an object or key missing.
  const Value& at(const std::string& key) const;
  /// True if this is an object containing `key`.
  bool contains(const std::string& key) const;

  /// Serialize. `indent` < 0 gives compact output; >= 0 pretty-prints.
  std::string dump(int indent = -1) const;

 private:
  friend class Parser;
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> v_;
};

/// Parse a JSON document. Throws std::runtime_error with position info on
/// malformed input.
Value parse(std::string_view text);

/// Read and parse a JSON file.
Value parse_file(const std::string& path);

/// Serialize `v` to a file (pretty-printed).
void write_file(const std::string& path, const Value& v);

}  // namespace emlio::json
