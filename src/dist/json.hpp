// The one JSON reader of the dist layer: a small strict recursive-descent
// parser behind the JSONL record scanner, mtr_merge's aggregate recompute,
// the metrics.json parser, and mtr_inspect. Numbers keep their raw token so
// uint64 counters survive values a double round-trip would corrupt;
// anything outside the closed grammar our writers emit is rejected with an
// error naming the byte offset and the field being read.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace mtr::dist::json {

/// A parsed JSON value.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::size_t offset = 0;  // of the value's first byte in the document
  std::string text;  // raw number token, or decoded string
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> fields;

  const Value* find(std::string_view name) const {
    for (const auto& [k, v] : fields)
      if (k == name) return &v;
    return nullptr;
  }
};

/// Parses one complete JSON document; throws std::runtime_error with the
/// byte offset (and the object key being read, if any) on malformed input
/// or trailing bytes.
Value parse_document(std::string_view text);

// Typed field access over object Values; errors name the missing or
// mistyped field.
const Value& require(const Value& obj, std::string_view name);
std::uint64_t get_u64(const Value& obj, std::string_view name);
std::int64_t get_i64(const Value& obj, std::string_view name);
double get_f64(const Value& obj, std::string_view name);
std::string get_string(const Value& obj, std::string_view name);
bool get_bool(const Value& obj, std::string_view name);
const Value& get_array(const Value& obj, std::string_view name);
const Value& get_object(const Value& obj, std::string_view name);

/// The getter for T, so visitors can fill typed members by key.
template <class T>
T get(const Value& obj, std::string_view name) {
  if constexpr (std::is_same_v<T, std::string>) return get_string(obj, name);
  else if constexpr (std::is_same_v<T, bool>) return get_bool(obj, name);
  else if constexpr (std::is_same_v<T, double>) return get_f64(obj, name);
  else if constexpr (std::is_same_v<T, std::int64_t>) return get_i64(obj, name);
  else {
    static_assert(std::is_same_v<T, std::uint64_t>);
    return get_u64(obj, name);
  }
}

// Scalar conversions of a bare number Value (array elements).
std::uint64_t as_u64(const Value& v, std::string_view what);
std::int64_t as_i64(const Value& v, std::string_view what);
double as_f64(const Value& v, std::string_view what);

}  // namespace mtr::dist::json
