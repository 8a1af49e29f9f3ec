// A small self-contained JSON value type: the attack service's wire format
// (docs/service.md), the attack-result schema (attack::to_json) and the
// bench baselines (BENCH_<harness>.json) all read and write it.
//
// Objects keep insertion order so dumps are deterministic, numbers are
// doubles (job ids and counters fit exactly up to 2^53, far beyond any real
// job table), and parse() accepts exactly the JSON this code dumps plus
// standard escapes. No third-party dependency, by constraint and by taste.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cl::util {

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Object, Array };

  Json() = default;

  static Json null() { return Json(); }
  static Json boolean(bool b) {
    Json j;
    j.type_ = Type::Bool;
    j.bool_ = b;
    return j;
  }
  static Json number(double v) {
    Json j;
    j.type_ = Type::Number;
    j.number_ = v;
    return j;
  }
  static Json number(std::uint64_t v) {
    return number(static_cast<double>(v));
  }
  static Json string(std::string s) {
    Json j;
    j.type_ = Type::String;
    j.string_ = std::move(s);
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::Object; }

  /// Object field access. set() replaces an existing key in place (keeping
  /// its position) or appends; find() returns nullptr when absent.
  Json& set(const std::string& key, Json value);
  const Json* find(const std::string& key) const;

  /// Typed lookups with fallbacks — the request-handling idiom. A present
  /// field of the wrong type falls back too (a malformed request must not
  /// crash the daemon).
  std::string str_or(const std::string& key, const std::string& fallback) const;
  double num_or(const std::string& key, double fallback) const;
  std::uint64_t u64_or(const std::string& key, std::uint64_t fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<std::pair<std::string, Json>>& items() const {
    return object_;
  }
  const std::vector<Json>& elements() const { return array_; }
  void push_back(Json value) { array_.push_back(std::move(value)); }

  /// Serialization, no newline appended. Objects and arrays nested fewer
  /// than `expand` levels deep put each member on a line of its own,
  /// indented two spaces per level; deeper ones stay on one line. The
  /// default, 0, is the single-line wire format.
  std::string dump(std::size_t expand = 0) const;

  /// Parse one JSON document; trailing non-whitespace is an error. On
  /// failure returns false and describes the problem in *error.
  static bool parse(const std::string& text, Json* out, std::string* error);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, Json>> object_;
  std::vector<Json> array_;
};

}  // namespace cl::util
