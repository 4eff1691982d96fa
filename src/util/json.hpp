// Minimal from-scratch JSON (RFC 8259) value tree, writer, and validating
// parser — the serialization format of the obs/sweep layer.
//
// Design constraints:
//   - Integers are kept exact: 64-bit counters (IspMetrics et al.) must
//     round-trip without drifting through a double.
//   - Object keys preserve insertion order so emitted files diff cleanly
//     run-over-run.
//   - No external dependencies; the parser exists so tests and the CI smoke
//     step can validate what the writer (or a human) produced.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace zmail::json {

class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,     // std::int64_t
    kUint,    // std::uint64_t
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Value() noexcept : kind_(Kind::kNull) {}
  Value(bool b) noexcept : kind_(Kind::kBool), bool_(b) {}
  Value(int v) noexcept : kind_(Kind::kInt), int_(v) {}
  Value(long v) noexcept : kind_(Kind::kInt), int_(v) {}
  Value(long long v) noexcept : kind_(Kind::kInt), int_(v) {}
  Value(unsigned v) noexcept : kind_(Kind::kUint), uint_(v) {}
  Value(unsigned long v) noexcept : kind_(Kind::kUint), uint_(v) {}
  Value(unsigned long long v) noexcept : kind_(Kind::kUint), uint_(v) {}
  Value(double v) noexcept : kind_(Kind::kDouble), double_(v) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_number() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }

  // Typed readers; each asserts the kind matches (as_double accepts any
  // numeric kind).
  bool as_bool() const;
  std::int64_t as_int64() const;
  std::uint64_t as_uint64() const;
  double as_double() const;
  const std::string& as_string() const;

  // --- Arrays ---------------------------------------------------------------
  // push_back on a null value turns it into an array first.
  void push_back(Value v);
  std::size_t size() const noexcept;  // array/object element count
  const Value& at(std::size_t i) const;

  // --- Objects --------------------------------------------------------------
  // operator[] on a null value turns it into an object first; the key is
  // created (as null) on first use.  Insertion order is preserved.
  Value& operator[](const std::string& key);
  // nullptr when absent.
  const Value* find(const std::string& key) const noexcept;
  const std::vector<std::pair<std::string, Value>>& items() const;

  // Serializes; indent <= 0 emits the compact single-line form.
  std::string dump(int indent = 2) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

// Parses a complete JSON document (trailing whitespace allowed, nothing
// else).  Returns nullopt and fills `error` with "offset N: message" on the
// first problem.  Numbers with a '.', exponent, or out-of-range magnitude
// parse as kDouble; otherwise kInt (negative) / kUint.
std::optional<Value> parse(const std::string& text,
                           std::string* error = nullptr);

// Convenience: the compact dump(0) of v to a file, newline-terminated;
// false (and `error`) on I/O failure.
bool write_file(const std::string& path, const Value& v,
                std::string* error = nullptr);

}  // namespace zmail::json
