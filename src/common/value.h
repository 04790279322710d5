#ifndef SENTINELPP_COMMON_VALUE_H_
#define SENTINELPP_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/symbol.h"

namespace sentinel {

/// Microseconds since the Unix epoch (UTC, no leap seconds). All event
/// timestamps, durations and calendar arithmetic use this resolution.
using Time = int64_t;

/// A time span in microseconds.
using Duration = int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000 * kMicrosecond;
constexpr Duration kSecond = 1000 * kMillisecond;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;
constexpr Duration kDay = 24 * kHour;

/// \brief A dynamically-typed event/rule parameter value.
///
/// Events carry parameter lists (`user`, `session`, `role`, ...); rules read
/// them when evaluating conditions and executing actions. The monostate
/// alternative represents "absent". A name is always an interned Symbol:
/// there is no string alternative, and constructing a Value from a string
/// does not compile (a `const char*` would otherwise convert to `bool`).
class Value {
 public:
  Value() : v_() {}
  explicit Value(bool b) : v_(b) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(int i) : v_(static_cast<int64_t>(i)) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(Symbol s) : v_(s) {}
  Value(const char*) = delete;
  Value(std::string) = delete;

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_symbol() const { return std::holds_alternative<Symbol>(v_); }

  /// Typed accessors; return the fallback when the alternative differs.
  bool AsBool(bool fallback = false) const;
  int64_t AsInt(int64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const;
  Symbol AsSymbol() const;  // invalid symbol fallback

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.v_ == b.v_;
  }

 private:
  std::variant<std::monostate, bool, int64_t, double, Symbol> v_;
};

}  // namespace sentinel

#endif  // SENTINELPP_COMMON_VALUE_H_
