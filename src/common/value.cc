#include "common/value.h"

#include <sstream>

namespace sentinel {

bool Value::AsBool(bool fallback) const {
  if (const bool* b = std::get_if<bool>(&v_)) return *b;
  if (const int64_t* i = std::get_if<int64_t>(&v_)) return *i != 0;
  return fallback;
}

int64_t Value::AsInt(int64_t fallback) const {
  if (const int64_t* i = std::get_if<int64_t>(&v_)) return *i;
  if (const bool* b = std::get_if<bool>(&v_)) return *b ? 1 : 0;
  if (const double* d = std::get_if<double>(&v_)) {
    return static_cast<int64_t>(*d);
  }
  return fallback;
}

double Value::AsDouble(double fallback) const {
  if (const double* d = std::get_if<double>(&v_)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&v_)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

Symbol Value::AsSymbol() const {
  if (const Symbol* s = std::get_if<Symbol>(&v_)) return *s;
  return Symbol();
}

std::string Value::ToString() const {
  std::ostringstream os;
  if (is_null()) {
    os << "null";
  } else if (is_bool()) {
    os << (AsBool() ? "true" : "false");
  } else if (is_int()) {
    os << AsInt();
  } else if (is_double()) {
    os << AsDouble();
  } else {
    os << '@' << AsSymbol().id();
  }
  return os.str();
}

}  // namespace sentinel
