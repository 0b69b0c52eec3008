#include "storage/value.h"

#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace qp::storage {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "?";
}

DataType Value::type() const {
  switch (data_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kInt;
    case 2:
      return DataType::kDouble;
    default:
      return DataType::kString;
  }
}

double Value::ToNumeric() const {
  if (is_int()) return static_cast<double>(as_int());
  return as_double();
}

int Value::Compare(const Value& other) const {
  const bool a_null = is_null(), b_null = other.is_null();
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;
  }
  if (is_numeric() && other.is_numeric()) {
    const double a = ToNumeric(), b = other.ToNumeric();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (is_string() && other.is_string()) {
    return as_string().compare(other.as_string());
  }
  // Incomparable types: order numerics before strings.
  return is_numeric() ? -1 : 1;
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_numeric()) {
    const double d = ToNumeric();
    // Integral doubles hash like the corresponding int for ==-consistency.
    return std::hash<double>{}(d);
  }
  return std::hash<std::string>{}(as_string());
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return std::to_string(as_int());
    case DataType::kDouble:
      return FormatDouble(as_double(), 10);
    case DataType::kString:
      return as_string();
  }
  return "?";
}

Result<Value> Value::Parse(const std::string& text, DataType type) {
  if (text == "NULL") return Value::Null();
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt: {
      char* end = nullptr;
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::ParseError("not an integer: '" + text + "'");
      }
      const Value value(static_cast<int64_t>(v));
      return value;
    }
    case DataType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') {
        return Status::ParseError("not a double: '" + text + "'");
      }
      const Value value(v);
      return value;
    }
    case DataType::kString:
      return Value(text);
  }
  return Status::Internal("unknown data type");
}

}  // namespace qp::storage
