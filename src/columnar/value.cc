#include "columnar/value.h"

#include <sstream>

namespace feisu {

int Value::Compare(const Value& other) const {
  if (is_null_ && other.is_null_) return 0;
  if (is_null_) return -1;
  if (other.is_null_) return 1;
  if (type_ == DataType::kString || other.type_ == DataType::kString) {
    // String compares only against string; a type mismatch orders by type.
    if (type_ != other.type_) return type_ < other.type_ ? -1 : 1;
    return string_value().compare(other.string_value()) < 0
               ? -1
               : (string_value() == other.string_value() ? 0 : 1);
  }
  return CompareNumbers(AsDouble(), other.AsDouble());
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  std::ostringstream os;
  switch (type_) {
    case DataType::kBool:
      os << (bool_value() ? "TRUE" : "FALSE");
      break;
    case DataType::kInt64:
      os << int64_value();
      break;
    case DataType::kDouble:
      os << double_value();
      break;
    case DataType::kString:
      os << '\'' << string_value() << '\'';
      break;
  }
  return os.str();
}

}  // namespace feisu
