#ifndef FEISU_COLUMNAR_VALUE_H_
#define FEISU_COLUMNAR_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "columnar/data_type.h"

namespace feisu {

/// Comparison operators. Every comparison site in the engine decides
/// `a OP b` through CompareNumbers/Value::Compare and CompareOpHolds below,
/// so the evaluator, the compressed-domain kernels, zone maps, constant
/// folding and sorting all agree.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

/// The engine's one numeric order: IEEE order, except that NaN equals NaN
/// and sorts after every other number, so the order is total (-0.0 still
/// equals +0.0). Returns <0, 0, >0.
inline int CompareNumbers(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  // At least one side is NaN: NaN == NaN, NaN > any number.
  return static_cast<int>(a != a) - static_cast<int>(b != b);
}

/// Whether `a OP b` holds given the three-way result `cmp` of comparing a
/// with b. kContains is not an order comparison and never holds here.
inline bool CompareOpHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    case CompareOp::kContains:
      break;
  }
  return false;
}

/// A single (possibly NULL) scalar value. Used for literals in expressions,
/// block min/max statistics and row-wise ingestion.
class Value {
 public:
  /// NULL of unspecified type.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(DataType::kBool, v); }
  static Value Int64(int64_t v) { return Value(DataType::kInt64, v); }
  static Value Double(double v) { return Value(DataType::kDouble, v); }
  static Value String(std::string v) {
    return Value(DataType::kString, std::move(v));
  }

  bool is_null() const { return is_null_; }
  DataType type() const { return type_; }

  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int64_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    return std::get<std::string>(data_);
  }

  /// Numeric view: int64 and double compare/evaluate in a common domain.
  double AsDouble() const {
    if (type_ == DataType::kInt64) return static_cast<double>(int64_value());
    if (type_ == DataType::kBool) return bool_value() ? 1.0 : 0.0;
    return double_value();
  }

  bool is_numeric() const {
    return !is_null_ &&
           (type_ == DataType::kInt64 || type_ == DataType::kDouble ||
            type_ == DataType::kBool);
  }

  /// Total ordering: NULL sorts before everything; numerics (bool, int64,
  /// double) cross-compare as doubles through CompareNumbers; strings
  /// compare by content, and against a non-string order by type tag.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }

  /// SQL-ish rendering: NULL, 42, 3.5, 'abc', TRUE.
  std::string ToString() const;

 private:
  template <typename T>
  Value(DataType type, T v) : is_null_(false), type_(type), data_(std::move(v)) {}

  bool is_null_ = true;
  DataType type_ = DataType::kInt64;
  std::variant<bool, int64_t, double, std::string> data_;
};

}  // namespace feisu

#endif  // FEISU_COLUMNAR_VALUE_H_
