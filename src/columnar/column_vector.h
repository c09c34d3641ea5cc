#ifndef FEISU_COLUMNAR_COLUMN_VECTOR_H_
#define FEISU_COLUMNAR_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "columnar/data_type.h"
#include "columnar/value.h"

namespace feisu {

/// An in-memory, type-tagged column of values with a validity bitmap.
/// This is the unit Feisu's vectorized operators work on.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return validity_.size(); }

  bool IsNull(size_t i) const { return !validity_.Get(i); }
  size_t NullCount() const { return size() - validity_.CountOnes(); }

  /// Typed accessors; the row must be non-NULL and of the vector's type.
  bool GetBool(size_t i) const { return bools_[i]; }
  int64_t GetInt64(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  const std::string& GetString(size_t i) const { return strings_[i]; }

  /// Boxed accessor (NULL-aware), used by row-oriented sinks.
  Value GetValue(size_t i) const;

  void AppendNull();
  void AppendBool(bool v);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  /// Appends a boxed value; NULLs always accepted, otherwise the value type
  /// must match (int64 is widened into a double column).
  void AppendValue(const Value& v);

  void Reserve(size_t n);

  /// New vector keeping only rows whose bit is set in `selection`
  /// (selection.size() == size()).
  ColumnVector Filter(const BitVector& selection) const;

  /// New vector with rows permuted/subset by `indices`.
  ColumnVector Take(const std::vector<uint32_t>& indices) const;

  /// Like Take, but a negative index produces a NULL row — the shape
  /// outer-join padding needs when gathering both sides from row lists.
  ColumnVector GatherOrNull(const std::vector<int64_t>& indices) const;

  /// Approximate payload bytes (for cost accounting).
  size_t ByteSize() const;

  /// Raw storage access for encoders / vectorized kernels.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const BitVector& validity() const { return validity_; }

  /// Mutable storage for kernels that update cells in place (the
  /// aggregation state). A NULL cell given a value must be SetValid.
  std::vector<int64_t>& mutable_ints() { return ints_; }
  std::vector<double>& mutable_doubles() { return doubles_; }
  std::vector<std::string>& mutable_strings() { return strings_; }
  std::vector<uint8_t>& mutable_bools() { return bools_; }
  void SetValid(size_t i) { validity_.Set(i, true); }

 private:
  DataType type_;
  BitVector validity_;  // 1 = valid, 0 = NULL
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace feisu

#endif  // FEISU_COLUMNAR_COLUMN_VECTOR_H_
