#ifndef FEISU_COLUMNAR_COLUMN_VECTOR_H_
#define FEISU_COLUMNAR_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bit_vector.h"
#include "columnar/data_type.h"
#include "columnar/value.h"

namespace feisu {

/// Calls `fn(std::type_identity<T>{})` with the C++ storage type of
/// `type`: uint8_t for BOOL, int64_t, double, std::string.
template <typename Fn>
decltype(auto) VisitStorageType(DataType type, Fn&& fn) {
  switch (type) {
    case DataType::kBool:
      return fn(std::type_identity<uint8_t>{});
    case DataType::kInt64:
      return fn(std::type_identity<int64_t>{});
    case DataType::kDouble:
      return fn(std::type_identity<double>{});
    case DataType::kString:
      break;
  }
  return fn(std::type_identity<std::string>{});
}

/// An in-memory, type-tagged column of values with a validity bitmap.
/// This is the unit Feisu's vectorized operators work on.
///
/// Typed storage holds one slot per row, NULL rows included; a NULL slot
/// always holds the type's zero value (0, 0.0, false or ""), so kernels
/// may read every slot without a validity check and encoders see the same
/// bytes whichever path built the column.
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

  /// The bulk-materialization kernel every decoder, Filter, Take and Append
  /// goes through. Appends `validity.size()` rows: the typed storage
  /// (`T`, see VisitStorageType) grows once, `fill(T* rows)` writes the
  /// new rows by index (what it leaves in a NULL row does not matter), and
  /// every NULL slot is then reset to the type's zero value.
  template <typename T, typename Fill>
  void AppendBulk(BitVector validity, const Fill& fill) {
    std::vector<T>& data = storage<T>();
    const size_t offset = data.size();
    data.resize(offset + validity.size());
    T* rows = data.data() + offset;
    fill(rows);
    validity.ForEachClearBit([rows](size_t i) { rows[i] = T{}; });
    if (validity_.empty()) {
      validity_ = std::move(validity);
    } else {
      validity_.Append(validity);
    }
  }

  /// Appends every row of `other` (same type).
  void Append(const ColumnVector& other);

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

  /// Typed storage by storage type (see VisitStorageType). The mutable
  /// form serves kernels that update cells in place (the aggregation
  /// state): a NULL cell given a value must be SetValid.
  template <typename T>
  const std::vector<T>& storage() const {
    if constexpr (std::is_same_v<T, uint8_t>) {
      return bools_;
    } else if constexpr (std::is_same_v<T, int64_t>) {
      return ints_;
    } else if constexpr (std::is_same_v<T, double>) {
      return doubles_;
    } else {
      static_assert(std::is_same_v<T, std::string>);
      return strings_;
    }
  }
  template <typename T>
  std::vector<T>& storage() {
    return const_cast<std::vector<T>&>(
        static_cast<const ColumnVector*>(this)->storage<T>());
  }
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
