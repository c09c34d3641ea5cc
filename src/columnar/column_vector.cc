#include "columnar/column_vector.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace feisu {

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(GetBool(i));
    case DataType::kInt64:
      return Value::Int64(GetInt64(i));
    case DataType::kDouble:
      return Value::Double(GetDouble(i));
    case DataType::kString:
      return Value::String(GetString(i));
  }
  return Value::Null();
}

void ColumnVector::AppendNull() {
  validity_.PushBack(false);
  VisitStorageType(type_, [this]<typename T>(std::type_identity<T>) {
    storage<T>().emplace_back();  // the zero value
  });
}

void ColumnVector::AppendBool(bool v) {
  assert(type_ == DataType::kBool);
  validity_.PushBack(true);
  bools_.push_back(v ? 1 : 0);
}

void ColumnVector::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64);
  validity_.PushBack(true);
  ints_.push_back(v);
}

void ColumnVector::AppendDouble(double v) {
  assert(type_ == DataType::kDouble);
  validity_.PushBack(true);
  doubles_.push_back(v);
}

void ColumnVector::AppendString(std::string v) {
  assert(type_ == DataType::kString);
  validity_.PushBack(true);
  strings_.push_back(std::move(v));
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kBool:
      AppendBool(v.bool_value());
      return;
    case DataType::kInt64:
      AppendInt64(v.int64_value());
      return;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      return;
    case DataType::kString:
      AppendString(v.string_value());
      return;
  }
}

void ColumnVector::Reserve(size_t n) {
  VisitStorageType(type_, [this, n]<typename T>(std::type_identity<T>) {
    storage<T>().reserve(n);
  });
}

void ColumnVector::Append(const ColumnVector& other) {
  assert(other.type_ == type_);
  VisitStorageType(type_, [&]<typename T>(std::type_identity<T>) {
    const std::vector<T>& src = other.storage<T>();
    AppendBulk<T>(other.validity_, [&src](T* rows) {
      std::copy(src.begin(), src.end(), rows);
    });
  });
}

ColumnVector ColumnVector::Filter(const BitVector& selection) const {
  assert(selection.size() == size());
  ColumnVector out(type_);
  VisitStorageType(type_, [&]<typename T>(std::type_identity<T>) {
    const std::vector<T>& src = storage<T>();
    out.AppendBulk<T>(BitVector::Gather(validity_, selection),
                      [&](T* rows) {
                        if (selection.AllOnes()) {
                          std::copy(src.begin(), src.end(), rows);
                          return;
                        }
                        size_t k = 0;
                        selection.ForEachSetBit(
                            [&](size_t i) { rows[k++] = src[i]; });
                      });
  });
  return out;
}

namespace {

/// Take and GatherOrNull: output row k is row indices[k], and a negative
/// index (outer-join padding) is a NULL row.
template <typename Index>
ColumnVector GatherRows(const ColumnVector& col,
                        const std::vector<Index>& indices) {
  auto padding = [](Index i) { return static_cast<int64_t>(i) < 0; };
  const size_t n = indices.size();
  BitVector validity(n, true);
  if (std::is_signed_v<Index> || !col.validity().AllOnes()) {
    std::vector<uint64_t> words((n + 63) / 64, 0);
    for (size_t k = 0; k < n; ++k) {
      const bool valid = !padding(indices[k]) &&
                         !col.IsNull(static_cast<size_t>(indices[k]));
      words[k >> 6] |= static_cast<uint64_t>(valid) << (k & 63);
    }
    validity = BitVector::FromWords(std::move(words), n);
  }
  ColumnVector out(col.type());
  VisitStorageType(col.type(), [&]<typename T>(std::type_identity<T>) {
    const std::vector<T>& src = col.storage<T>();
    out.AppendBulk<T>(std::move(validity), [&](T* rows) {
      for (size_t k = 0; k < n; ++k) {
        if (padding(indices[k])) continue;
        assert(static_cast<size_t>(indices[k]) < col.size());
        rows[k] = src[static_cast<size_t>(indices[k])];
      }
    });
  });
  return out;
}

}  // namespace

ColumnVector ColumnVector::Take(const std::vector<uint32_t>& indices) const {
  return GatherRows(*this, indices);
}

ColumnVector ColumnVector::GatherOrNull(
    const std::vector<int64_t>& indices) const {
  return GatherRows(*this, indices);
}

size_t ColumnVector::ByteSize() const {
  switch (type_) {
    case DataType::kBool:
      return bools_.size();
    case DataType::kInt64:
      return ints_.size() * sizeof(int64_t);
    case DataType::kDouble:
      return doubles_.size() * sizeof(double);
    case DataType::kString: {
      size_t bytes = 0;
      for (const auto& s : strings_) bytes += s.size() + sizeof(uint32_t);
      return bytes;
    }
  }
  return 0;
}

}  // namespace feisu
