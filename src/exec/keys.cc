#include "exec/keys.h"

#include <bit>
#include <type_traits>

namespace feisu {

KeyWords MakeKeyWords(std::vector<const ColumnVector*> cols, size_t n) {
  KeyWords keys;
  keys.cols = std::move(cols);
  keys.words.resize(keys.cols.size());
  keys.hashes.assign(n, kKeyHashSeed);
  for (size_t c = 0; c < keys.cols.size(); ++c) {
    const ColumnVector& col = *keys.cols[c];
    std::vector<uint64_t>& w = keys.words[c];
    w.resize(n, 0);
    switch (col.type()) {
      case DataType::kBool:
        for (size_t i = 0; i < n; ++i) w[i] = col.bools()[i] != 0 ? 1 : 0;
        break;
      case DataType::kInt64:
        for (size_t i = 0; i < n; ++i) {
          w[i] = static_cast<uint64_t>(col.ints()[i]);
        }
        break;
      case DataType::kDouble:
        for (size_t i = 0; i < n; ++i) {
          w[i] = std::bit_cast<uint64_t>(col.doubles()[i]);
        }
        break;
      case DataType::kString:
        for (size_t i = 0; i < n; ++i) {
          if (!col.IsNull(i)) w[i] = HashString(col.strings()[i]);
        }
        break;
    }
    for (size_t i = 0; i < n; ++i) {
      keys.hashes[i] =
          FoldKeyCell(keys.hashes[i], col.IsNull(i), col.type(), w[i]);
    }
  }
  return keys;
}

SortKey::SortKey(ExprColumn key, bool descending)
    : key_(std::move(key)),
      descending_(descending),
      has_nulls_(key_.get().NullCount() != 0) {
  const ColumnVector& col = key_.get();
  if (col.type() == DataType::kString) return;
  // NULL slots hold 0, so they convert to 0.0; Compare checks validity
  // first anyway.
  nums_.resize(col.size());
  VisitStorageType(col.type(), [&]<typename T>(std::type_identity<T>) {
    if constexpr (std::is_same_v<T, uint8_t>) {
      const std::vector<T>& v = col.storage<T>();
      for (size_t i = 0; i < v.size(); ++i) nums_[i] = v[i] != 0 ? 1.0 : 0.0;
    } else if constexpr (!std::is_same_v<T, std::string>) {
      const std::vector<T>& v = col.storage<T>();
      for (size_t i = 0; i < v.size(); ++i) {
        nums_[i] = static_cast<double>(v[i]);
      }
    }
  });
}

Result<std::vector<SortKey>> MakeSortKeys(
    const RecordBatch& input, const std::vector<OrderByItem>& order_by) {
  std::vector<SortKey> keys;
  keys.reserve(order_by.size());
  for (const auto& item : order_by) {
    FEISU_ASSIGN_OR_RETURN(ExprColumn col, EvaluateColumn(*item.expr, input));
    keys.emplace_back(std::move(col), item.descending);
  }
  return keys;
}

}  // namespace feisu
