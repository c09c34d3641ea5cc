#ifndef FEISU_EXEC_KEYS_H_
#define FEISU_EXEC_KEYS_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "columnar/record_batch.h"
#include "expr/evaluator.h"
#include "sql/ast.h"

namespace feisu {

/// Typed keys shared by the operators: the hash-key kernel that GROUP BY
/// and the hash join both use, and the sort key and multi-key row order
/// that ORDER BY, TOP-N and the final GROUP BY order all use.

/// Seed of every key hash; a key-less row hashes to it.
inline constexpr uint64_t kKeyHashSeed = 0xCBF29CE484222325ULL;

/// Folds one key cell into a row hash: a NULL cell folds 0, a valid one
/// its type tag (`type + 1`, never 0) and then its word.
inline uint64_t FoldKeyCell(uint64_t h, bool is_null, DataType type,
                            uint64_t word) {
  if (is_null) return HashCombine(h, 0);
  return HashCombine(HashCombine(h, static_cast<uint64_t>(type) + 1), word);
}

/// Typed per-row view of a batch's key columns: one word per cell and one
/// combined hash per row. A word is the cell's bool as 0/1, its int64 bits,
/// its double bit pattern, or its string's content hash (0 for a NULL
/// string).
struct KeyWords {
  std::vector<const ColumnVector*> cols;
  std::vector<std::vector<uint64_t>> words;  ///< [col][row]
  std::vector<uint64_t> hashes;              ///< [row]
};

/// The one key kernel: words and hashes for `cols` over rows [0, n). `n`
/// is explicit so a key-less set still gets one hash (the seed) per row.
KeyWords MakeKeyWords(std::vector<const ColumnVector*> cols, size_t n);

/// Precomputed, type-specialized sort key over one column. Ordering
/// matches Value::Compare exactly — NULLs sort before everything, numeric
/// columns (bool/int64/double) convert to double and compare through
/// CompareNumbers (a strict weak order: NaN sorts last), strings
/// lexicographically — without constructing a Value per comparison.
class SortKey {
 public:
  SortKey(ExprColumn key, bool descending);

  /// Compares rows `a` and `b` ascending, ignoring `descending()`. Inline:
  /// it runs once per comparison of every sort.
  int Compare(uint32_t a, uint32_t b) const {
    const ColumnVector& col = key_.get();
    if (has_nulls_) {
      bool a_null = col.IsNull(a);
      bool b_null = col.IsNull(b);
      if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? -1 : 1);
    }
    if (col.type() == DataType::kString) {
      int cmp = col.GetString(a).compare(col.GetString(b));
      return (cmp > 0) - (cmp < 0);
    }
    return CompareNumbers(nums_[a], nums_[b]);
  }

  bool descending() const { return descending_; }

 private:
  ExprColumn key_;  ///< borrowed from the input batch for a column ref
  bool descending_;
  bool has_nulls_;
  std::vector<double> nums_;  ///< unused for string columns
};

/// One sort key per ORDER BY item, evaluated over `input`.
Result<std::vector<SortKey>> MakeSortKeys(
    const RecordBatch& input, const std::vector<OrderByItem>& order_by);

/// The multi-key row order: the first key on which rows `a` and `b` differ
/// decides, reversed for a descending key. Returns < 0, 0 or > 0.
inline int CompareRows(const std::vector<SortKey>& keys, uint32_t a,
                       uint32_t b) {
  for (const SortKey& key : keys) {
    int cmp = key.Compare(a, b);
    if (cmp != 0) return key.descending() ? -cmp : cmp;
  }
  return 0;
}

}  // namespace feisu

#endif  // FEISU_EXEC_KEYS_H_
