#include "digest.h"

#include <cstring>

#include "common/hash.h"

namespace perfbench {

using feisu::ColumnVector;
using feisu::DataType;
using feisu::HashCombine;

uint64_t AnswerHash(const feisu::RecordBatch& batch) {
  uint64_t h = HashCombine(batch.num_rows(), batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnVector& col = batch.column(c);
    h = HashCombine(h, static_cast<uint64_t>(col.type()));
    for (size_t r = 0; r < col.size(); ++r) {
      if (col.IsNull(r)) {
        h = HashCombine(h, 0x9E3779B97F4A7C15ULL);
        continue;
      }
      switch (col.type()) {
        case DataType::kBool:
          h = HashCombine(h, col.GetBool(r) ? 1 : 2);
          break;
        case DataType::kInt64:
          h = HashCombine(h, static_cast<uint64_t>(col.GetInt64(r)));
          break;
        case DataType::kDouble: {
          uint64_t bits = 0;
          double v = col.GetDouble(r);
          std::memcpy(&bits, &v, sizeof(bits));
          h = HashCombine(h, bits);
          break;
        }
        case DataType::kString:
          h = HashCombine(h, feisu::HashString(col.GetString(r)));
          break;
      }
    }
  }
  return h;
}

uint64_t DigestTerm(uint64_t item, uint64_t hash) {
  // splitmix64 finalizer over the pair, so equal answers to different
  // items do not cancel or collide in the sum.
  uint64_t z = hash ^ (item * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
