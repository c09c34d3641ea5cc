#include "index/smart_index.h"

#include <cassert>

#include "common/hash.h"

namespace feisu {

SmartIndexKeyView::SmartIndexKeyView(int64_t block, std::string_view text)
    : SmartIndexKeyView(block, text, HashString(text)) {}

size_t SmartIndexKeyHash::operator()(const SmartIndexKeyView& key) const {
  return static_cast<size_t>(
      HashCombine(HashInt64(key.block_id), key.predicate_hash));
}

SmartIndex::SmartIndex(SmartIndexKey key, const BitVector& bits,
                       SimTime created_at)
    : key_(std::move(key)),
      compressed_bits_(bits.SerializeRle()),
      num_rows_(static_cast<uint32_t>(bits.size())),
      matched_rows_(static_cast<uint32_t>(bits.CountOnes())),
      created_at_(created_at) {}

BitVector SmartIndex::Bits() const {
  BitVector out;
  bool ok = BitVector::DeserializeRle(compressed_bits_, &out);
  assert(ok);
  (void)ok;
  return out;
}

size_t SmartIndex::MemoryBytes() const {
  return compressed_bits_.size() + key_.predicate.size() + 48;
}

}  // namespace feisu
