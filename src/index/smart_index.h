#ifndef FEISU_INDEX_SMART_INDEX_H_
#define FEISU_INDEX_SMART_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bit_vector.h"
#include "common/sim_clock.h"

namespace feisu {

/// A SmartIndex addresses the evaluation result of one query predicate on
/// one data block (paper §IV-C, Fig. 6).
struct SmartIndexKey {
  int64_t block_id = 0;
  std::string predicate;  ///< canonical conjunct rendering (PredicateKey)

  bool operator==(const SmartIndexKey& other) const {
    return block_id == other.block_id && predicate == other.predicate;
  }
};

/// A borrowed SmartIndex key with its predicate text already hashed: what
/// a cache probe takes, so a hit builds no string. The text must outlive
/// the view.
struct SmartIndexKeyView {
  int64_t block_id = 0;
  std::string_view predicate;
  uint64_t predicate_hash = 0;  ///< HashString(predicate)

  SmartIndexKeyView(int64_t block, std::string_view text,
                    uint64_t text_hash)
      : block_id(block), predicate(text), predicate_hash(text_hash) {}
  /// Hashes `text` (for callers that have not keyed it in advance).
  SmartIndexKeyView(int64_t block, std::string_view text);
  SmartIndexKeyView(const SmartIndexKey& key)  // NOLINT(google-explicit-constructor): borrows
      : SmartIndexKeyView(key.block_id, key.predicate) {}

  bool operator==(const SmartIndexKeyView& other) const {
    return block_id == other.block_id &&
           predicate_hash == other.predicate_hash &&
           predicate == other.predicate;
  }
};

/// HashCombine(HashInt64(block_id), HashString(predicate)), folding in the
/// view's stored text hash (an owned key converts to a view).
struct SmartIndexKeyHash {
  size_t operator()(const SmartIndexKeyView& key) const;
};

/// One cached predicate-evaluation result: a compressed 0-1 vector over the
/// block's rows plus the metadata of Fig. 6 (block id, predicate condition,
/// compression type — our RLE — and creation time for TTL management).
class SmartIndex {
 public:
  SmartIndex() = default;
  SmartIndex(SmartIndexKey key, const BitVector& bits, SimTime created_at);

  const SmartIndexKey& key() const { return key_; }
  SimTime created_at() const { return created_at_; }
  uint32_t num_rows() const { return num_rows_; }
  uint32_t matched_rows() const { return matched_rows_; }

  /// Decompresses the stored bitmap (charged by the caller at bitmap-combine
  /// cost, which is orders of magnitude below a scan).
  BitVector Bits() const;

  /// The stored RLE payload itself. The resolver combines indexes in this
  /// domain (RleAnd/RleOr) so conjunct composition scales with run count
  /// rather than row count, and the leaf ANDs the result into its
  /// selection without inflating it (BitVector::AndRle).
  const std::string& compressed_bits() const { return compressed_bits_; }

  /// Memory the index occupies in the leaf server's cache: compressed
  /// payload plus key/metadata overhead. This is what counts against the
  /// 512 MB default budget in the paper's experiments.
  size_t MemoryBytes() const;

 private:
  SmartIndexKey key_;
  std::string compressed_bits_;  // BitVector RLE payload
  uint32_t num_rows_ = 0;
  uint32_t matched_rows_ = 0;
  SimTime created_at_ = 0;
};

}  // namespace feisu

#endif  // FEISU_INDEX_SMART_INDEX_H_
