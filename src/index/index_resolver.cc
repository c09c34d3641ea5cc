#include "index/index_resolver.h"

namespace feisu {

std::optional<BitVector> IndexResolver::Resolve(
    int64_t block_id, const KeyedPredicate& conjunct, SimTime now) {
  std::shared_ptr<const std::string> payload =
      ResolvePayload(block_id, conjunct, now);
  if (payload == nullptr) return std::nullopt;
  // The single inflation of the resolution: everything below combined in
  // the compressed domain.
  BitVector bits;
  if (!BitVector::DeserializeRle(*payload, &bits)) {
    ++stats_.misses;
    return std::nullopt;
  }
  stats_.bitmap_words += (bits.size() + 63) / 64;
  return bits;
}

bool IndexResolver::ResolveAnd(int64_t block_id,
                               const KeyedPredicate& conjunct, SimTime now,
                               BitVector* selection) {
  std::shared_ptr<const std::string> payload =
      ResolvePayload(block_id, conjunct, now);
  if (payload == nullptr) return false;
  if (!selection->AndRle(*payload)) {
    ++stats_.misses;
    return false;
  }
  stats_.bitmap_words += (selection->size() + 63) / 64;
  return true;
}

std::shared_ptr<const std::string> IndexResolver::ResolvePayload(
    int64_t block_id, const KeyedPredicate& conjunct, SimTime now) {
  std::shared_ptr<const std::string> payload =
      ResolveImpl(block_id, conjunct, now, /*top_level=*/true);
  if (payload == nullptr) ++stats_.misses;
  return payload;
}

std::shared_ptr<const std::string> IndexResolver::ResolveImpl(
    int64_t block_id, const KeyedPredicate& node, SimTime now,
    bool top_level) {
  // 1. Direct probe for this exact (sub)predicate. The top-level probe
  //    counts toward cache hit/miss statistics and refreshes LRU order;
  //    inner compositional probes use Peek. The hit hands back the stored
  //    compressed payload — no inflation here.
  const SmartIndexKeyView key(block_id, node.key, node.key_hash);
  std::shared_ptr<const SmartIndex> index =
      top_level ? cache_->Lookup(key, now) : cache_->Peek(key, now);
  if (index != nullptr) {
    if (top_level) {
      ++stats_.direct_hits;
    } else {
      ++stats_.composed_hits;
    }
    // Aliases the index's own ownership: the payload lives as long as the
    // handle does, even if a concurrent insert evicts the cache entry.
    const std::string* payload = &index->compressed_bits();
    return std::shared_ptr<const std::string>(std::move(index), payload);
  }

  // 2. Atoms resolve only by direct key. Negated predicates still reuse
  //    prior work (Fig. 7): whenever a leaf evaluates an atom it also
  //    materializes the negation's bitmap under the negated key, which is
  //    NULL-correct — bitwise NOT of the TRUE bitmap would wrongly select
  //    rows whose operand is NULL (UNKNOWN in three-valued logic).
  //
  // 3. AND/OR nodes: compose children (Kleene TRUE-set algebra: the TRUE
  //    set of a conjunction/disjunction is exactly the AND/OR of the
  //    children's TRUE sets). NOT has no safe bitmap composition and
  //    resolves via the materialized dual above. The merge runs over the
  //    children's RLE token streams, so its cost scales with run count.
  if (node.children.empty()) return nullptr;
  std::shared_ptr<const std::string> lhs =
      ResolveImpl(block_id, node.children[0], now, false);
  if (lhs == nullptr) return nullptr;
  std::shared_ptr<const std::string> rhs =
      ResolveImpl(block_id, node.children[1], now, false);
  if (rhs == nullptr) return nullptr;
  std::string combined;
  size_t tokens = 0;
  bool ok = node.expr->logical_op() == LogicalOp::kAnd
                ? BitVector::RleAnd(*lhs, *rhs, &combined, &tokens)
                : BitVector::RleOr(*lhs, *rhs, &combined, &tokens);
  if (!ok) return nullptr;
  stats_.rle_tokens += tokens;
  return std::make_shared<const std::string>(std::move(combined));
}

}  // namespace feisu
