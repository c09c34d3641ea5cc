#ifndef FEISU_INDEX_INDEX_RESOLVER_H_
#define FEISU_INDEX_INDEX_RESOLVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "expr/normalize.h"
#include "index/index_cache.h"

namespace feisu {

struct ResolverStats {
  uint64_t direct_hits = 0;     ///< whole conjunct found in the cache
  uint64_t composed_hits = 0;   ///< derived via RLE-domain bitmap algebra
  uint64_t misses = 0;          ///< predicate had to be evaluated
  uint64_t bitmap_words = 0;    ///< selection words each resolved bitmap ANDs
  uint64_t rle_tokens = 0;      ///< compressed tokens streamed by combines

  uint64_t TotalHits() const { return direct_hits + composed_hits; }

  ResolverStats& operator+=(const ResolverStats& other) {
    direct_hits += other.direct_hits;
    composed_hits += other.composed_hits;
    misses += other.misses;
    bitmap_words += other.bitmap_words;
    rle_tokens += other.rle_tokens;
    return *this;
  }
};

/// Resolves a (block, conjunct) pair to a row bitmap using only cached
/// SmartIndices and bitmap algebra — the plan-rewriting step of paper
/// Fig. 7. Resolution tries, in order:
///
///  1. a direct cache hit for the conjunct's canonical key — negated
///     predicates hit here too, because evaluating an atom materializes
///     its negation's bitmap under the negated key (`!(c2 > 5)` finds the
///     `c2 <= 5` entry built when `c2 > 5` was evaluated);
///  2. for OR / AND nodes, recursive resolution of the children combined
///     with bit-OR / bit-AND (sound in Kleene three-valued logic; bit-NOT
///     is not, which is why negation uses materialized duals instead).
///
/// Composition runs entirely in the RLE domain (paper §IV-C): children
/// resolve to compressed payloads, AND/OR merge the token streams
/// (BitVector::RleAnd/RleOr) at a cost proportional to run count, and the
/// result is ANDed into the leaf's selection straight from its payload
/// (ResolveAnd), so no bitmap is inflated into words.
///
/// Every probe uses the keys the conjunct carries (KeyConjuncts), so a
/// per-block resolution renders and hashes no predicate text.
///
/// Returns nullopt when the conjunct cannot be resolved from cache (the
/// caller then scans, evaluates, and inserts a fresh index).
class IndexResolver {
 public:
  explicit IndexResolver(IndexCache* cache) : cache_(cache) {}

  /// The conjunct's bitmap, inflated from ResolvePayload (tests and
  /// benches; the engine ANDs through ResolveAnd instead).
  std::optional<BitVector> Resolve(int64_t block_id,
                                   const KeyedPredicate& conjunct,
                                   SimTime now);

  /// ANDs the conjunct's bitmap into `selection` straight from its RLE
  /// payload (BitVector::AndRle): the engine's hit path, which inflates
  /// nothing and, on a direct hit, allocates nothing. Returns false, with
  /// `selection` untouched, when the conjunct cannot be resolved; a
  /// malformed payload, or one of another size, counts as a miss.
  /// `bitmap_words` is charged as if the bitmap had been inflated.
  bool ResolveAnd(int64_t block_id, const KeyedPredicate& conjunct,
                  SimTime now, BitVector* selection);

  /// Resolve without the final inflation: the conjunct's RLE payload, or
  /// nullptr (counted as a miss) when it cannot be resolved. A direct hit
  /// shares ownership of the cached index, so the payload stays valid
  /// after the cache evicts the entry; a composed result is a fresh buffer.
  std::shared_ptr<const std::string> ResolvePayload(
      int64_t block_id, const KeyedPredicate& conjunct, SimTime now);

  const ResolverStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ResolverStats(); }

 private:
  std::shared_ptr<const std::string> ResolveImpl(int64_t block_id,
                                                 const KeyedPredicate& node,
                                                 SimTime now, bool top_level);

  IndexCache* cache_;
  ResolverStats stats_;
};

}  // namespace feisu

#endif  // FEISU_INDEX_INDEX_RESOLVER_H_
