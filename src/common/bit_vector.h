#ifndef FEISU_COMMON_BIT_VECTOR_H_
#define FEISU_COMMON_BIT_VECTOR_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace feisu {

/// A densely packed 0-1 vector with the bitwise algebra SmartIndex needs:
/// AND / OR / NOT, popcount, and a word-level run-length compression used to
/// estimate and reduce index memory footprint. The Rle* statics operate
/// directly on the compressed form so two cached indexes can be combined
/// without inflating either operand (paper §IV-C).
class BitVector {
 public:
  BitVector() = default;
  /// Creates a vector of `size` bits, all set to `value`.
  explicit BitVector(size_t size, bool value = false);

  BitVector(const BitVector&) = default;
  BitVector& operator=(const BitVector&) = default;
  /// A moved-from vector is empty (size 0), not a size without words: a
  /// moved-from ColumnVector must not report rows it no longer holds.
  BitVector(BitVector&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        words_(std::move(other.words_)) {}
  BitVector& operator=(BitVector&& other) noexcept {
    size_ = std::exchange(other.size_, 0);
    words_ = std::move(other.words_);
    return *this;
  }

  /// Adopts raw 64-bit words (bit i of the vector is bit i%64 of word
  /// i/64). Bits beyond `size` in the last word are cleared. This is how
  /// the compressed-domain predicate kernels hand over match bitmaps they
  /// assembled word-at-a-time in a branchless loop.
  static BitVector FromWords(std::vector<uint64_t> words, size_t size);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inline: per-row validity checks in every kernel go through these.
  bool Get(size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i, bool value) {
    assert(i < size_);
    const uint64_t mask = 1ULL << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Sets every bit in [begin, end) to `value`. Word-level: a run of 64
  /// rows costs one store, which is what makes run-granular predicate
  /// bitmaps over RLE columns cheap (one SetRange per run, not per row).
  void SetRange(size_t begin, size_t end, bool value);

  /// Appends one bit.
  void PushBack(bool value);

  /// Appends every bit of `other`. Word-level: a word boundary costs one
  /// copy, an unaligned tail two shifts per word of `other`.
  void Append(const BitVector& other);

  /// The bits of `src` at the set positions of `selection`, packed in
  /// order (selection.size() == src.size(); the result has
  /// selection.CountOnes() bits). Word-level: a fully selected word copies
  /// 64 bits at once and an all-valid or all-NULL word needs only the
  /// selection's popcount, which is what makes the validity of a selective
  /// decode or a Filter cheap.
  static BitVector Gather(const BitVector& src, const BitVector& selection);

  /// Number of set bits.
  size_t CountOnes() const;

  /// True if every bit is zero / one. Early-exits on the first word that
  /// disagrees instead of popcounting the whole vector.
  bool AllZeros() const;
  bool AllOnes() const;

  /// True if any bit in [begin, end) is set. Word-scans, so skipping a
  /// fully unselected range costs one load per 64 rows.
  bool AnyInRange(size_t begin, size_t end) const;

  /// One past the highest set bit; 0 when no bit is set. Scans words from
  /// the end.
  size_t SetBitsEnd() const;

  /// Clears every set bit after the first `n`. Word-level: one popcount
  /// per word up to the word holding the n-th set bit, then whole-word
  /// clears.
  void KeepFirstSetBits(size_t n);

  /// In-place bitwise ops; `other` must have the same size.
  void And(const BitVector& other);
  void Or(const BitVector& other);
  void Not();

  /// Out-of-place helpers.
  static BitVector And(const BitVector& a, const BitVector& b);
  static BitVector Or(const BitVector& a, const BitVector& b);
  static BitVector Not(const BitVector& a);

  bool operator==(const BitVector& other) const;

  /// Indices of all set bits, in increasing order.
  std::vector<uint32_t> SetIndices() const;

  /// Calls `fn(index)` for every set bit in increasing order. Word-scan:
  /// all-zero words cost one load, so iteration scales with the number of
  /// set bits, not the vector length.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        int bit = std::countr_zero(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Calls `fn(index)` for every clear bit in increasing order (e.g. every
  /// NULL slot of a validity bitmap). All-one words cost one load.
  template <typename Fn>
  void ForEachClearBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = ~words_[w];
      if (w + 1 == words_.size() && (size_ & 63) != 0) {
        word &= (1ULL << (size_ & 63)) - 1;
      }
      while (word != 0) {
        int bit = std::countr_zero(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// ForEachSetBit restricted to [begin, end).
  template <typename Fn>
  void ForEachSetBitInRange(size_t begin, size_t end, Fn&& fn) const {
    if (end > size_) end = size_;
    if (begin >= end) return;
    size_t first_word = begin >> 6;
    size_t last_word = (end - 1) >> 6;
    for (size_t w = first_word; w <= last_word; ++w) {
      uint64_t word = words_[w];
      if (w == first_word && (begin & 63) != 0) {
        word &= ~0ULL << (begin & 63);
      }
      if (w == last_word && (end & 63) != 0) {
        word &= (1ULL << (end & 63)) - 1;
      }
      while (word != 0) {
        int bit = std::countr_zero(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Uncompressed in-memory footprint in bytes (words only).
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  /// Serializes to a word-level RLE form: runs of all-zero / all-one words
  /// collapse to a (tag, count) pair; mixed words are stored verbatim. This
  /// mirrors the "Compress type" field of the SmartIndex block layout
  /// (paper Fig. 6) and is what IndexCache charges against its budget.
  std::string SerializeRle() const;

  /// Parses a SerializeRle() payload. Returns false on malformed input.
  static bool DeserializeRle(const std::string& data, BitVector* out);

  /// Size in bytes of the RLE-compressed form without materializing it.
  size_t CompressedByteSize() const;

  // --- RLE-domain algebra over SerializeRle() payloads. ---
  //
  // These stream the two token sequences and emit a canonical payload
  // (byte-identical to running the word-level op and re-serializing), so
  // combine cost scales with run count, not row count, and neither operand
  // is ever inflated into a word array — inflation_count() lets tests pin
  // that down. All return false on malformed or size-mismatched input.
  // `tokens_processed`, when non-null, receives the number of RLE tokens
  // the merge consumed (the cost the resolver charges).

  static bool RleAnd(const std::string& a, const std::string& b,
                     std::string* out, size_t* tokens_processed = nullptr);
  static bool RleOr(const std::string& a, const std::string& b,
                    std::string* out, size_t* tokens_processed = nullptr);
  static bool RleNot(const std::string& a, std::string* out,
                     size_t* tokens_processed = nullptr);

  /// Set-bit count of a payload without inflating it. Returns SIZE_MAX on
  /// malformed input.
  static size_t RleCountOnes(const std::string& data);

  /// Bit size recorded in a payload header; SIZE_MAX on malformed input.
  static size_t RleSize(const std::string& data);

  /// Process-wide count of DeserializeRle word-array materializations.
  /// Tests assert the RLE-domain combine path leaves this untouched.
  static uint64_t inflation_count();

  /// Debug rendering, e.g. "01101".
  std::string ToString() const;

 private:
  size_t NumWords() const { return words_.size(); }
  /// Clears any bits beyond size_ in the last word (keeps invariants for
  /// popcount / equality after Not()).
  void ClearTrailingBits();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace feisu

#endif  // FEISU_COMMON_BIT_VECTOR_H_
