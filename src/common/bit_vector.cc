#include "common/bit_vector.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>

namespace feisu {

namespace {
constexpr uint64_t kAllOnesWord = ~0ULL;

// RLE tags.
constexpr uint8_t kRunZero = 0;
constexpr uint8_t kRunOne = 1;
constexpr uint8_t kLiteral = 2;

// Word-array materializations performed by DeserializeRle; the RLE-domain
// combine path must never bump this (asserted by tests).
std::atomic<uint64_t> g_inflations{0};

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
bool ReadU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}
bool ReadU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

/// Streams the token sequence of one SerializeRle payload.
struct RleCursor {
  const std::string* data = nullptr;
  size_t pos = 0;
  uint64_t bit_size = 0;
  size_t words_total = 0;
  size_t words_done = 0;   // words fully consumed by the merge
  size_t tokens = 0;       // tokens read so far
  uint8_t tag = kRunZero;
  uint32_t remaining = 0;  // words left in the current token
  uint64_t literal = 0;

  bool Init(const std::string& d) {
    data = &d;
    pos = 0;
    if (!ReadU64(d, &pos, &bit_size)) return false;
    words_total = (static_cast<size_t>(bit_size) + 63) / 64;
    return true;
  }

  /// Loads the next token; requires remaining == 0. False on truncation or
  /// a bad tag.
  bool NextToken() {
    if (pos >= data->size()) return false;
    tag = static_cast<uint8_t>((*data)[pos++]);
    ++tokens;
    if (tag == kRunZero || tag == kRunOne) {
      if (!ReadU32(*data, &pos, &remaining)) return false;
      return remaining > 0;
    }
    if (tag == kLiteral) {
      if (!ReadU64(*data, &pos, &literal)) return false;
      remaining = 1;
      return true;
    }
    return false;
  }

  /// Word value of the current token (uniform tokens expand implicitly).
  uint64_t Word() const {
    if (tag == kRunZero) return 0;
    if (tag == kRunOne) return kAllOnesWord;
    return literal;
  }

  bool Exhausted() const {
    return words_done == words_total && remaining == 0 &&
           pos == data->size();
  }
};

/// Builds a canonical SerializeRle payload: uniform words coalesce into
/// maximal runs exactly like BitVector::SerializeRle would emit them.
class RleBuilder {
 public:
  explicit RleBuilder(uint64_t size_bits) { AppendU64(&out_, size_bits); }

  void AddUniform(uint8_t tag, uint32_t count) {
    if (count == 0) return;
    if (pending_count_ > 0 && pending_tag_ == tag) {
      pending_count_ += count;
      return;
    }
    Flush();
    pending_tag_ = tag;
    pending_count_ = count;
  }

  void AddWord(uint64_t w) {
    if (w == 0) {
      AddUniform(kRunZero, 1);
    } else if (w == kAllOnesWord) {
      AddUniform(kRunOne, 1);
    } else {
      Flush();
      out_.push_back(static_cast<char>(kLiteral));
      AppendU64(&out_, w);
    }
  }

  std::string Finish() {
    Flush();
    return std::move(out_);
  }

 private:
  void Flush() {
    if (pending_count_ == 0) return;
    out_.push_back(static_cast<char>(pending_tag_));
    AppendU32(&out_, static_cast<uint32_t>(pending_count_));
    pending_count_ = 0;
  }

  std::string out_;
  uint8_t pending_tag_ = kRunZero;
  uint64_t pending_count_ = 0;
};

enum class RleOp { kAnd, kOr };

bool RleCombine(RleOp op, const std::string& a, const std::string& b,
                std::string* out, size_t* tokens_processed) {
  RleCursor ca;
  RleCursor cb;
  if (!ca.Init(a) || !cb.Init(b)) return false;
  if (ca.bit_size != cb.bit_size) return false;
  RleBuilder builder(ca.bit_size);
  while (ca.words_done < ca.words_total) {
    if (ca.remaining == 0 && !ca.NextToken()) return false;
    if (cb.remaining == 0 && !cb.NextToken()) return false;
    bool a_uniform = ca.tag != kLiteral;
    bool b_uniform = cb.tag != kLiteral;
    uint32_t n = std::min(ca.remaining, cb.remaining);
    if (a_uniform && b_uniform) {
      bool one;
      if (op == RleOp::kAnd) {
        one = ca.tag == kRunOne && cb.tag == kRunOne;
      } else {
        one = ca.tag == kRunOne || cb.tag == kRunOne;
      }
      builder.AddUniform(one ? kRunOne : kRunZero, n);
    } else {
      // At least one side is a literal, so n == 1.
      uint64_t w = op == RleOp::kAnd ? (ca.Word() & cb.Word())
                                     : (ca.Word() | cb.Word());
      builder.AddWord(w);
    }
    ca.remaining -= n;
    cb.remaining -= n;
    ca.words_done += n;
    cb.words_done += n;
  }
  if (!ca.Exhausted() || !cb.Exhausted()) return false;
  if (tokens_processed != nullptr) *tokens_processed = ca.tokens + cb.tokens;
  *out = builder.Finish();
  return true;
}

}  // namespace

BitVector::BitVector(size_t size, bool value) : size_(size) {
  words_.assign((size + 63) / 64, value ? kAllOnesWord : 0);
  ClearTrailingBits();
}

BitVector BitVector::FromWords(std::vector<uint64_t> words, size_t size) {
  BitVector out;
  out.size_ = size;
  out.words_ = std::move(words);
  out.words_.resize((size + 63) / 64, 0);
  out.ClearTrailingBits();
  return out;
}

void BitVector::SetRange(size_t begin, size_t end, bool value) {
  if (end > size_) end = size_;
  if (begin >= end) return;
  size_t first_word = begin >> 6;
  size_t last_word = (end - 1) >> 6;
  uint64_t first_mask = ~0ULL << (begin & 63);
  uint64_t last_mask =
      (end & 63) == 0 ? ~0ULL : (1ULL << (end & 63)) - 1;
  if (first_word == last_word) {
    uint64_t mask = first_mask & last_mask;
    if (value) {
      words_[first_word] |= mask;
    } else {
      words_[first_word] &= ~mask;
    }
    return;
  }
  if (value) {
    words_[first_word] |= first_mask;
    for (size_t w = first_word + 1; w < last_word; ++w) words_[w] = ~0ULL;
    words_[last_word] |= last_mask;
  } else {
    words_[first_word] &= ~first_mask;
    for (size_t w = first_word + 1; w < last_word; ++w) words_[w] = 0;
    words_[last_word] &= ~last_mask;
  }
}

void BitVector::PushBack(bool value) {
  if (size_ % 64 == 0) words_.push_back(0);
  ++size_;
  if (value) Set(size_ - 1, true);
}

void BitVector::Append(const BitVector& other) {
  if (other.size_ == 0) return;
  const size_t shift = size_ & 63;
  const size_t new_size = size_ + other.size_;
  if (shift == 0) {
    words_.insert(words_.end(), other.words_.begin(), other.words_.end());
  } else {
    // The last word is partial and its bits past size_ are clear, so each
    // word of `other` splits across it and one new word.
    words_.reserve((new_size + 63) / 64 + 1);
    for (uint64_t w : other.words_) {
      words_.back() |= w << shift;
      words_.push_back(w >> (64 - shift));
    }
    // The split may leave one surplus (all-clear) word at the end.
    words_.resize((new_size + 63) / 64);
  }
  size_ = new_size;
}

namespace {

/// The bits of `bits` at the set positions of `mask`, packed into the low
/// bits in order (x86 PEXT).
uint64_t ExtractBits(uint64_t bits, uint64_t mask) {
  uint64_t out = 0;
  for (uint64_t k = 1; mask != 0; k <<= 1) {
    if ((bits & mask & -mask) != 0) out |= k;
    mask &= mask - 1;
  }
  return out;
}

}  // namespace

BitVector BitVector::Gather(const BitVector& src,
                            const BitVector& selection) {
  assert(src.size_ == selection.size_);
  BitVector out;
  out.words_.reserve(selection.CountOnes() / 64 + 1);
  uint64_t pending = 0;  // the partial output word
  size_t filled = 0;     // bits of `pending` in use
  for (size_t w = 0; w < selection.words_.size(); ++w) {
    const uint64_t sel = selection.words_[w];
    if (sel == 0) continue;
    const uint64_t bits = src.words_[w] & sel;
    const int count = std::popcount(sel);
    uint64_t packed;
    if (sel == kAllOnesWord) {
      packed = bits;
    } else if (bits == sel) {
      packed = (1ULL << count) - 1;  // count < 64 here
    } else if (bits == 0) {
      packed = 0;
    } else {
      packed = ExtractBits(bits, sel);
    }
    pending |= packed << filled;
    filled += static_cast<size_t>(count);
    if (filled >= 64) {
      out.words_.push_back(pending);
      filled -= 64;
      // The bits of `packed` that did not fit (none when it was placed at
      // offset 0).
      pending = filled == 0 ? 0 : packed >> (count - filled);
    }
    out.size_ += static_cast<size_t>(count);
  }
  if (filled > 0) out.words_.push_back(pending);
  return out;
}

size_t BitVector::CountOnes() const {
  size_t n = 0;
  for (uint64_t w : words_) n += std::popcount(w);
  return n;
}

bool BitVector::AllZeros() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool BitVector::AllOnes() const {
  if (size_ == 0) return true;
  size_t full_words = size_ / 64;
  for (size_t i = 0; i < full_words; ++i) {
    if (words_[i] != kAllOnesWord) return false;
  }
  size_t rem = size_ % 64;
  if (rem != 0 && words_.back() != ((1ULL << rem) - 1)) return false;
  return true;
}

bool BitVector::AnyInRange(size_t begin, size_t end) const {
  if (end > size_) end = size_;
  if (begin >= end) return false;
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
    if (word != 0) return true;
  }
  return false;
}

size_t BitVector::SetBitsEnd() const {
  for (size_t w = words_.size(); w > 0; --w) {
    if (words_[w - 1] != 0) {
      return w * 64 - static_cast<size_t>(std::countl_zero(words_[w - 1]));
    }
  }
  return 0;
}

void BitVector::KeepFirstSetBits(size_t n) {
  size_t w = 0;
  for (; w < words_.size(); ++w) {
    size_t ones = static_cast<size_t>(std::popcount(words_[w]));
    if (ones > n) break;
    n -= ones;
  }
  if (w == words_.size()) return;
  // Keep the word's lowest n set bits: `rest` is what lies above them.
  uint64_t rest = words_[w];
  for (; n > 0; --n) rest &= rest - 1;
  words_[w] &= ~rest;
  std::fill(words_.begin() + static_cast<std::ptrdiff_t>(w) + 1, words_.end(),
            0);
}

void BitVector::And(const BitVector& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void BitVector::Or(const BitVector& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void BitVector::Not() {
  for (uint64_t& w : words_) w = ~w;
  ClearTrailingBits();
}

BitVector BitVector::And(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.And(b);
  return out;
}

BitVector BitVector::Or(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.Or(b);
  return out;
}

BitVector BitVector::Not(const BitVector& a) {
  BitVector out = a;
  out.Not();
  return out;
}

bool BitVector::operator==(const BitVector& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::vector<uint32_t> BitVector::SetIndices() const {
  std::vector<uint32_t> out;
  out.reserve(CountOnes());
  ForEachSetBit([&out](size_t i) {
    out.push_back(static_cast<uint32_t>(i));
  });
  return out;
}

std::string BitVector::SerializeRle() const {
  std::string out;
  AppendU64(&out, size_);
  size_t i = 0;
  while (i < words_.size()) {
    uint64_t w = words_[i];
    if (w == 0 || w == kAllOnesWord) {
      // Note: the trailing word of a full vector may not be kAllOnesWord
      // because trailing bits are cleared; it is then emitted as a literal,
      // which is still correct.
      size_t j = i + 1;
      while (j < words_.size() && words_[j] == w) ++j;
      out.push_back(static_cast<char>(w == 0 ? kRunZero : kRunOne));
      AppendU32(&out, static_cast<uint32_t>(j - i));
      i = j;
    } else {
      out.push_back(static_cast<char>(kLiteral));
      AppendU64(&out, w);
      ++i;
    }
  }
  return out;
}

bool BitVector::DeserializeRle(const std::string& data, BitVector* out) {
  g_inflations.fetch_add(1, std::memory_order_relaxed);
  size_t pos = 0;
  uint64_t size = 0;
  if (!ReadU64(data, &pos, &size)) return false;
  BitVector result;
  result.size_ = static_cast<size_t>(size);
  size_t expected_words = (result.size_ + 63) / 64;
  result.words_.reserve(expected_words);
  while (pos < data.size()) {
    uint8_t tag = static_cast<uint8_t>(data[pos++]);
    if (tag == kRunZero || tag == kRunOne) {
      uint32_t count = 0;
      if (!ReadU32(data, &pos, &count)) return false;
      if (result.words_.size() + count > expected_words) return false;
      result.words_.insert(result.words_.end(), count,
                           tag == kRunZero ? 0 : kAllOnesWord);
    } else if (tag == kLiteral) {
      uint64_t w = 0;
      if (!ReadU64(data, &pos, &w)) return false;
      if (result.words_.size() + 1 > expected_words) return false;
      result.words_.push_back(w);
    } else {
      return false;
    }
  }
  if (result.words_.size() != expected_words) return false;
  result.ClearTrailingBits();
  *out = std::move(result);
  return true;
}

size_t BitVector::CompressedByteSize() const {
  size_t bytes = sizeof(uint64_t);  // size header
  size_t i = 0;
  while (i < words_.size()) {
    uint64_t w = words_[i];
    if (w == 0 || w == kAllOnesWord) {
      size_t j = i + 1;
      while (j < words_.size() && words_[j] == w) ++j;
      bytes += 1 + sizeof(uint32_t);
      i = j;
    } else {
      bytes += 1 + sizeof(uint64_t);
      ++i;
    }
  }
  return bytes;
}

bool BitVector::RleAnd(const std::string& a, const std::string& b,
                       std::string* out, size_t* tokens_processed) {
  return RleCombine(RleOp::kAnd, a, b, out, tokens_processed);
}

bool BitVector::RleOr(const std::string& a, const std::string& b,
                      std::string* out, size_t* tokens_processed) {
  return RleCombine(RleOp::kOr, a, b, out, tokens_processed);
}

bool BitVector::RleNot(const std::string& a, std::string* out,
                       size_t* tokens_processed) {
  RleCursor cursor;
  if (!cursor.Init(a)) return false;
  RleBuilder builder(cursor.bit_size);
  size_t rem = static_cast<size_t>(cursor.bit_size) % 64;
  uint64_t last_mask = rem == 0 ? kAllOnesWord : ((1ULL << rem) - 1);
  while (cursor.words_done < cursor.words_total) {
    if (cursor.remaining == 0 && !cursor.NextToken()) return false;
    uint32_t n = cursor.remaining;
    uint64_t flipped = ~cursor.Word();
    bool covers_last = cursor.words_done + n == cursor.words_total;
    if (cursor.tag == kLiteral) {
      builder.AddWord(covers_last ? (flipped & last_mask) : flipped);
    } else {
      uint8_t tag = cursor.tag == kRunZero ? kRunOne : kRunZero;
      if (covers_last && last_mask != kAllOnesWord) {
        // The trailing partial word must keep its out-of-range bits clear,
        // so it leaves the run and re-classifies on its own.
        builder.AddUniform(tag, n - 1);
        builder.AddWord(flipped & last_mask);
      } else {
        builder.AddUniform(tag, n);
      }
    }
    cursor.words_done += n;
    cursor.remaining = 0;
  }
  if (!cursor.Exhausted()) return false;
  if (tokens_processed != nullptr) *tokens_processed = cursor.tokens;
  *out = builder.Finish();
  return true;
}

size_t BitVector::RleCountOnes(const std::string& data) {
  RleCursor cursor;
  if (!cursor.Init(data)) return SIZE_MAX;
  size_t ones = 0;
  while (cursor.words_done < cursor.words_total) {
    if (!cursor.NextToken()) return SIZE_MAX;
    if (cursor.tag == kRunOne) {
      ones += static_cast<size_t>(cursor.remaining) * 64;
    } else if (cursor.tag == kLiteral) {
      ones += static_cast<size_t>(std::popcount(cursor.literal));
    }
    cursor.words_done += cursor.remaining;
    cursor.remaining = 0;
  }
  if (!cursor.Exhausted()) return SIZE_MAX;
  return ones;
}

size_t BitVector::RleSize(const std::string& data) {
  size_t pos = 0;
  uint64_t size = 0;
  if (!ReadU64(data, &pos, &size)) return SIZE_MAX;
  return static_cast<size_t>(size);
}

uint64_t BitVector::inflation_count() {
  return g_inflations.load(std::memory_order_relaxed);
}

std::string BitVector::ToString() const {
  std::string out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) out.push_back(Get(i) ? '1' : '0');
  return out;
}

void BitVector::ClearTrailingBits() {
  size_t rem = size_ % 64;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (1ULL << rem) - 1;
  }
}

}  // namespace feisu
