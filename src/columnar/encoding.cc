#include "columnar/encoding.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "common/annotations.h"

namespace feisu {

namespace {

std::atomic<uint64_t> g_values_materialized{0};
std::atomic<uint64_t> g_values_skipped{0};
std::atomic<uint64_t> g_runs_skipped{0};
std::atomic<uint64_t> g_values_skipped_encoded{0};
std::atomic<uint64_t> g_predicates_encoded{0};
std::atomic<uint64_t> g_predicates_fallback{0};

/// Per-decode tally folded into the process counters once per column, so
/// the hot loops never touch an atomic.
struct DecodeTally {
  uint64_t materialized = 0;
  uint64_t skipped = 0;
  uint64_t runs_skipped = 0;
  uint64_t skipped_encoded = 0;
  uint64_t predicates_encoded = 0;

  ~DecodeTally() {
    if (materialized != 0) {
      g_values_materialized.fetch_add(materialized,
                                      std::memory_order_relaxed);
    }
    if (skipped != 0) {
      g_values_skipped.fetch_add(skipped, std::memory_order_relaxed);
    }
    if (runs_skipped != 0) {
      g_runs_skipped.fetch_add(runs_skipped, std::memory_order_relaxed);
    }
    if (skipped_encoded != 0) {
      g_values_skipped_encoded.fetch_add(skipped_encoded,
                                         std::memory_order_relaxed);
    }
    if (predicates_encoded != 0) {
      g_predicates_encoded.fetch_add(predicates_encoded,
                                     std::memory_order_relaxed);
    }
  }
};

void AppendRaw(std::string* out, const void* data, size_t len) {
  out->append(static_cast<const char*>(data), len);
}
template <typename T>
void AppendScalar(std::string* out, T v) {
  AppendRaw(out, &v, sizeof(v));
}
template <typename T>
bool ReadScalar(const std::string& in, size_t* pos, T* v) {
  if (*pos + sizeof(T) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

void AppendLengthPrefixed(std::string* out, const std::string& s) {
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}
bool ReadLengthPrefixed(const std::string& in, size_t* pos,
                        std::string_view* s) {
  uint32_t len = 0;
  if (!ReadScalar(in, pos, &len)) return false;
  if (*pos + len > in.size()) return false;
  *s = std::string_view(in.data() + *pos, len);
  *pos += len;
  return true;
}

// Every payload starts with: u32 num_rows, length-prefixed RLE validity.
void AppendHeader(std::string* out, const ColumnVector& col) {
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(col.size()));
  AppendLengthPrefixed(out, col.validity().SerializeRle());
}

bool ReadHeader(const std::string& in, size_t* pos, uint32_t* num_rows,
                BitVector* validity) {
  if (!ReadScalar(in, pos, num_rows)) return false;
  std::string_view validity_bytes;
  if (!ReadLengthPrefixed(in, pos, &validity_bytes)) return false;
  if (!BitVector::DeserializeRle(std::string(validity_bytes), validity)) {
    return false;
  }
  return validity->size() == *num_rows;
}

std::string EncodePlain(const ColumnVector& col) {
  std::string out;
  AppendHeader(&out, col);
  switch (col.type()) {
    case DataType::kBool:
      AppendRaw(&out, col.bools().data(), col.bools().size());
      break;
    case DataType::kInt64:
      AppendRaw(&out, col.ints().data(), col.ints().size() * sizeof(int64_t));
      break;
    case DataType::kDouble:
      AppendRaw(&out, col.doubles().data(),
                col.doubles().size() * sizeof(double));
      break;
    case DataType::kString:
      for (const auto& s : col.strings()) AppendLengthPrefixed(&out, s);
      break;
  }
  return out;
}

std::string EncodeRleInt64(const ColumnVector& col) {
  std::string out;
  AppendHeader(&out, col);
  const auto& ints = col.ints();
  size_t i = 0;
  while (i < ints.size()) {
    size_t j = i + 1;
    while (j < ints.size() && ints[j] == ints[i]) ++j;
    AppendScalar<int64_t>(&out, ints[i]);
    AppendScalar<uint32_t>(&out, static_cast<uint32_t>(j - i));
    i = j;
  }
  return out;
}

std::string EncodeRleBool(const ColumnVector& col) {
  std::string out;
  AppendHeader(&out, col);
  const auto& bools = col.bools();
  size_t i = 0;
  while (i < bools.size()) {
    size_t j = i + 1;
    while (j < bools.size() && bools[j] == bools[i]) ++j;
    AppendScalar<uint8_t>(&out, bools[i]);
    AppendScalar<uint32_t>(&out, static_cast<uint32_t>(j - i));
    i = j;
  }
  return out;
}

std::string EncodeDictString(const ColumnVector& col) {
  std::string out;
  AppendHeader(&out, col);
  std::unordered_map<std::string, uint32_t> dict;
  std::vector<const std::string*> entries;
  std::vector<uint32_t> codes;
  codes.reserve(col.size());
  for (const auto& s : col.strings()) {
    auto [it, inserted] =
        dict.emplace(s, static_cast<uint32_t>(entries.size()));
    if (inserted) entries.push_back(&it->first);
    codes.push_back(it->second);
  }
  AppendScalar<uint32_t>(&out, static_cast<uint32_t>(entries.size()));
  for (const auto* s : entries) AppendLengthPrefixed(&out, *s);
  AppendRaw(&out, codes.data(), codes.size() * sizeof(uint32_t));
  return out;
}

// Frame-of-reference bit packing: store min and (v - min) in the fewest
// bits that cover the range. NULL slots pack as 0.
std::string EncodeBitPackInt64(const ColumnVector& col) {
  std::string out;
  AppendHeader(&out, col);
  const auto& ints = col.ints();
  int64_t min = 0;
  int64_t max = 0;
  bool first = true;
  for (size_t i = 0; i < ints.size(); ++i) {
    if (col.IsNull(i)) continue;
    if (first || ints[i] < min) min = ints[i];
    if (first || ints[i] > max) max = ints[i];
    first = false;
  }
  uint64_t range = first ? 0 : static_cast<uint64_t>(max - min);
  uint8_t width = 0;
  while (width < 64 && (width == 64 ? false : (range >> width) != 0)) {
    ++width;
  }
  if (width == 0) width = 1;
  AppendScalar<int64_t>(&out, min);
  AppendScalar<uint8_t>(&out, width);
  uint64_t buffer = 0;
  int bits_in_buffer = 0;
  for (size_t i = 0; i < ints.size(); ++i) {
    uint64_t v =
        col.IsNull(i) ? 0 : static_cast<uint64_t>(ints[i] - min);
    int remaining = width;
    while (remaining > 0) {
      int take = std::min(remaining, 64 - bits_in_buffer);
      buffer |= (v & ((take == 64 ? ~0ULL : ((1ULL << take) - 1))))
                << bits_in_buffer;
      v >>= take;
      bits_in_buffer += take;
      remaining -= take;
      if (bits_in_buffer == 64) {
        AppendScalar<uint64_t>(&out, buffer);
        buffer = 0;
        bits_in_buffer = 0;
      }
    }
  }
  if (bits_in_buffer > 0) AppendScalar<uint64_t>(&out, buffer);
  return out;
}

Status CheckSelection(const BitVector* selection, uint32_t num_rows) {
  if (selection != nullptr && selection->size() != num_rows) {
    return Status::InvalidArgument("selection size does not match column");
  }
  return Status::OK();
}

/// Validity of the decoded rows: the column's own, cut to `selection`.
BitVector SelectValidity(BitVector validity, const BitVector* selection) {
  if (selection == nullptr) return validity;
  return BitVector::Gather(validity, *selection);
}

/// Calls `fn(row, out)` for every decoded row: `row` indexes the encoded
/// rows, `out` the output rows (every row, or the set bits of `selection`).
template <typename Fn>
void ForEachDecodedRow(const BitVector* selection, uint32_t num_rows,
                       const Fn& fn) {
  if (selection == nullptr) {
    for (size_t i = 0; i < num_rows; ++i) fn(i, i);
    return;
  }
  size_t out = 0;
  selection->ForEachSetBit([&](size_t i) { fn(i, out++); });
}

/// Sets the tally for a decode that materializes exactly the selected rows.
void TallySelected(const BitVector* selection, uint32_t num_rows,
                   DecodeTally* tally) {
  const size_t ones = selection != nullptr ? selection->CountOnes() : num_rows;
  tally->materialized = ones;
  tally->skipped = num_rows - ones;
}

Result<ColumnVector> DecodeBitPack(DataType type, const std::string& in,
                                   const BitVector* selection) {
  if (type != DataType::kInt64) {
    return Status::Corruption("bit-pack encoding on non-int64 type");
  }
  size_t pos = 0;
  uint32_t num_rows = 0;
  BitVector validity;
  if (!ReadHeader(in, &pos, &num_rows, &validity)) {
    return Status::Corruption("bad bit-pack column header");
  }
  FEISU_RETURN_IF_ERROR(CheckSelection(selection, num_rows));
  int64_t min = 0;
  uint8_t width = 0;
  if (!ReadScalar(in, &pos, &min) || !ReadScalar(in, &pos, &width) ||
      width == 0 || width > 64) {
    return Status::Corruption("bad bit-pack parameters");
  }
  size_t total_bits = static_cast<size_t>(num_rows) * width;
  size_t words = (total_bits + 63) / 64;
  if (pos + words * sizeof(uint64_t) > in.size()) {
    return Status::Corruption("truncated bit-pack payload");
  }
  DecodeTally tally;
  TallySelected(selection, num_rows, &tally);
  const char* packed = in.data() + pos;
  auto word_at = [packed](size_t idx) {
    uint64_t w = 0;
    std::memcpy(&w, packed + idx * sizeof(uint64_t), sizeof(w));
    return w;
  };
  const uint64_t value_mask = width == 64 ? ~0ULL : ((1ULL << width) - 1);
  ColumnVector col(type);
  col.AppendBulk<int64_t>(
      SelectValidity(std::move(validity), selection), [&](int64_t* rows) {
        // Random access: each decoded slot touches at most two payload
        // words, so unselected pages are never read.
        ForEachDecodedRow(selection, num_rows, [&](size_t i, size_t out) {
          size_t bit_off = i * width;
          size_t word_idx = bit_off >> 6;
          int shift = static_cast<int>(bit_off & 63);
          uint64_t v = word_at(word_idx) >> shift;
          if (shift + width > 64) {
            v |= word_at(word_idx + 1) << (64 - shift);
          }
          rows[out] = min + static_cast<int64_t>(v & value_mask);
        });
      });
  return col;
}

/// Copies the fixed-width values of the decoded rows out of a plain
/// payload.
template <typename T>
void CopyPlainValues(const char* data, const BitVector* selection,
                     uint32_t num_rows, T* rows) {
  if (selection == nullptr) {
    if (num_rows > 0) std::memcpy(rows, data, num_rows * sizeof(T));
    return;
  }
  selection->ForEachSetBit([&, out = size_t{0}](size_t i) mutable {
    std::memcpy(&rows[out++], data + i * sizeof(T), sizeof(T));
  });
}

// ---- decoders ----

Result<ColumnVector> DecodePlain(DataType type, const std::string& in,
                                 const BitVector* selection) {
  size_t pos = 0;
  uint32_t num_rows = 0;
  BitVector validity;
  if (!ReadHeader(in, &pos, &num_rows, &validity)) {
    return Status::Corruption("bad plain column header");
  }
  FEISU_RETURN_IF_ERROR(CheckSelection(selection, num_rows));
  DecodeTally tally;
  TallySelected(selection, num_rows, &tally);
  BitVector out_validity = SelectValidity(std::move(validity), selection);
  const char* data = in.data() + pos;
  ColumnVector col(type);
  switch (type) {
    case DataType::kBool:
      if (pos + num_rows > in.size()) {
        return Status::Corruption("truncated bool column");
      }
      col.AppendBulk<uint8_t>(std::move(out_validity), [&](uint8_t* rows) {
        ForEachDecodedRow(selection, num_rows, [&](size_t i, size_t out) {
          rows[out] = data[i] != 0 ? 1 : 0;
        });
      });
      break;
    case DataType::kInt64:
      if (pos + num_rows * sizeof(int64_t) > in.size()) {
        return Status::Corruption("truncated int64 column");
      }
      col.AppendBulk<int64_t>(std::move(out_validity), [&](int64_t* rows) {
        CopyPlainValues(data, selection, num_rows, rows);
      });
      break;
    case DataType::kDouble:
      if (pos + num_rows * sizeof(double) > in.size()) {
        return Status::Corruption("truncated double column");
      }
      col.AppendBulk<double>(std::move(out_validity), [&](double* rows) {
        CopyPlainValues(data, selection, num_rows, rows);
      });
      break;
    case DataType::kString: {
      // Variable-width payload: the offsets aren't random-access, so the
      // walk is sequential. It stops after the last selected row (at once
      // for an empty selection), and unselected rows skip the string copy.
      const uint32_t walk =
          selection == nullptr
              ? num_rows
              : static_cast<uint32_t>(selection->SetBitsEnd());
      Status truncated = Status::OK();
      col.AppendBulk<std::string>(
          std::move(out_validity), [&](std::string* rows) {
            size_t out = 0;
            for (uint32_t i = 0; i < walk; ++i) {
              uint32_t len = 0;
              if (!ReadScalar(in, &pos, &len) || pos + len > in.size()) {
                truncated = Status::Corruption("truncated string column");
                return;
              }
              if (selection == nullptr || selection->Get(i)) {
                rows[out++].assign(in.data() + pos, len);
              }
              pos += len;
            }
          });
      FEISU_RETURN_IF_ERROR(truncated);
      break;
    }
  }
  return col;
}

/// Expands the (value, run length) pairs of an RLE payload starting at
/// `pos` into the decoded rows; `T` is the storage type (int64_t, or
/// uint8_t for BOOL), which is also the payload's value type.
template <typename T>
Status ExpandRuns(const std::string& in, size_t pos, uint32_t num_rows,
                  const BitVector* selection, DecodeTally* tally, T* rows) {
  size_t out = 0;
  uint32_t produced = 0;
  while (produced < num_rows) {
    uint32_t run = 0;
    T value{};
    if (!ReadScalar(in, &pos, &value) || !ReadScalar(in, &pos, &run)) {
      return Status::Corruption("truncated RLE run");
    }
    if (produced + run > num_rows) {
      return Status::Corruption("RLE overrun");
    }
    if constexpr (std::is_same_v<T, uint8_t>) value = value != 0 ? 1 : 0;
    if (selection == nullptr) {
      std::fill(rows + produced, rows + produced + run, value);
      tally->materialized += run;
    } else if (!selection->AnyInRange(produced, produced + run)) {
      // A run whose whole row range is unselected is skipped without
      // looking at a single row — this is where a sparse SmartIndex hit
      // pays: decode cost scales with matches, not block size.
      tally->skipped += run;
      ++tally->runs_skipped;
    } else {
      const size_t before = out;
      selection->ForEachSetBitInRange(produced, produced + run,
                                      [&](size_t) { rows[out++] = value; });
      tally->materialized += out - before;
      tally->skipped += run - (out - before);
    }
    produced += run;
  }
  return Status::OK();
}

Result<ColumnVector> DecodeRle(DataType type, const std::string& in,
                               const BitVector* selection) {
  size_t pos = 0;
  uint32_t num_rows = 0;
  BitVector validity;
  if (!ReadHeader(in, &pos, &num_rows, &validity)) {
    return Status::Corruption("bad RLE column header");
  }
  FEISU_RETURN_IF_ERROR(CheckSelection(selection, num_rows));
  ColumnVector col(type);
  if (num_rows == 0) return col;
  DecodeTally tally;
  BitVector out_validity = SelectValidity(std::move(validity), selection);
  Status status = Status::OK();
  switch (type) {
    case DataType::kInt64:
      col.AppendBulk<int64_t>(std::move(out_validity), [&](int64_t* rows) {
        status = ExpandRuns(in, pos, num_rows, selection, &tally, rows);
      });
      break;
    case DataType::kBool:
      col.AppendBulk<uint8_t>(std::move(out_validity), [&](uint8_t* rows) {
        status = ExpandRuns(in, pos, num_rows, selection, &tally, rows);
      });
      break;
    default:
      return Status::Corruption("RLE encoding on non-RLE type");
  }
  FEISU_RETURN_IF_ERROR(status);
  return col;
}

// A kDict payload read once: header, dictionary, and the fixed-width
// uint32 code array (bounds-checked to hold one code per row). Entries and
// codes stay in the payload; readers view the entries and fetch codes
// with CodeAt.
struct DictPayload {
  uint32_t num_rows = 0;
  BitVector validity;
  std::vector<std::string_view> entries;
  const char* codes = nullptr;

  uint32_t CodeAt(size_t i) const {
    uint32_t code = 0;
    std::memcpy(&code, codes + i * sizeof(uint32_t), sizeof(code));
    return code;
  }
};

Status ReadDictPayload(const std::string& in, DictPayload* out) {
  size_t pos = 0;
  if (!ReadHeader(in, &pos, &out->num_rows, &out->validity)) {
    return Status::Corruption("bad dict column header");
  }
  uint32_t dict_size = 0;
  if (!ReadScalar(in, &pos, &dict_size)) {
    return Status::Corruption("truncated dict size");
  }
  out->entries.resize(dict_size);
  for (auto& s : out->entries) {
    if (!ReadLengthPrefixed(in, &pos, &s)) {
      return Status::Corruption("truncated dict entry");
    }
  }
  if (pos + static_cast<size_t>(out->num_rows) * sizeof(uint32_t) >
      in.size()) {
    return Status::Corruption("truncated dict codes");
  }
  out->codes = in.data() + pos;
  return Status::OK();
}

Result<ColumnVector> DecodeDict(DataType type, const std::string& in,
                                const BitVector* selection) {
  if (type != DataType::kString) {
    return Status::Corruption("dict encoding on non-string type");
  }
  DictPayload dict;
  FEISU_RETURN_IF_ERROR(ReadDictPayload(in, &dict));
  FEISU_RETURN_IF_ERROR(CheckSelection(selection, dict.num_rows));
  DecodeTally tally;
  TallySelected(selection, dict.num_rows, &tally);
  Status bad_code = Status::OK();
  ColumnVector col(type);
  // Codes are fixed width: a selection jumps straight to its slots.
  col.AppendBulk<std::string>(
      SelectValidity(dict.validity, selection), [&](std::string* rows) {
        ForEachDecodedRow(selection, dict.num_rows, [&](size_t i, size_t out) {
          uint32_t code = dict.CodeAt(i);
          if (code >= dict.entries.size()) {
            if (bad_code.ok()) bad_code = Status::Corruption("dict code OOB");
            return;
          }
          if (dict.validity.Get(i)) rows[out].assign(dict.entries[code]);
        });
      });
  FEISU_RETURN_IF_ERROR(bad_code);
  return col;
}

// ---- compressed-domain predicate kernels ----

// Packs 64 match bytes (each 0 or 1) into one bitmap word, bit k = m[k].
// Per 8 bytes, the multiply moves byte i's low bit to bit 56 + i, so the
// top byte of the product holds the 8 bits in order (little-endian loads).
uint64_t PackMatchBytes(const uint8_t* m) {
  uint64_t bits = 0;
  for (unsigned b = 0; b < 8; ++b) {
    uint64_t bytes = 0;
    std::memcpy(&bytes, m + 8 * b, sizeof(bytes));
    bits |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * b);
  }
  return bits;
}

// Both bitmaps all-zero: every row UNKNOWN (NULL literal).
void AllUnknownBits(uint32_t num_rows, TriStateVector* out) {
  out->is_true = BitVector(num_rows, false);
  out->is_false = BitVector(num_rows, false);
}

// Dictionary kernel: translate the literal into code space once (one match
// flag per dictionary entry), then compare uint32 codes per row. A
// dictionary miss on equality never touches the code array at all — the
// short-circuit the block-skipping layers above rely on.
Result<bool> EncodedCompareDict(const std::string& in, CompareOp op,
                                const Value& literal, TriStateVector* out) {
  if (!literal.is_null() && literal.type() != DataType::kString) {
    return false;
  }
  DictPayload dict;
  FEISU_RETURN_IF_ERROR(ReadDictPayload(in, &dict));
  const uint32_t num_rows = dict.num_rows;
  const uint32_t dict_size = static_cast<uint32_t>(dict.entries.size());
  DecodeTally tally;
  tally.skipped_encoded = num_rows;
  ++tally.predicates_encoded;
  if (literal.is_null()) {
    AllUnknownBits(num_rows, out);
    return true;
  }
  // Literal -> code space: one decision per entry, the same string order
  // Value::Compare uses (std::string::compare / find).
  const std::string& lit = literal.string_value();
  std::vector<uint8_t> table(dict_size, 0);
  uint32_t match_count = 0;
  for (uint32_t c = 0; c < dict_size; ++c) {
    std::string_view entry = dict.entries[c];
    bool m = op == CompareOp::kContains
                 ? entry.find(lit) != std::string::npos
                 : CompareOpHolds(op, entry.compare(lit));
    table[c] = m ? 1 : 0;
    if (m) ++match_count;
  }
  if (match_count == 0) {
    // Dictionary miss: no row can match. AllZeros TRUE set, every valid
    // row FALSE — without reading a single code.
    out->is_true = BitVector(num_rows, false);
    out->is_false = dict.validity;
    return true;
  }
  if (match_count == dict_size) {
    out->is_true = dict.validity;
    out->is_false = BitVector(num_rows, false);
    return true;
  }
  // One (mis)matching entry makes the row test a pure code == constant
  // compare; otherwise (range ops, multi-hit CONTAINS) rows gather through
  // the per-entry match table.
  const bool single = match_count == 1 || match_count + 1 == dict_size;
  const uint8_t invert = match_count != 1 ? 1 : 0;
  uint32_t target = 0;
  for (uint32_t e = 0; e < dict_size; ++e) {
    if (table[e] != invert) target = e;
  }
  const uint8_t* FEISU_RESTRICT t = table.data();
  const size_t num_words = (static_cast<size_t>(num_rows) + 63) / 64;
  std::vector<uint64_t> mwords(num_words, 0);
  uint32_t max_code = 0;
  uint32_t c[64];
  uint8_t m[64];
  for (size_t w = 0; w < num_words; ++w) {
    // The word's codes, copied out of the (unaligned) payload; a short
    // last word pads with code 0, whose bits FromWords clears.
    const size_t base = w * 64;
    const char* src = dict.codes + base * sizeof(uint32_t);
    if (base + 64 <= num_rows) {
      std::memcpy(c, src, sizeof(c));
    } else {
      std::memset(c, 0, sizeof(c));
      std::memcpy(c, src, (num_rows - base) * sizeof(uint32_t));
    }
    if (single) {
      for (unsigned k = 0; k < 64; ++k) {
        m[k] = static_cast<uint8_t>(c[k] == target) ^ invert;
        max_code = c[k] > max_code ? c[k] : max_code;
      }
    } else {
      // Bounds first: the gather must not read past the table.
      for (unsigned k = 0; k < 64; ++k) {
        max_code = c[k] > max_code ? c[k] : max_code;
      }
      if (max_code >= dict_size) break;
      for (unsigned k = 0; k < 64; ++k) m[k] = t[c[k]];
    }
    mwords[w] = PackMatchBytes(m);
  }
  if (max_code >= dict_size) {
    return Status::Corruption("dict code OOB");
  }
  FinishPredicateBits(BitVector::FromWords(std::move(mwords), num_rows),
                      dict.validity, out);
  return true;
}

// The codes c in [0, search_max] whose value base + c satisfies
// `value OP rhs`, as one range [lo, hi] (empty when lo > hi) that kNe
// complements. The value is non-decreasing in c and CompareNumbers is a
// total order, so the codes below, at and above rhs form three contiguous
// spans; two binary searches find their bounds. `op` is not kContains.
struct CodeRange {
  uint64_t lo = 1;
  uint64_t hi = 0;
  bool invert = false;
};

CodeRange MatchingCodes(CompareOp op, double rhs, int64_t base,
                        uint64_t search_max) {
  auto cmp_at = [base, rhs](uint64_t code) {
    return CompareNumbers(
        static_cast<double>(
            static_cast<int64_t>(static_cast<uint64_t>(base) + code)),
        rhs);
  };
  // The first code whose value is at least (`strict`: above) rhs.
  struct Bound {
    bool found;
    uint64_t code;
  };
  auto first = [&](bool strict) -> Bound {
    auto reached = [&](uint64_t code) {
      int cmp = cmp_at(code);
      return strict ? cmp > 0 : cmp >= 0;
    };
    if (!reached(search_max)) return {false, 0};
    uint64_t lo = 0;
    uint64_t hi = search_max;  // invariant: reached(hi)
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (reached(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return {true, lo};
  };
  const Bound ge = first(false);
  const Bound gt = first(true);
  // Codes from `from` up to, not including, `to` (through search_max when
  // `to` was not found).
  auto span = [search_max](uint64_t from, Bound to) -> CodeRange {
    if (!to.found) return {from, search_max, false};
    if (to.code <= from) return {};
    return {from, to.code - 1, false};
  };
  CodeRange equal = ge.found ? span(ge.code, gt) : CodeRange{};
  switch (op) {
    case CompareOp::kLt:
      return span(0, ge);
    case CompareOp::kLe:
      return span(0, gt);
    case CompareOp::kGt:
      return gt.found ? CodeRange{gt.code, search_max, false} : CodeRange{};
    case CompareOp::kGe:
      return ge.found ? CodeRange{ge.code, search_max, false} : CodeRange{};
    case CompareOp::kEq:
      return equal;
    case CompareOp::kNe:
      equal.invert = true;
      return equal;
    case CompareOp::kContains:
      break;
  }
  return {};
}

// RLE kernel: one range test per run, one word-level SetRange per streak
// of matching runs. The emitted bitmap is run-granular, so its SerializeRle
// form stays proportional to the run count and feeds the RleAnd/RleOr
// algebra without inflating.
Result<bool> EncodedCompareRleInt64(const std::string& in, CompareOp op,
                                    const Value& literal,
                                    TriStateVector* out) {
  size_t pos = 0;
  uint32_t num_rows = 0;
  BitVector validity;
  if (!ReadHeader(in, &pos, &num_rows, &validity)) {
    return Status::Corruption("bad RLE column header");
  }
  DecodeTally tally;
  if (literal.is_null()) {
    AllUnknownBits(num_rows, out);
    tally.skipped_encoded = num_rows;
    ++tally.predicates_encoded;
    return true;
  }
  if (!literal.is_numeric() || op == CompareOp::kContains) {
    return false;
  }
  // Values are codes offset by INT64_MIN, so one range covers every int64
  // and each run costs two integer compares.
  const int64_t base = std::numeric_limits<int64_t>::min();
  const CodeRange range =
      MatchingCodes(op, literal.AsDouble(), base, ~uint64_t{0});
  BitVector match(num_rows, false);
  // Rows [streak, produced) are consecutive matching runs, filled by one
  // SetRange when a non-matching run (or the end) closes them.
  uint32_t streak = 0;
  uint32_t produced = 0;
  while (produced < num_rows) {
    int64_t value = 0;
    uint32_t run = 0;
    if (!ReadScalar(in, &pos, &value) || !ReadScalar(in, &pos, &run)) {
      return Status::Corruption("truncated RLE run");
    }
    if (produced + run > num_rows) {
      return Status::Corruption("RLE overrun");
    }
    const uint64_t code =
        static_cast<uint64_t>(value) - static_cast<uint64_t>(base);
    if ((code >= range.lo && code <= range.hi) == range.invert) {
      if (streak < produced) match.SetRange(streak, produced, true);
      streak = produced + run;
    }
    produced += run;
  }
  if (streak < produced) match.SetRange(streak, produced, true);
  tally.skipped_encoded = num_rows;
  ++tally.predicates_encoded;
  FinishPredicateBits(std::move(match), validity, out);
  return true;
}

// Bit-pack kernel. value = min + code is monotone in the code, so the
// codes satisfying any single comparison are one MatchingCodes range
// (complemented for !=) — then the row loop is a word-at-a-time
// extraction plus two unsigned compares, branchless end to end.
Result<bool> EncodedCompareBitPack(const std::string& in, CompareOp op,
                                   const Value& literal,
                                   TriStateVector* out) {
  size_t pos = 0;
  uint32_t num_rows = 0;
  BitVector validity;
  if (!ReadHeader(in, &pos, &num_rows, &validity)) {
    return Status::Corruption("bad bit-pack column header");
  }
  DecodeTally tally;
  if (literal.is_null()) {
    AllUnknownBits(num_rows, out);
    tally.skipped_encoded = num_rows;
    ++tally.predicates_encoded;
    return true;
  }
  if (!literal.is_numeric() || op == CompareOp::kContains) {
    return false;
  }
  int64_t min = 0;
  uint8_t width = 0;
  if (!ReadScalar(in, &pos, &min) || !ReadScalar(in, &pos, &width) ||
      width == 0 || width > 64) {
    return Status::Corruption("bad bit-pack parameters");
  }
  size_t total_bits = static_cast<size_t>(num_rows) * width;
  size_t words = (total_bits + 63) / 64;
  if (pos + words * sizeof(uint64_t) > in.size()) {
    return Status::Corruption("truncated bit-pack payload");
  }
  uint64_t domain_max = width == 64 ? ~0ULL : ((1ULL << width) - 1);
  // Clamp the searched domain so min + code cannot overflow int64: every
  // code produced by the encoder satisfies min + code <= max <= INT64_MAX,
  // so real codes always fall inside the clamped (still monotone) domain.
  uint64_t safe_max =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) -
      static_cast<uint64_t>(min);
  uint64_t search_max = std::min(domain_max, safe_max);
  const CodeRange range =
      MatchingCodes(op, literal.AsDouble(), min, search_max);
  tally.skipped_encoded = num_rows;
  ++tally.predicates_encoded;
  const bool invert = range.invert;
  bool range_all = range.lo == 0 && range.hi >= search_max;
  bool range_none = range.lo > range.hi;
  if ((range_all && !invert) || (range_none && invert)) {
    out->is_true = validity;
    out->is_false = BitVector(num_rows, false);
    return true;
  }
  if ((range_none && !invert) || (range_all && invert)) {
    out->is_true = BitVector(num_rows, false);
    out->is_false = validity;
    return true;
  }
  // One pad word lets every row read two adjacent words unconditionally,
  // keeping the extraction loop branch-free.
  std::vector<uint64_t> packed(words + 1, 0);
  std::memcpy(packed.data(), in.data() + pos, words * sizeof(uint64_t));
  std::vector<uint64_t> mwords((static_cast<size_t>(num_rows) + 63) / 64, 0);
  const uint64_t* FEISU_RESTRICT w = packed.data();
  uint64_t* FEISU_RESTRICT mw = mwords.data();
  const uint64_t rlo = range.lo;
  const uint64_t rhi = range.hi;
  const uint64_t inv = invert ? 1 : 0;
  for (uint32_t i = 0; i < num_rows; ++i) {
    size_t bit = static_cast<size_t>(i) * width;
    size_t idx = bit >> 6;
    unsigned shift = static_cast<unsigned>(bit & 63);
    // (x << 1) << (63 - shift) is x << (64 - shift) without the undefined
    // 64-bit shift at shift == 0 (where the high word contributes nothing).
    uint64_t v =
        (w[idx] >> shift) | ((w[idx + 1] << 1) << (63 - shift));
    v &= domain_max;
    uint64_t m = (static_cast<uint64_t>(v >= rlo) &
                  static_cast<uint64_t>(v <= rhi)) ^
                 inv;
    mw[i >> 6] |= m << (i & 63);
  }
  FinishPredicateBits(BitVector::FromWords(std::move(mwords), num_rows),
                      validity, out);
  return true;
}

// Cheap statistics used to auto-pick an encoding.
Encoding ChooseEncoding(const ColumnVector& col) {
  if (col.size() < 16) return Encoding::kPlain;
  switch (col.type()) {
    case DataType::kInt64: {
      const auto& v = col.ints();
      size_t runs = 1;
      int64_t min = v.empty() ? 0 : v[0];
      int64_t max = min;
      for (size_t i = 1; i < v.size(); ++i) {
        if (v[i] != v[i - 1]) ++runs;
        if (v[i] < min) min = v[i];
        if (v[i] > max) max = v[i];
      }
      // RLE pays off when a run covers >= 4 values on average.
      if (runs * 4 <= v.size()) return Encoding::kRle;
      // Otherwise frame-of-reference bit packing when the value range is
      // materially narrower than 64 bits.
      // Unsigned subtraction: `max - min` overflows int64_t on wide ranges.
      uint64_t range =
          static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
      int width = 1;
      while (width < 64 && (range >> width) != 0) ++width;
      return width <= 32 ? Encoding::kBitPack : Encoding::kPlain;
    }
    case DataType::kBool:
      return Encoding::kRle;
    case DataType::kString: {
      const auto& v = col.strings();
      std::unordered_map<std::string_view, int> distinct;
      for (const auto& s : v) {
        distinct.emplace(s, 0);
        if (distinct.size() * 4 > v.size()) return Encoding::kPlain;
      }
      return Encoding::kDict;
    }
    case DataType::kDouble:
      return Encoding::kPlain;
  }
  return Encoding::kPlain;
}

}  // namespace

const char* EncodingName(Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlain:
      return "PLAIN";
    case Encoding::kRle:
      return "RLE";
    case Encoding::kDict:
      return "DICT";
    case Encoding::kBitPack:
      return "BITPACK";
  }
  return "UNKNOWN";
}

EncodedColumn EncodeColumn(const ColumnVector& column) {
  return EncodeColumnAs(column, ChooseEncoding(column));
}

EncodedColumn EncodeColumnAs(const ColumnVector& column, Encoding encoding) {
  EncodedColumn out;
  if (encoding == Encoding::kRle && column.type() == DataType::kInt64) {
    out.encoding = Encoding::kRle;
    out.payload = EncodeRleInt64(column);
  } else if (encoding == Encoding::kRle && column.type() == DataType::kBool) {
    out.encoding = Encoding::kRle;
    out.payload = EncodeRleBool(column);
  } else if (encoding == Encoding::kDict &&
             column.type() == DataType::kString) {
    out.encoding = Encoding::kDict;
    out.payload = EncodeDictString(column);
  } else if (encoding == Encoding::kBitPack &&
             column.type() == DataType::kInt64) {
    out.encoding = Encoding::kBitPack;
    out.payload = EncodeBitPackInt64(column);
  } else {
    out.encoding = Encoding::kPlain;
    out.payload = EncodePlain(column);
  }
  return out;
}

Result<ColumnVector> DecodeColumn(DataType type, const EncodedColumn& encoded,
                                  const BitVector* selection) {
  switch (encoded.encoding) {
    case Encoding::kPlain:
      return DecodePlain(type, encoded.payload, selection);
    case Encoding::kRle:
      return DecodeRle(type, encoded.payload, selection);
    case Encoding::kDict:
      return DecodeDict(type, encoded.payload, selection);
    case Encoding::kBitPack:
      return DecodeBitPack(type, encoded.payload, selection);
  }
  return Status::Corruption("unknown encoding");
}

void FinishPredicateBits(BitVector match, const BitVector& valid,
                         TriStateVector* out) {
  out->is_true = BitVector::And(match, valid);
  match.Not();
  match.And(valid);
  out->is_false = std::move(match);
}

Result<bool> TryEvaluateEncodedCompare(DataType type,
                                       const EncodedColumn& encoded,
                                       CompareOp op, const Value& literal,
                                       TriStateVector* out) {
  switch (encoded.encoding) {
    case Encoding::kDict:
      if (type != DataType::kString) return false;
      return EncodedCompareDict(encoded.payload, op, literal, out);
    case Encoding::kRle:
      if (type != DataType::kInt64) return false;
      return EncodedCompareRleInt64(encoded.payload, op, literal, out);
    case Encoding::kBitPack:
      if (type != DataType::kInt64) return false;
      return EncodedCompareBitPack(encoded.payload, op, literal, out);
    case Encoding::kPlain:
      break;
  }
  return false;
}

Result<bool> TryExtractDictCodes(const EncodedColumn& encoded,
                                 const BitVector* selection,
                                 DictColumnCodes* out) {
  if (encoded.encoding != Encoding::kDict) return false;
  DictPayload dict;
  FEISU_RETURN_IF_ERROR(ReadDictPayload(encoded.payload, &dict));
  FEISU_RETURN_IF_ERROR(CheckSelection(selection, dict.num_rows));
  out->codes.clear();
  bool bad_code = false;
  auto append = [&](size_t i) {
    uint32_t code = dict.CodeAt(i);
    if (code >= dict.entries.size()) {
      bad_code = true;
      return;
    }
    out->codes.push_back(dict.validity.Get(i) ? code
                                              : DictColumnCodes::kNullCode);
  };
  if (selection != nullptr) {
    out->codes.reserve(selection->CountOnes());
    selection->ForEachSetBit(append);
  } else {
    out->codes.reserve(dict.num_rows);
    for (uint32_t i = 0; i < dict.num_rows; ++i) append(i);
  }
  if (bad_code) return Status::Corruption("dict code OOB");
  out->entries.assign(dict.entries.begin(), dict.entries.end());
  return true;
}

DecodeCounters GetDecodeCounters() {
  DecodeCounters out;
  out.values_materialized =
      g_values_materialized.load(std::memory_order_relaxed);
  out.values_skipped = g_values_skipped.load(std::memory_order_relaxed);
  out.runs_skipped = g_runs_skipped.load(std::memory_order_relaxed);
  out.values_skipped_encoded =
      g_values_skipped_encoded.load(std::memory_order_relaxed);
  out.predicates_encoded =
      g_predicates_encoded.load(std::memory_order_relaxed);
  out.predicates_fallback =
      g_predicates_fallback.load(std::memory_order_relaxed);
  return out;
}

void ResetDecodeCounters() {
  g_values_materialized.store(0, std::memory_order_relaxed);
  g_values_skipped.store(0, std::memory_order_relaxed);
  g_runs_skipped.store(0, std::memory_order_relaxed);
  g_values_skipped_encoded.store(0, std::memory_order_relaxed);
  g_predicates_encoded.store(0, std::memory_order_relaxed);
  g_predicates_fallback.store(0, std::memory_order_relaxed);
}

void NoteEncodedPredicateFallback() {
  g_predicates_fallback.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace feisu
