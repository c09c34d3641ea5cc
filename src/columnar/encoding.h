#ifndef FEISU_COLUMNAR_ENCODING_H_
#define FEISU_COLUMNAR_ENCODING_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "columnar/column_vector.h"
#include "columnar/value.h"

namespace feisu {

/// Column encodings used inside ColumnarBlock. Feisu's format is
/// "compression-friendly": the encoder picks the cheapest representation
/// per column chunk based on simple data statistics.
enum class Encoding : uint8_t {
  kPlain = 0,    ///< raw values
  kRle = 1,      ///< (value, run-length) pairs — int64/bool with long runs
  kDict = 2,     ///< dictionary + codes — low-cardinality strings
  kBitPack = 3,  ///< frame-of-reference bit packing — small-domain int64
};

const char* EncodingName(Encoding encoding);

/// A serialized column chunk: chosen encoding + payload bytes (which embed
/// the validity bitmap first).
struct EncodedColumn {
  Encoding encoding = Encoding::kPlain;
  std::string payload;
};

/// Encodes a column, automatically choosing the encoding.
EncodedColumn EncodeColumn(const ColumnVector& column);

/// Encodes with a forced encoding (tests / ablations). Falls back to plain
/// if the encoding does not apply to the column type.
EncodedColumn EncodeColumnAs(const ColumnVector& column, Encoding encoding);

/// Decodes an encoded chunk back into a column of `type`.
///
/// With a non-null `selection` (selection.size() == encoded row count) only
/// rows whose bit is set are materialized, in row order — the result is
/// byte-identical to a full decode followed by ColumnVector::Filter, minus
/// the cost: RLE runs and bit-packed pages whose row range has no set bit
/// are skipped outright, and fixed-width codecs random-access straight to
/// the selected slots.
Result<ColumnVector> DecodeColumn(DataType type, const EncodedColumn& encoded,
                                  const BitVector* selection = nullptr);

/// Kleene three-valued predicate result: a row is TRUE, FALSE, or UNKNOWN
/// (neither bit set, from NULL operands). SQL selection keeps only TRUE
/// rows, but the FALSE set is what a negated predicate's SmartIndex must
/// store — bit-NOT of the TRUE set would wrongly select UNKNOWN rows.
struct TriStateVector {
  BitVector is_true;
  BitVector is_false;
};

/// The Kleene finish every comparison kernel shares: TRUE = match on a
/// valid row, FALSE = mismatch on a valid row; a row that is not valid (a
/// NULL operand) sets neither bit. Word-level AND/NOT, no per-row work.
void FinishPredicateBits(BitVector match, const BitVector& valid,
                         TriStateVector* out);

// ---- Compressed-domain predicate kernels. ----
//
// These evaluate `column OP literal` directly over the encoded payload and
// never materialize a ColumnVector: dictionary columns translate the
// literal into code space once and compare uint32 codes (an equality miss
// in the dictionary short-circuits to an all-zero match without touching a
// single row); RLE columns test each run once and fill the bitmap
// run-granularly (one word-level SetRange per run); bit-packed ints map
// the comparison onto a contiguous code range via the frame-of-reference
// monotonicity and run a branchless word-extraction compare. Every value
// comparison goes through CompareNumbers/CompareOpHolds (value.h), so
// results are byte-identical to decode-then-evaluate
// (tests/materialize_test.cc pins the full grid).

/// Evaluates `column OP literal` over the encoded payload when a kernel
/// applies. Returns true and fills `out` on success; returns false (with
/// `out` untouched) when no kernel covers the combination — the caller
/// falls back to decode-then-evaluate. Returns an error Status only for
/// corrupt payloads. Supported combinations:
///   - kDict  + string column + string literal, every op incl. kContains;
///   - kRle   + int64 column + numeric literal, every op but kContains;
///   - kBitPack + int64 column + numeric literal, every op but kContains;
///   - a NULL literal over any of the above (all rows UNKNOWN).
Result<bool> TryEvaluateEncodedCompare(DataType type,
                                       const EncodedColumn& encoded,
                                       CompareOp op, const Value& literal,
                                       TriStateVector* out);

/// A dictionary column cracked open for code-domain group-by: the
/// dictionary entries plus one code per emitted row (rows follow
/// `selection` order, exactly like DecodeColumn with the same selection).
/// NULL rows carry kNullCode. Codes are an internal representation — they
/// feed the leaf-local Aggregator and never cross the wire (partial
/// batches always carry materialized strings; DESIGN.md §ownership).
struct DictColumnCodes {
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;
  std::vector<std::string> entries;
  std::vector<uint32_t> codes;
};

/// Extracts dictionary entries and per-row codes from a kDict column.
/// Returns false when the column is not dictionary-encoded; an error
/// Status on corrupt payloads.
Result<bool> TryExtractDictCodes(const EncodedColumn& encoded,
                                 const BitVector* selection,
                                 DictColumnCodes* out);

/// Process-wide decode instrumentation (relaxed atomics, cheap enough to
/// stay on in production builds). `values_materialized` counts appended
/// output values; `values_skipped` counts encoded slots passed over by a
/// selection; `runs_skipped` counts whole RLE runs skipped without reading
/// their row range. The compressed-domain path adds per-path counters:
/// `values_skipped_encoded` counts rows whose predicate was answered
/// without materializing the value, `predicates_encoded` counts kernel
/// hits, and `predicates_fallback` counts comparisons that had to decode
/// (bumped by the evaluator via NoteEncodedPredicateFallback).
struct DecodeCounters {
  uint64_t values_materialized = 0;
  uint64_t values_skipped = 0;
  uint64_t runs_skipped = 0;
  uint64_t values_skipped_encoded = 0;
  uint64_t predicates_encoded = 0;
  uint64_t predicates_fallback = 0;
};
DecodeCounters GetDecodeCounters();
void ResetDecodeCounters();

/// Records one predicate that fell back from the encoded path to
/// decode-then-evaluate (see DecodeCounters::predicates_fallback).
void NoteEncodedPredicateFallback();

}  // namespace feisu

#endif  // FEISU_COLUMNAR_ENCODING_H_
