// Late-materialization differential and property tests: selective decode
// must be byte-identical to full-decode-then-Filter for every encoding ×
// type × selectivity, and the RLE-domain bitmap algebra must match the
// word-level reference without ever inflating an operand.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "columnar/block.h"
#include "columnar/column_vector.h"
#include "columnar/encoding.h"
#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "common/bit_vector.h"
#include "common/rng.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "expr/normalize.h"

namespace feisu {
namespace {

// ---------- Test-data generators ----------

// Columns are built with runs and repeated values on purpose so RLE, dict
// and bit-pack all have something to exploit.
ColumnVector MakeColumn(DataType type, size_t rows, bool with_nulls,
                        uint64_t seed) {
  Rng rng(seed);
  ColumnVector col(type);
  size_t i = 0;
  while (i < rows) {
    size_t run = 1 + rng.NextUint64(9);  // runs of 1..9 repeated values
    bool is_null = with_nulls && rng.NextBool(0.15);
    int64_t iv = rng.NextInt64(0, 40);
    double dv = rng.NextDouble() * 100.0;
    bool bv = rng.NextBool(0.5);
    std::string sv = "v";
    sv += std::to_string(rng.NextUint64(12));
    for (size_t k = 0; k < run && i < rows; ++k, ++i) {
      if (is_null) {
        col.AppendNull();
        continue;
      }
      switch (type) {
        case DataType::kBool:
          col.AppendBool(bv);
          break;
        case DataType::kInt64:
          col.AppendInt64(iv);
          break;
        case DataType::kDouble:
          col.AppendDouble(dv);
          break;
        case DataType::kString:
          col.AppendString(sv);
          break;
      }
    }
  }
  return col;
}

// The selectivity grid the issue calls for: no rows, one row, ~half, all.
std::vector<BitVector> SelectionGrid(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> grid;
  grid.emplace_back(rows, false);
  if (rows > 0) {
    BitVector one(rows, false);
    one.Set(rng.NextUint64(rows), true);
    grid.push_back(std::move(one));
    BitVector half(rows, false);
    for (size_t i = 0; i < rows; ++i) half.Set(i, rng.NextBool(0.5));
    // The half selection cut to its first set bits: what an unordered
    // LIMIT leaf decodes through.
    BitVector head = half;
    head.KeepFirstSetBits(head.CountOnes() / 3);
    grid.push_back(std::move(head));
    grid.push_back(std::move(half));
    // Clustered low selectivity: a single short range of set bits, the
    // shape where run skipping actually pays.
    BitVector clustered(rows, false);
    size_t begin = rows / 3;
    for (size_t i = begin; i < begin + 5 && i < rows; ++i) {
      clustered.Set(i, true);
    }
    grid.push_back(std::move(clustered));
  }
  grid.emplace_back(rows, true);
  return grid;
}

// Byte-level column equality via the plain codec (GetValue comparison would
// mask e.g. a double bit pattern change).
void ExpectSameColumn(const ColumnVector& a, const ColumnVector& b) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(EncodeColumnAs(a, Encoding::kPlain).payload,
            EncodeColumnAs(b, Encoding::kPlain).payload);
}

// ---------- Selective decode: differential grid ----------

TEST(SelectiveDecodeTest, MatchesFullDecodeThenFilterEverywhere) {
  const DataType kTypes[] = {DataType::kBool, DataType::kInt64,
                             DataType::kDouble, DataType::kString};
  const Encoding kEncodings[] = {Encoding::kPlain, Encoding::kRle,
                                 Encoding::kDict, Encoding::kBitPack};
  const size_t kSizes[] = {0, 1, 64, 777};
  for (DataType type : kTypes) {
    for (Encoding encoding : kEncodings) {
      for (size_t rows : kSizes) {
        for (bool with_nulls : {false, true}) {
          ColumnVector col = MakeColumn(type, rows, with_nulls, rows + 17);
          // EncodeColumnAs falls back to plain when the encoding does not
          // apply to the type, so every combination is exercised safely.
          EncodedColumn encoded = EncodeColumnAs(col, encoding);
          auto full = DecodeColumn(type, encoded);
          ASSERT_TRUE(full.ok()) << full.status().ToString();
          for (const BitVector& selection : SelectionGrid(rows, rows + 3)) {
            auto selective = DecodeColumn(type, encoded, &selection);
            ASSERT_TRUE(selective.ok())
                << EncodingName(encoding) << ": "
                << selective.status().ToString();
            ExpectSameColumn(full->Filter(selection), *selective);
          }
        }
      }
    }
  }
}

TEST(SelectiveDecodeTest, SelectionSizeMismatchIsRejected) {
  ColumnVector col = MakeColumn(DataType::kInt64, 100, false, 5);
  EncodedColumn encoded = EncodeColumnAs(col, Encoding::kRle);
  BitVector wrong(99, true);
  EXPECT_TRUE(
      DecodeColumn(DataType::kInt64, encoded, &wrong).status()
          .IsInvalidArgument());
}

TEST(SelectiveDecodeTest, CountersShowSkippedWorkAtLowSelectivity) {
  // A long constant column forces one fat RLE run; selecting 2 rows must
  // materialize exactly 2 values and skip runs outright.
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 4096; ++i) col.AppendInt64(i / 1024);
  EncodedColumn encoded = EncodeColumnAs(col, Encoding::kRle);
  ASSERT_EQ(encoded.encoding, Encoding::kRle);
  BitVector selection(col.size(), false);
  selection.Set(10, true);
  selection.Set(4000, true);
  ResetDecodeCounters();
  auto out = DecodeColumn(DataType::kInt64, encoded, &selection);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  DecodeCounters counters = GetDecodeCounters();
  EXPECT_EQ(counters.values_materialized, 2u);
  EXPECT_EQ(counters.values_skipped, col.size() - 2);
  EXPECT_GT(counters.runs_skipped, 0u);
}

// ---------- Bulk materialization: typed storage vs a per-value reference

// Row i of `col` appended to `out` one value at a time (the reference every
// bulk path must reproduce: a NULL row stores 0 / false / "").
void AppendCellByValue(const ColumnVector& col, size_t i, ColumnVector* out) {
  if (col.IsNull(i)) {
    out->AppendNull();
    return;
  }
  switch (col.type()) {
    case DataType::kBool:
      out->AppendBool(col.GetBool(i));
      break;
    case DataType::kInt64:
      out->AppendInt64(col.GetInt64(i));
      break;
    case DataType::kDouble:
      out->AppendDouble(col.GetDouble(i));
      break;
    case DataType::kString:
      out->AppendString(col.GetString(i));
      break;
  }
}

// Typed storage (NULL slots included) and validity are equal; doubles
// bit for bit.
void ExpectSameStorage(const ColumnVector& expected, const ColumnVector& got,
                       const std::string& label) {
  ASSERT_EQ(expected.type(), got.type()) << label;
  ASSERT_EQ(expected.size(), got.size()) << label;
  EXPECT_TRUE(expected.validity() == got.validity()) << label;
  EXPECT_EQ(expected.bools(), got.bools()) << label;
  EXPECT_EQ(expected.ints(), got.ints()) << label;
  EXPECT_EQ(expected.strings(), got.strings()) << label;
  ASSERT_EQ(expected.doubles().size(), got.doubles().size()) << label;
  if (!got.doubles().empty()) {
    EXPECT_EQ(std::memcmp(expected.doubles().data(), got.doubles().data(),
                          got.doubles().size() * sizeof(double)),
              0)
        << label;
  }
}

// The selected rows of `col`, appended value by value.
ColumnVector SelectByValue(const ColumnVector& col, const BitVector* sel) {
  ColumnVector out(col.type());
  for (size_t i = 0; i < col.size(); ++i) {
    if (sel == nullptr || sel->Get(i)) AppendCellByValue(col, i, &out);
  }
  return out;
}

TEST(BulkDecodeTest, TypedStorageMatchesPerValueReference) {
  const DataType kTypes[] = {DataType::kBool, DataType::kInt64,
                             DataType::kDouble, DataType::kString};
  const Encoding kEncodings[] = {Encoding::kPlain, Encoding::kRle,
                                 Encoding::kDict, Encoding::kBitPack};
  for (DataType type : kTypes) {
    for (Encoding encoding : kEncodings) {
      for (size_t rows : {size_t{0}, size_t{1}, size_t{64}, size_t{777}}) {
        for (bool with_nulls : {false, true}) {
          ColumnVector col = MakeColumn(type, rows, with_nulls, rows + 29);
          EncodedColumn encoded = EncodeColumnAs(col, encoding);
          std::string label = std::string(EncodingName(encoded.encoding)) +
                              " " + DataTypeName(type) + " rows=" +
                              std::to_string(rows) +
                              (with_nulls ? " nulls" : "");
          auto full = DecodeColumn(type, encoded);
          ASSERT_TRUE(full.ok()) << label;
          ExpectSameStorage(SelectByValue(col, nullptr), *full, label);
          for (const BitVector& selection : SelectionGrid(rows, rows + 5)) {
            auto selective = DecodeColumn(type, encoded, &selection);
            ASSERT_TRUE(selective.ok()) << label;
            ExpectSameStorage(SelectByValue(col, &selection), *selective,
                              label + " selective");
            ExpectSameStorage(SelectByValue(col, &selection),
                              col.Filter(selection), label + " Filter");
          }
        }
      }
    }
  }
}

// The plain decoder walks a string payload only up to the selection's last
// set bit. Empty, prefix-only (an unordered LIMIT's KeepFirstSetBits),
// scattered and full selections on every plain type equal the per-value
// reference; a string payload cut anywhere up to the end of the last
// selected row is still Corruption, while bytes after it are never read.
TEST(BulkDecodeTest, PlainDecodeStopsAtLastSelectedRow) {
  constexpr size_t kRows = 300;
  BitVector scattered(kRows, false);
  for (size_t i = 0; i < kRows; i += 7) scattered.Set(i, true);
  BitVector prefix = scattered;
  prefix.KeepFirstSetBits(10);  // last selected row: 63
  const BitVector kSelections[] = {BitVector(kRows, false), prefix, scattered,
                                   BitVector(kRows, true)};
  const char* const kNames[] = {"empty", "prefix", "scattered", "full"};
  for (DataType type : {DataType::kBool, DataType::kInt64, DataType::kDouble,
                        DataType::kString}) {
    ColumnVector col = MakeColumn(type, kRows, true, 41);
    EncodedColumn encoded = EncodeColumnAs(col, Encoding::kPlain);
    ASSERT_EQ(encoded.encoding, Encoding::kPlain);
    for (size_t s = 0; s < 4; ++s) {
      std::string label = std::string(DataTypeName(type)) + " " + kNames[s];
      auto decoded = DecodeColumn(type, encoded, &kSelections[s]);
      ASSERT_TRUE(decoded.ok()) << label;
      ExpectSameStorage(SelectByValue(col, &kSelections[s]), *decoded, label);
    }
  }

  ColumnVector col = MakeColumn(DataType::kString, kRows, true, 43);
  const std::string payload =
      EncodeColumnAs(col, Encoding::kPlain).payload;
  // Byte offset where row 63's length prefix starts and where its bytes
  // end: every row after it takes a 4-byte length plus its bytes.
  size_t row_end = payload.size();
  for (size_t i = kRows - 1; i > 63; --i) {
    row_end -= 4 + col.strings()[i].size();
  }
  const size_t row_begin = row_end - 4 - col.strings()[63].size();
  for (size_t cut : {row_begin, row_begin + 2, row_end - 1}) {
    EncodedColumn truncated{Encoding::kPlain, payload.substr(0, cut)};
    EXPECT_TRUE(DecodeColumn(DataType::kString, truncated, &prefix)
                    .status()
                    .IsCorruption())
        << "cut at " << cut;
  }
  EncodedColumn tail_cut{Encoding::kPlain, payload.substr(0, row_end)};
  auto head = DecodeColumn(DataType::kString, tail_cut, &prefix);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  ExpectSameStorage(SelectByValue(col, &prefix), *head, "string tail cut");
  EncodedColumn empty_cut{Encoding::kPlain, payload.substr(0, row_begin)};
  EXPECT_TRUE(DecodeColumn(DataType::kString, empty_cut, &kSelections[0]).ok());
}

// Bit-packed NULL rows encode as the frame minimum; decoded, their slot
// must still hold 0, not the minimum.
TEST(BulkDecodeTest, BitPackNullSlotsHoldZero) {
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 130; ++i) {
    if (i % 7 == 3) {
      col.AppendNull();
    } else {
      col.AppendInt64(1000 + i % 11);
    }
  }
  EncodedColumn encoded = EncodeColumnAs(col, Encoding::kBitPack);
  ASSERT_EQ(encoded.encoding, Encoding::kBitPack);
  auto full = DecodeColumn(DataType::kInt64, encoded);
  ASSERT_TRUE(full.ok());
  ExpectSameStorage(col, *full, "bit-pack full");
  EXPECT_EQ(full->ints()[3], 0);
  BitVector selection(col.size(), false);
  for (size_t i = 0; i < col.size(); i += 3) selection.Set(i, true);
  auto selective = DecodeColumn(DataType::kInt64, encoded, &selection);
  ASSERT_TRUE(selective.ok());
  ExpectSameStorage(SelectByValue(col, &selection), *selective,
                    "bit-pack selective");
}

// Long RLE runs cut by a selection that starts, ends and skips mid-run:
// each kept piece of a run fills only its selected rows.
TEST(BulkDecodeTest, RleRunsCutBySelection) {
  for (DataType type : {DataType::kInt64, DataType::kBool}) {
    ColumnVector col(type);
    for (int run = 0; run < 7; ++run) {
      for (int k = 0; k < 100; ++k) {
        if (run == 4 && k >= 40 && k < 60) {
          col.AppendNull();
        } else if (type == DataType::kInt64) {
          col.AppendInt64(run * 10 + 5);
        } else {
          col.AppendBool(run % 2 == 0);
        }
      }
    }
    EncodedColumn encoded = EncodeColumnAs(col, Encoding::kRle);
    ASSERT_EQ(encoded.encoding, Encoding::kRle);
    BitVector selection(col.size(), false);
    selection.SetRange(50, 150, true);   // second half of run 0, half of 1
    selection.Set(230, true);            // one row inside run 2
    selection.SetRange(399, 451, true);  // last row of run 3 into the NULLs
    selection.SetRange(455, 470, true);  // NULL rows to valid rows
    // Runs 5 and 6 stay unselected.
    ResetDecodeCounters();
    auto out = DecodeColumn(type, encoded, &selection);
    ASSERT_TRUE(out.ok());
    ExpectSameStorage(SelectByValue(col, &selection), *out,
                      DataTypeName(type));
    DecodeCounters counters = GetDecodeCounters();
    EXPECT_EQ(counters.values_materialized, selection.CountOnes());
    EXPECT_GE(counters.runs_skipped, 2u);  // runs 5 and 6 at least
  }
}

// Append at every alignment of the destination, with NULLs on both sides,
// equals appending the same rows one boxed value at a time.
TEST(BulkAppendTest, RecordBatchAppendMatchesAppendRow) {
  Schema schema({{"b", DataType::kBool, true},
                 {"i", DataType::kInt64, true},
                 {"d", DataType::kDouble, true},
                 {"s", DataType::kString, true}});
  auto make = [&](size_t rows, uint64_t seed) {
    std::vector<ColumnVector> cols;
    for (const Field& f : schema.fields()) {
      cols.push_back(MakeColumn(f.type, rows, true, seed++));
    }
    return RecordBatch(schema, std::move(cols));
  };
  for (size_t prefix : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                        size_t{65}, size_t{127}}) {
    for (size_t rows : {size_t{0}, size_t{1}, size_t{64}, size_t{200}}) {
      RecordBatch head = make(prefix, prefix + 1);
      RecordBatch tail = make(rows, rows + 100);
      RecordBatch bulk = head;
      ASSERT_TRUE(bulk.Append(tail).ok());
      RecordBatch by_row(schema);
      for (const RecordBatch* part : {&head, &tail}) {
        for (size_t r = 0; r < part->num_rows(); ++r) {
          std::vector<Value> row;
          for (size_t c = 0; c < part->num_columns(); ++c) {
            row.push_back(part->column(c).GetValue(r));
          }
          ASSERT_TRUE(by_row.AppendRow(row).ok());
        }
      }
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        ExpectSameStorage(by_row.column(c), bulk.column(c),
                          "prefix=" + std::to_string(prefix) +
                              " rows=" + std::to_string(rows) + " col " +
                              schema.field(c).name);
      }
    }
  }
}

TEST(BulkAppendTest, TakeAndGatherOrNullMatchPerValueReference) {
  for (DataType type : {DataType::kBool, DataType::kInt64, DataType::kDouble,
                        DataType::kString}) {
    for (bool with_nulls : {false, true}) {
      ColumnVector col = MakeColumn(type, 300, with_nulls, 31);
      Rng rng(12);
      std::vector<uint32_t> take;
      std::vector<int64_t> gather;
      ColumnVector take_ref(type);
      ColumnVector gather_ref(type);
      for (int i = 0; i < 150; ++i) {
        uint32_t idx = static_cast<uint32_t>(rng.NextUint64(col.size()));
        take.push_back(idx);
        AppendCellByValue(col, idx, &take_ref);
        bool pad = rng.NextBool(0.1);
        gather.push_back(pad ? -1 : static_cast<int64_t>(idx));
        if (pad) {
          gather_ref.AppendNull();
        } else {
          AppendCellByValue(col, idx, &gather_ref);
        }
      }
      ExpectSameStorage(take_ref, col.Take(take), "Take");
      ExpectSameStorage(gather_ref, col.GatherOrNull(gather), "GatherOrNull");
    }
  }
}

// ---------- BitVector bulk primitives vs PushBack ----------

// Bit patterns with all-zero, all-one and mixed words.
std::vector<BitVector> BitPatterns(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> out;
  out.emplace_back(n, false);
  out.emplace_back(n, true);
  BitVector mixed(n, false);
  for (size_t i = 0; i < n; ++i) {
    // Word 0 random, word 1 all ones, word 2 all zeros, then random.
    size_t w = i / 64;
    bool bit = w == 1 ? true : (w == 2 ? false : rng.NextBool(0.4));
    mixed.Set(i, bit);
  }
  out.push_back(std::move(mixed));
  return out;
}

BitVector PushBackCopy(const BitVector& bits, BitVector out) {
  for (size_t i = 0; i < bits.size(); ++i) out.PushBack(bits.Get(i));
  return out;
}

TEST(BitVectorBulkTest, AppendMatchesPushBack) {
  const size_t kOffsets[] = {0, 1, 63, 64, 65, 127};
  for (size_t offset : kOffsets) {
    for (const BitVector& head : BitPatterns(offset, offset + 1)) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{65},
                       size_t{200}}) {
        for (const BitVector& tail : BitPatterns(n, n + 7)) {
          BitVector bulk = head;
          bulk.Append(tail);
          BitVector reference = PushBackCopy(tail, head);
          EXPECT_TRUE(bulk == reference)
              << "offset " << offset << " + " << n << ": "
              << bulk.ToString() << " vs " << reference.ToString();
          EXPECT_EQ(bulk.CountOnes(), reference.CountOnes());
          // The trailing-bit invariant survives: Not() then Not() is exact.
          BitVector flipped = BitVector::Not(BitVector::Not(bulk));
          EXPECT_TRUE(flipped == reference);
        }
      }
    }
  }
}

TEST(BitVectorBulkTest, GatherMatchesPushBack) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{127}, size_t{128}, size_t{300}}) {
    std::vector<BitVector> selections = BitPatterns(n, n + 3);
    // Selections whose packed output starts each word at offset 0, 1, 63,
    // 64, 65 and 127: a prefix of that many set bits, then a sparse tail.
    for (size_t offset : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                          size_t{65}, size_t{127}}) {
      if (offset > n) continue;
      BitVector sel(n, false);
      sel.SetRange(0, offset, true);
      for (size_t i = offset; i < n; i += 3) sel.Set(i, true);
      selections.push_back(std::move(sel));
    }
    for (const BitVector& src : BitPatterns(n, n + 11)) {
      for (const BitVector& sel : selections) {
        BitVector reference;
        sel.ForEachSetBit([&](size_t i) { reference.PushBack(src.Get(i)); });
        BitVector gathered = BitVector::Gather(src, sel);
        EXPECT_TRUE(gathered == reference)
            << "n=" << n << " sel=" << sel.ToString() << "\n"
            << gathered.ToString() << " vs " << reference.ToString();
        EXPECT_EQ(gathered.size(), sel.CountOnes());
      }
    }
  }
}

// ---------- ColumnVector gather / filter helpers ----------

TEST(ColumnVectorGatherTest, GatherOrNullPadsNegativeIndices) {
  ColumnVector col(DataType::kString);
  col.AppendString("a");
  col.AppendNull();
  col.AppendString("c");
  ColumnVector out = col.GatherOrNull({2, -1, 0, 1, 2});
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.GetString(0), "c");
  EXPECT_TRUE(out.IsNull(1));
  EXPECT_EQ(out.GetString(2), "a");
  EXPECT_TRUE(out.IsNull(3));
  EXPECT_EQ(out.GetString(4), "c");
}

TEST(ColumnVectorGatherTest, GatherMatchesTakeOnNonNegativeIndices) {
  for (DataType type : {DataType::kBool, DataType::kInt64, DataType::kDouble,
                        DataType::kString}) {
    ColumnVector col = MakeColumn(type, 200, true, 9);
    Rng rng(11);
    std::vector<uint32_t> take;
    std::vector<int64_t> gather;
    for (int i = 0; i < 64; ++i) {
      uint32_t idx = static_cast<uint32_t>(rng.NextUint64(col.size()));
      take.push_back(idx);
      gather.push_back(idx);
    }
    ExpectSameColumn(col.Take(take), col.GatherOrNull(gather));
  }
}

// ---------- BitVector scan helpers ----------

TEST(BitVectorScanTest, AllZerosAllOnesEdgeSizes) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{1000}}) {
    EXPECT_TRUE(BitVector(n, false).AllZeros()) << n;
    EXPECT_TRUE(BitVector(n, true).AllOnes()) << n;
    if (n == 0) continue;
    EXPECT_FALSE(BitVector(n, false).AllOnes()) << n;
    EXPECT_FALSE(BitVector(n, true).AllZeros()) << n;
    BitVector almost_zero(n, false);
    almost_zero.Set(n / 2, true);
    EXPECT_FALSE(almost_zero.AllZeros()) << n;
    BitVector almost_one(n, true);
    almost_one.Set(n / 2, false);
    EXPECT_FALSE(almost_one.AllOnes()) << n;
  }
}

TEST(BitVectorScanTest, ForEachSetBitMatchesSetIndices) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    BitVector bits(517, false);
    for (size_t i = 0; i < bits.size(); ++i) bits.Set(i, rng.NextBool(0.2));
    std::vector<uint32_t> seen;
    bits.ForEachSetBit(
        [&seen](size_t i) { seen.push_back(static_cast<uint32_t>(i)); });
    EXPECT_EQ(seen, bits.SetIndices());
  }
}

TEST(BitVectorScanTest, KeepFirstSetBitsMatchesIndexPrefix) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{517}}) {
    for (double density : {0.0, 0.2, 1.0}) {
      Rng rng(n + 3);
      BitVector bits(n, false);
      for (size_t i = 0; i < n; ++i) bits.Set(i, rng.NextBool(density));
      const std::vector<uint32_t> all = bits.SetIndices();
      for (size_t keep : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                          all.size() / 2, all.size(), all.size() + 1}) {
        BitVector cut = bits;
        cut.KeepFirstSetBits(keep);
        std::vector<uint32_t> expected(
            all.begin(), all.begin() + std::min(keep, all.size()));
        EXPECT_EQ(cut.SetIndices(), expected)
            << n << " bits, density " << density << ", keep " << keep;
        EXPECT_EQ(cut.size(), n);
        EXPECT_EQ(cut.SetBitsEnd(),
                  expected.empty() ? size_t{0} : expected.back() + size_t{1});
      }
    }
  }
}

TEST(BitVectorScanTest, RangeScanRespectsBounds) {
  BitVector bits(200, false);
  bits.Set(3, true);
  bits.Set(64, true);
  bits.Set(130, true);
  bits.Set(199, true);
  std::vector<uint32_t> seen;
  bits.ForEachSetBitInRange(4, 199, [&seen](size_t i) {
    seen.push_back(static_cast<uint32_t>(i));
  });
  EXPECT_EQ(seen, (std::vector<uint32_t>{64, 130}));
  EXPECT_TRUE(bits.AnyInRange(0, 4));
  EXPECT_FALSE(bits.AnyInRange(4, 64));
  EXPECT_TRUE(bits.AnyInRange(64, 65));
  EXPECT_FALSE(bits.AnyInRange(131, 199));
  EXPECT_TRUE(bits.AnyInRange(131, 200));
  EXPECT_FALSE(bits.AnyInRange(10, 10));
}

// ---------- RLE-domain bitmap algebra ----------

// Blocky vectors: whole words of zeros/ones plus some mixed words, so the
// compressed form actually contains runs and literals.
BitVector BlockyBits(size_t size, uint64_t seed) {
  Rng rng(seed);
  BitVector bits(size, false);
  size_t i = 0;
  while (i < size) {
    uint64_t shape = rng.NextUint64(5);
    size_t span = (1 + rng.NextUint64(4)) * 64;  // 1..4 whole words
    for (size_t k = 0; k < span && i < size; ++k, ++i) {
      bool v = false;
      if (shape < 2) {
        v = false;  // zero run
      } else if (shape < 4) {
        v = true;  // one run
      } else {
        v = rng.NextBool(0.5);  // literal word(s)
      }
      bits.Set(i, v);
    }
  }
  return bits;
}

TEST(RleAlgebraTest, CombineMatchesWordLevelReferenceByteForByte) {
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    for (size_t size : {size_t{1}, size_t{64}, size_t{65}, size_t{640},
                        size_t{5000}}) {
      BitVector a = BlockyBits(size, seed);
      BitVector b = BlockyBits(size, seed * 31 + 1);
      const std::string ra = a.SerializeRle();
      const std::string rb = b.SerializeRle();

      uint64_t inflations_before = BitVector::inflation_count();
      std::string out_and;
      std::string out_or;
      std::string out_not;
      size_t tokens = 0;
      ASSERT_TRUE(BitVector::RleAnd(ra, rb, &out_and, &tokens));
      EXPECT_GT(tokens, 0u);
      ASSERT_TRUE(BitVector::RleOr(ra, rb, &out_or));
      ASSERT_TRUE(BitVector::RleNot(ra, &out_not));
      // The streamed merges must not have inflated either operand into a
      // word array — that is the whole point of the RLE domain.
      EXPECT_EQ(BitVector::inflation_count(), inflations_before);

      // Canonical output: byte-identical to the word-level op re-serialized.
      EXPECT_EQ(out_and, BitVector::And(a, b).SerializeRle());
      EXPECT_EQ(out_or, BitVector::Or(a, b).SerializeRle());
      EXPECT_EQ(out_not, BitVector::Not(a).SerializeRle());

      EXPECT_EQ(BitVector::RleCountOnes(ra), a.CountOnes());
      EXPECT_EQ(BitVector::RleCountOnes(out_and),
                BitVector::And(a, b).CountOnes());
      EXPECT_EQ(BitVector::RleSize(ra), size);
    }
  }
}

TEST(RleAlgebraTest, MalformedAndMismatchedInputsAreRejected) {
  BitVector a(128, true);
  BitVector b(256, true);
  std::string out;
  EXPECT_FALSE(BitVector::RleAnd(a.SerializeRle(), b.SerializeRle(), &out));
  EXPECT_FALSE(BitVector::RleOr(a.SerializeRle(), "garbage", &out));
  EXPECT_FALSE(BitVector::RleNot("", &out));
  EXPECT_EQ(BitVector::RleCountOnes("x"), SIZE_MAX);
  EXPECT_EQ(BitVector::RleSize(""), SIZE_MAX);
}

TEST(RleAlgebraTest, CombineCostScalesWithRunsNotRows) {
  // Two giant uniform vectors: millions of rows, a handful of tokens.
  const size_t kBits = 1 << 20;
  BitVector ones(kBits, true);
  BitVector zeros(kBits, false);
  std::string out;
  size_t tokens = 0;
  ASSERT_TRUE(
      BitVector::RleAnd(ones.SerializeRle(), zeros.SerializeRle(), &out,
                        &tokens));
  EXPECT_LE(tokens, 8u);  // vs. kBits/64 = 16384 words in the flat domain
  EXPECT_EQ(BitVector::RleCountOnes(out), 0u);
}

// ---------- Compressed-domain predicates: differential grid ----------

// The support matrix TryEvaluateEncodedCompare documents, spelled out so
// the grid below asserts handledness exactly — a silently shrinking kernel
// (everything falls back) or a silently growing one (untested combination
// claims to be handled) both fail here.
bool KernelShouldHandle(Encoding encoding, DataType type, CompareOp op,
                        const Value& literal) {
  switch (encoding) {
    case Encoding::kDict:
      if (type != DataType::kString) return false;
      return literal.is_null() || literal.type() == DataType::kString;
    case Encoding::kRle:
    case Encoding::kBitPack:
      if (type != DataType::kInt64) return false;
      if (literal.is_null()) return true;
      return literal.is_numeric() && op != CompareOp::kContains;
    case Encoding::kPlain:
      return false;
  }
  return false;
}

// Runs one (encoded column, op, literal) cell of the grid: handledness must
// match the support matrix, and a handled kernel's bitmaps must be
// byte-identical (via their canonical RLE serialization) to the 3VL
// evaluator over the decoded batch.
void CheckEncodedCell(DataType type, const EncodedColumn& encoded,
                      const RecordBatch& batch, CompareOp op,
                      const Value& literal, size_t* handled_count) {
  TriStateVector bits;
  auto handled = TryEvaluateEncodedCompare(type, encoded, op, literal, &bits);
  ASSERT_TRUE(handled.ok()) << handled.status().ToString();
  ASSERT_EQ(*handled, KernelShouldHandle(encoded.encoding, type, op, literal))
      << EncodingName(encoded.encoding) << " op=" << static_cast<int>(op);
  if (!*handled) return;
  ++*handled_count;
  ExprPtr expr = Expr::Compare(op,
                               Expr::ColumnRef("c"), Expr::Literal(literal));
  auto ref = EvaluatePredicate3VL(*expr, batch);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(bits.is_true.SerializeRle(), ref->is_true.SerializeRle())
      << EncodingName(encoded.encoding) << " op=" << static_cast<int>(op)
      << " rows=" << batch.num_rows();
  EXPECT_EQ(bits.is_false.SerializeRle(), ref->is_false.SerializeRle())
      << EncodingName(encoded.encoding) << " op=" << static_cast<int>(op)
      << " rows=" << batch.num_rows();
}

TEST(CompressedPredicateTest, MatchesDecodeThenEvaluateEverywhere) {
  const DataType kTypes[] = {DataType::kInt64, DataType::kString};
  const Encoding kEncodings[] = {Encoding::kRle, Encoding::kDict,
                                 Encoding::kBitPack};
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                            CompareOp::kContains};
  const size_t kSizes[] = {0, 1, 64, 777};
  size_t handled_count = 0;
  for (DataType type : kTypes) {
    for (Encoding encoding : kEncodings) {
      for (size_t rows : kSizes) {
        for (bool with_nulls : {false, true}) {
          ColumnVector col = MakeColumn(type, rows, with_nulls, rows + 29);
          // EncodeColumnAs falls back to plain for inapplicable encodings;
          // the support-matrix assertion keys off the *actual* encoding.
          EncodedColumn encoded = EncodeColumnAs(col, encoding);
          auto decoded = DecodeColumn(type, encoded);
          ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
          RecordBatch batch(Schema({{"c", type, true}}), {*decoded});
          std::vector<Value> literals;
          if (type == DataType::kInt64) {
            // In-domain (MakeColumn draws 0..40), fractional (no int64 is
            // ever equal), NULL, NaN (above every number), and +-2^60
            // (+-2^60 + 1 rounds to the same double).
            literals = {Value::Int64(20),
                        Value::Double(20.5),
                        Value::Null(),
                        Value::String("v5"),
                        Value::Double(std::nan("")),
                        Value::Int64((int64_t{1} << 60) + 1),
                        Value::Double(-std::ldexp(1.0, 60))};
          } else {
            // Present entry, dictionary miss, multi-entry CONTAINS
            // substring ("v1" hits v1/v10/v11), and NULL.
            literals = {Value::String("v5"), Value::String("zz_missing"),
                        Value::String("v1"), Value::Null(), Value::Int64(3)};
          }
          for (CompareOp op : kOps) {
            for (const Value& literal : literals) {
              CheckEncodedCell(type, encoded, batch, op, literal,
                               &handled_count);
            }
          }
        }
      }
    }
  }
  // The grid must actually exercise the kernels, not fall back everywhere.
  EXPECT_GT(handled_count, 300u);
}

TEST(CompressedPredicateTest, DictMissShortCircuitsWithoutRowWork) {
  ColumnVector col = MakeColumn(DataType::kString, 777, true, 5);
  EncodedColumn encoded = EncodeColumnAs(col, Encoding::kDict);
  ASSERT_EQ(encoded.encoding, Encoding::kDict);
  ResetDecodeCounters();
  TriStateVector bits;
  auto handled =
      TryEvaluateEncodedCompare(DataType::kString, encoded, CompareOp::kEq,
                                Value::String("zz_missing"), &bits);
  ASSERT_TRUE(handled.ok()) << handled.status().ToString();
  ASSERT_TRUE(*handled);
  DecodeCounters counters = GetDecodeCounters();
  // The miss is answered from the dictionary alone: every row is charged
  // as skipped-encoded, nothing is materialized, one kernel hit.
  EXPECT_EQ(counters.values_skipped_encoded, col.size());
  EXPECT_EQ(counters.values_materialized, 0u);
  EXPECT_EQ(counters.predicates_encoded, 1u);
  EXPECT_EQ(counters.predicates_fallback, 0u);
  // TRUE set is all-zero; FALSE set is exactly the validity bitmap (every
  // non-null row definitely fails, NULL rows stay UNKNOWN).
  EXPECT_TRUE(bits.is_true.AllZeros());
  auto decoded = DecodeColumn(DataType::kString, encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(bits.is_false.size(), decoded->size());
  for (size_t i = 0; i < decoded->size(); ++i) {
    EXPECT_EQ(bits.is_false.Get(i), !decoded->IsNull(i)) << i;
  }
}

// The dictionary payload has one reader for the decoder, the predicate
// kernel and the group-by code extractor: all three reject a truncated
// payload and an out-of-range code as Corruption.
TEST(CompressedPredicateTest, CorruptDictPayloadIsCorruptionForEveryReader) {
  ColumnVector col = MakeColumn(DataType::kString, 130, true, 11);
  EncodedColumn good = EncodeColumnAs(col, Encoding::kDict);
  ASSERT_EQ(good.encoding, Encoding::kDict);
  EncodedColumn truncated = good;
  truncated.payload.resize(truncated.payload.size() - 2);
  EncodedColumn bad_code = good;  // the last row's code points past the dict
  const uint32_t huge = 1u << 30;
  std::memcpy(&bad_code.payload[bad_code.payload.size() - sizeof(huge)],
              &huge, sizeof(huge));
  for (const EncodedColumn* corrupt : {&truncated, &bad_code}) {
    EXPECT_TRUE(DecodeColumn(DataType::kString, *corrupt)
                    .status()
                    .IsCorruption());
    DictColumnCodes codes;
    EXPECT_TRUE(TryExtractDictCodes(*corrupt, nullptr, &codes)
                    .status()
                    .IsCorruption());
    // kEq on a present entry takes the single-entry row test, kLt the
    // match-table gather.
    for (CompareOp op : {CompareOp::kEq, CompareOp::kLt}) {
      TriStateVector bits;
      EXPECT_TRUE(TryEvaluateEncodedCompare(DataType::kString, *corrupt, op,
                                            Value::String("v5"), &bits)
                      .status()
                      .IsCorruption())
          << static_cast<int>(op);
    }
  }
}

TEST(CompressedPredicateTest, RleRunBoundariesCrossWordEdges) {
  // Hand-built runs of 1/63/64/65 rows with alternating values, so match
  // ranges start and end exactly at (and one off) 64-bit word boundaries —
  // the shapes where a run-granular SetRange fill would clip or bleed.
  const size_t kRuns[] = {1, 63, 64, 65, 1, 64, 63, 65};
  ColumnVector col(DataType::kInt64);
  int64_t value = 0;
  for (size_t run : kRuns) {
    for (size_t k = 0; k < run; ++k) col.AppendInt64(value);
    value = value == 0 ? 50 : 0;  // alternate below / above the literals
  }
  EncodedColumn encoded = EncodeColumnAs(col, Encoding::kRle);
  ASSERT_EQ(encoded.encoding, Encoding::kRle);
  auto decoded = DecodeColumn(DataType::kInt64, encoded);
  ASSERT_TRUE(decoded.ok());
  RecordBatch batch(Schema({{"c", DataType::kInt64, true}}), {*decoded});
  size_t handled_count = 0;
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const Value& literal :
         {Value::Int64(0), Value::Int64(50), Value::Double(25.0)}) {
      CheckEncodedCell(DataType::kInt64, encoded, batch, op, literal,
                       &handled_count);
    }
  }
  EXPECT_EQ(handled_count, 18u);  // every cell must hit the RLE kernel
}

// ---------- Compressed-domain predicate trees over a block ----------

// What TryEvaluatePredicateEncoded must answer: every comparison leaf is
// column-vs-literal with a kernel for the column's actual encoding (the
// support matrix above); AND/OR/NOT only combine their children.
bool TreeShouldHandle(const Expr& expr, const ColumnarBlock& block) {
  switch (expr.kind()) {
    case ExprKind::kLogical:
      for (const ExprPtr& child : expr.children()) {
        if (!TreeShouldHandle(*child, block)) return false;
      }
      return true;
    case ExprKind::kComparison: {
      if (expr.child(0)->kind() != ExprKind::kColumnRef ||
          expr.child(1)->kind() != ExprKind::kLiteral) {
        return false;
      }
      int idx = block.schema().FieldIndex(expr.child(0)->column());
      if (idx < 0) return false;
      return KernelShouldHandle(
          block.ColumnEncoding(static_cast<size_t>(idx)),
          block.schema().field(idx).type,
          expr.compare_op(),
          expr.child(1)->value());
    }
    default:
      return false;
  }
}

// Checks one tree: handledness must match TreeShouldHandle, and a handled
// tree's TRUE and FALSE bitmaps must equal the 3VL evaluator's over the
// decoded batch.
void CheckEncodedTree(const ExprPtr& expr, const ColumnarBlock& block,
                      const RecordBatch& decoded, size_t* handled_count,
                      size_t* fallback_count) {
  TriStateVector tri;
  auto handled = TryEvaluatePredicateEncoded(*expr, block, &tri);
  ASSERT_TRUE(handled.ok()) << handled.status().ToString();
  ASSERT_EQ(*handled, TreeShouldHandle(*expr, block)) << expr->ToString();
  if (!*handled) {
    ++*fallback_count;
    return;
  }
  ++*handled_count;
  auto ref = EvaluatePredicate3VL(*expr, decoded);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(tri.is_true.SerializeRle(), ref->is_true.SerializeRle())
      << expr->ToString() << " rows=" << decoded.num_rows();
  EXPECT_EQ(tri.is_false.SerializeRle(), ref->is_false.SerializeRle())
      << expr->ToString() << " rows=" << decoded.num_rows();
}

// One block holding every encoding the kernels serve (dict strings, RLE
// and bit-packed ints) next to plain columns they must decline, all with
// NULLs. AND/OR/NOT trees over it are checked as written, normalized, and
// conjunct by conjunct as the leaf evaluates them (NormalizePredicate).
TEST(CompressedPredicateTest, PredicateTreesMatchDecodeThenEvaluate) {
  size_t handled_count = 0;
  size_t fallback_count = 0;
  for (size_t rows : {size_t{64}, size_t{777}}) {
    Rng rng(rows);
    ColumnVector packed(DataType::kInt64);  // short runs, narrow range
    ColumnVector wide(DataType::kString);   // too many values for a dict
    for (size_t i = 0; i < rows; ++i) {
      if (rng.NextBool(0.15)) {
        packed.AppendNull();
      } else {
        packed.AppendInt64(rng.NextInt64(0, 40));
      }
      std::string value = "w";
      value += std::to_string(i);
      wide.AppendString(value);
    }
    RecordBatch batch(Schema({{"s", DataType::kString, true},
                              {"r", DataType::kInt64, true},
                              {"b", DataType::kInt64, true},
                              {"d", DataType::kDouble, true},
                              {"w", DataType::kString, true}}),
                      {MakeColumn(DataType::kString, rows, true, rows + 1),
                       MakeColumn(DataType::kInt64, rows, true, rows + 2),
                       packed,
                       MakeColumn(DataType::kDouble, rows, true, rows + 3),
                       wide});
    ColumnarBlock block = ColumnarBlock::FromBatch(0, batch);
    ASSERT_EQ(block.ColumnEncoding(0), Encoding::kDict);
    ASSERT_EQ(block.ColumnEncoding(1), Encoding::kRle);
    ASSERT_EQ(block.ColumnEncoding(2), Encoding::kBitPack);
    ASSERT_EQ(block.ColumnEncoding(3), Encoding::kPlain);
    ASSERT_EQ(block.ColumnEncoding(4), Encoding::kPlain);
    auto decoded = block.DecodeBatch();
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

    auto atom = [](CompareOp op, const char* column, Value literal) {
      return Expr::Compare(op, Expr::ColumnRef(column),
                           Expr::Literal(std::move(literal)));
    };
    const std::vector<ExprPtr> atoms = {
        atom(CompareOp::kEq, "s", Value::String("v5")),
        atom(CompareOp::kContains, "s", Value::String("v1")),
        atom(CompareOp::kNe, "s", Value::Null()),
        atom(CompareOp::kLt, "r", Value::Int64(20)),
        atom(CompareOp::kGe, "r", Value::Double(12.5)),
        atom(CompareOp::kGt, "b", Value::Int64(30)),
        atom(CompareOp::kLe, "b", Value::Null()),
        atom(CompareOp::kLe, "d", Value::Double(50.0)),
        atom(CompareOp::kEq, "w", Value::String("w3")),
    };
    for (const ExprPtr& a : atoms) {
      for (const ExprPtr& b : atoms) {
        if (a == b) continue;
        for (const ExprPtr& tree :
             {Expr::And(a, b), Expr::Or(a, b),
              Expr::Not(Expr::And(a, Expr::Not(b))),
              Expr::Or(Expr::Not(a), Expr::And(b, a))}) {
          CheckEncodedTree(tree, block, *decoded, &handled_count,
                           &fallback_count);
          CheckEncodedTree(CanonicalizeAtoms(PushDownNot(tree)), block,
                           *decoded, &handled_count, &fallback_count);
          for (const ExprPtr& conjunct : NormalizePredicate(tree)) {
            CheckEncodedTree(conjunct, block, *decoded, &handled_count,
                             &fallback_count);
          }
        }
      }
    }
  }
  // Both sides of the support matrix must actually be exercised.
  EXPECT_GT(handled_count, 500u);
  EXPECT_GT(fallback_count, 500u);
}

}  // namespace
}  // namespace feisu
