#include <gtest/gtest.h>

#include "columnar/block.h"
#include "columnar/column_vector.h"
#include "columnar/data_type.h"
#include "columnar/encoding.h"
#include "columnar/json_flatten.h"
#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "columnar/table.h"
#include "columnar/value.h"
#include "common/rng.h"

namespace feisu {
namespace {

// ---------- DataType ----------

TEST(DataTypeTest, NamesRoundTrip) {
  for (DataType t : {DataType::kBool, DataType::kInt64, DataType::kDouble,
                     DataType::kString}) {
    DataType parsed;
    ASSERT_TRUE(ParseDataType(DataTypeName(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
  DataType out;
  EXPECT_FALSE(ParseDataType("DECIMAL", &out));
}

// ---------- Value ----------

TEST(ValueTest, NullOrdering) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int64(0)), 0);
  EXPECT_GT(Value::Int64(0).Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int64(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(7.1).Compare(Value::Int64(7)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
}

// ---------- Schema ----------

TEST(SchemaTest, LookupByName) {
  Schema schema({{"a", DataType::kInt64, true},
                 {"b", DataType::kString, true}});
  EXPECT_EQ(schema.num_fields(), 2u);
  EXPECT_EQ(schema.FieldIndex("b"), 1);
  EXPECT_EQ(schema.FieldIndex("zzz"), -1);
  EXPECT_TRUE(schema.HasField("a"));
}

TEST(SchemaTest, SelectSubset) {
  Schema schema({{"a", DataType::kInt64, true},
                 {"b", DataType::kString, true},
                 {"c", DataType::kDouble, true}});
  Schema sub = schema.Select({"c", "a", "nope"});
  ASSERT_EQ(sub.num_fields(), 2u);
  EXPECT_EQ(sub.field(0).name, "c");
  EXPECT_EQ(sub.field(1).name, "a");
}

TEST(SchemaTest, Equality) {
  Schema a({{"x", DataType::kInt64, true}});
  Schema b({{"x", DataType::kInt64, true}});
  Schema c({{"x", DataType::kDouble, true}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ---------- ColumnVector ----------

TEST(ColumnVectorTest, AppendAndGet) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(1);
  col.AppendNull();
  col.AppendInt64(3);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.NullCount(), 1u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetInt64(2), 3);
  EXPECT_TRUE(col.GetValue(1).is_null());
}

TEST(ColumnVectorTest, FilterKeepsSelected) {
  ColumnVector col(DataType::kString);
  col.AppendString("a");
  col.AppendString("b");
  col.AppendString("c");
  BitVector sel(3, false);
  sel.Set(0, true);
  sel.Set(2, true);
  ColumnVector out = col.Filter(sel);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.GetString(0), "a");
  EXPECT_EQ(out.GetString(1), "c");
}

TEST(ColumnVectorTest, TakeReorders) {
  ColumnVector col(DataType::kDouble);
  col.AppendDouble(1.5);
  col.AppendDouble(2.5);
  col.AppendDouble(3.5);
  ColumnVector out = col.Take({2, 0});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.GetDouble(0), 3.5);
  EXPECT_EQ(out.GetDouble(1), 1.5);
}

TEST(ColumnVectorTest, AppendValueWidensIntToDouble) {
  ColumnVector col(DataType::kDouble);
  col.AppendValue(Value::Int64(4));
  EXPECT_EQ(col.GetDouble(0), 4.0);
}

// ---------- RecordBatch ----------

RecordBatch MakeSmallBatch() {
  Schema schema({{"id", DataType::kInt64, true},
                 {"name", DataType::kString, true}});
  RecordBatch batch(schema);
  EXPECT_TRUE(batch.AppendRow({Value::Int64(1), Value::String("ann")}).ok());
  EXPECT_TRUE(batch.AppendRow({Value::Int64(2), Value::String("bob")}).ok());
  EXPECT_TRUE(batch.AppendRow({Value::Int64(3), Value::Null()}).ok());
  return batch;
}

TEST(RecordBatchTest, AppendRowAndAccess) {
  RecordBatch batch = MakeSmallBatch();
  EXPECT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.num_columns(), 2u);
  EXPECT_EQ(batch.column(0).GetInt64(1), 2);
  ASSERT_NE(batch.ColumnByName("name"), nullptr);
  EXPECT_EQ(batch.ColumnByName("zzz"), nullptr);
}

TEST(RecordBatchTest, AppendRowArityMismatch) {
  RecordBatch batch = MakeSmallBatch();
  EXPECT_TRUE(batch.AppendRow({Value::Int64(1)}).IsInvalidArgument());
}

TEST(RecordBatchTest, AppendRowTypeMismatch) {
  RecordBatch batch = MakeSmallBatch();
  EXPECT_TRUE(
      batch.AppendRow({Value::String("x"), Value::String("y")})
          .IsInvalidArgument());
}

TEST(RecordBatchTest, AppendBatch) {
  RecordBatch a = MakeSmallBatch();
  RecordBatch b = MakeSmallBatch();
  ASSERT_TRUE(a.Append(b).ok());
  EXPECT_EQ(a.num_rows(), 6u);
}

TEST(RecordBatchTest, FilterAndTake) {
  RecordBatch batch = MakeSmallBatch();
  BitVector sel(3, false);
  sel.Set(1, true);
  RecordBatch filtered = batch.Filter(sel);
  ASSERT_EQ(filtered.num_rows(), 1u);
  EXPECT_EQ(filtered.column(1).GetString(0), "bob");
  RecordBatch taken = batch.Take({2, 1, 0});
  EXPECT_EQ(taken.column(0).GetInt64(0), 3);
}

TEST(RecordBatchTest, ToStringTruncates) {
  RecordBatch batch = MakeSmallBatch();
  std::string rendered = batch.ToString(2);
  EXPECT_NE(rendered.find("more rows"), std::string::npos);
}

// ---------- Encodings ----------

ColumnVector MakeIntColumn(const std::vector<int64_t>& values,
                           const std::vector<size_t>& nulls = {}) {
  ColumnVector col(DataType::kInt64);
  for (size_t i = 0; i < values.size(); ++i) {
    bool is_null = false;
    for (size_t n : nulls) is_null |= (n == i);
    if (is_null) {
      col.AppendNull();
    } else {
      col.AppendInt64(values[i]);
    }
  }
  return col;
}

void ExpectColumnsEqual(const ColumnVector& a, const ColumnVector& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.type(), b.type());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.IsNull(i), b.IsNull(i)) << "row " << i;
    if (!a.IsNull(i)) {
      EXPECT_EQ(a.GetValue(i).Compare(b.GetValue(i)), 0) << "row " << i;
    }
  }
}

TEST(EncodingTest, PlainRoundTripAllTypes) {
  {
    ColumnVector col = MakeIntColumn({1, -2, 3}, {1});
    EncodedColumn enc = EncodeColumnAs(col, Encoding::kPlain);
    auto decoded = DecodeColumn(DataType::kInt64, enc);
    ASSERT_TRUE(decoded.ok());
    ExpectColumnsEqual(col, *decoded);
  }
  {
    ColumnVector col(DataType::kString);
    col.AppendString("alpha");
    col.AppendNull();
    col.AppendString("");
    EncodedColumn enc = EncodeColumnAs(col, Encoding::kPlain);
    auto decoded = DecodeColumn(DataType::kString, enc);
    ASSERT_TRUE(decoded.ok());
    ExpectColumnsEqual(col, *decoded);
  }
  {
    ColumnVector col(DataType::kDouble);
    col.AppendDouble(1.25);
    col.AppendDouble(-0.5);
    EncodedColumn enc = EncodeColumnAs(col, Encoding::kPlain);
    auto decoded = DecodeColumn(DataType::kDouble, enc);
    ASSERT_TRUE(decoded.ok());
    ExpectColumnsEqual(col, *decoded);
  }
  {
    ColumnVector col(DataType::kBool);
    col.AppendBool(true);
    col.AppendBool(false);
    col.AppendNull();
    EncodedColumn enc = EncodeColumnAs(col, Encoding::kPlain);
    auto decoded = DecodeColumn(DataType::kBool, enc);
    ASSERT_TRUE(decoded.ok());
    ExpectColumnsEqual(col, *decoded);
  }
}

TEST(EncodingTest, RleRoundTripAndCompression) {
  std::vector<int64_t> values(1000, 7);
  for (size_t i = 500; i < 1000; ++i) values[i] = 9;
  ColumnVector col = MakeIntColumn(values);
  EncodedColumn rle = EncodeColumnAs(col, Encoding::kRle);
  EXPECT_EQ(rle.encoding, Encoding::kRle);
  EncodedColumn plain = EncodeColumnAs(col, Encoding::kPlain);
  EXPECT_LT(rle.payload.size(), plain.payload.size() / 10);
  auto decoded = DecodeColumn(DataType::kInt64, rle);
  ASSERT_TRUE(decoded.ok());
  ExpectColumnsEqual(col, *decoded);
}

TEST(EncodingTest, DictRoundTripAndCompression) {
  ColumnVector col(DataType::kString);
  for (int i = 0; i < 500; ++i) {
    col.AppendString(i % 3 == 0 ? "alpha" : "beta_longer_string");
  }
  EncodedColumn dict = EncodeColumnAs(col, Encoding::kDict);
  EXPECT_EQ(dict.encoding, Encoding::kDict);
  EncodedColumn plain = EncodeColumnAs(col, Encoding::kPlain);
  EXPECT_LT(dict.payload.size(), plain.payload.size() / 2);
  auto decoded = DecodeColumn(DataType::kString, dict);
  ASSERT_TRUE(decoded.ok());
  ExpectColumnsEqual(col, *decoded);
}

TEST(EncodingTest, AutoChoosesRleForRuns) {
  std::vector<int64_t> runs(256, 4);
  ColumnVector col = MakeIntColumn(runs);
  EXPECT_EQ(EncodeColumn(col).encoding, Encoding::kRle);
}

TEST(EncodingTest, AutoChoosesPlainForRandomInts) {
  Rng rng(17);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 256; ++i) {
    col.AppendInt64(static_cast<int64_t>(rng.Next()));
  }
  EXPECT_EQ(EncodeColumn(col).encoding, Encoding::kPlain);
}

TEST(EncodingTest, AutoChoosesDictForLowCardinalityStrings) {
  ColumnVector col(DataType::kString);
  for (int i = 0; i < 256; ++i) {
    std::string value = "v";
    value += std::to_string(i % 4);
    col.AppendString(value);
  }
  EXPECT_EQ(EncodeColumn(col).encoding, Encoding::kDict);
}

TEST(EncodingTest, BitPackRoundTrip) {
  ColumnVector col(DataType::kInt64);
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    if (rng.NextBool(0.03)) {
      col.AppendNull();
    } else {
      col.AppendInt64(rng.NextInt64(-50, 77));
    }
  }
  EncodedColumn packed = EncodeColumnAs(col, Encoding::kBitPack);
  EXPECT_EQ(packed.encoding, Encoding::kBitPack);
  EncodedColumn plain = EncodeColumnAs(col, Encoding::kPlain);
  // Range 128 fits in 7-8 bits: ~8x smaller than raw 64-bit values.
  EXPECT_LT(packed.payload.size(), plain.payload.size() / 4);
  auto decoded = DecodeColumn(DataType::kInt64, packed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectColumnsEqual(col, *decoded);
}

TEST(EncodingTest, BitPackConstantColumn) {
  ColumnVector col = MakeIntColumn(std::vector<int64_t>(100, 42));
  EncodedColumn packed = EncodeColumnAs(col, Encoding::kBitPack);
  auto decoded = DecodeColumn(DataType::kInt64, packed);
  ASSERT_TRUE(decoded.ok());
  ExpectColumnsEqual(col, *decoded);
}

TEST(EncodingTest, BitPackWideValues) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(INT64_MIN / 4);
  col.AppendInt64(INT64_MAX / 4);
  col.AppendInt64(0);
  EncodedColumn packed = EncodeColumnAs(col, Encoding::kBitPack);
  auto decoded = DecodeColumn(DataType::kInt64, packed);
  ASSERT_TRUE(decoded.ok());
  ExpectColumnsEqual(col, *decoded);
}

TEST(EncodingTest, BitPackAllNulls) {
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 10; ++i) col.AppendNull();
  EncodedColumn packed = EncodeColumnAs(col, Encoding::kBitPack);
  auto decoded = DecodeColumn(DataType::kInt64, packed);
  ASSERT_TRUE(decoded.ok());
  ExpectColumnsEqual(col, *decoded);
}

TEST(EncodingTest, AutoChoosesBitPackForSmallRanges) {
  Rng rng(29);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 256; ++i) col.AppendInt64(rng.NextInt64(0, 100));
  EXPECT_EQ(EncodeColumn(col).encoding, Encoding::kBitPack);
}

TEST(EncodingTest, BitPackRejectsCorruptPayload) {
  ColumnVector col = MakeIntColumn({1, 2, 3, 4, 5, 6, 7, 8});
  EncodedColumn packed = EncodeColumnAs(col, Encoding::kBitPack);
  packed.payload.resize(packed.payload.size() - 4);
  EXPECT_TRUE(DecodeColumn(DataType::kInt64, packed).status().IsCorruption());
}

TEST(EncodingTest, DecodeRejectsCorruptPayload) {
  ColumnVector col = MakeIntColumn({1, 2, 3});
  EncodedColumn enc = EncodeColumnAs(col, Encoding::kPlain);
  enc.payload.resize(enc.payload.size() / 2);
  EXPECT_TRUE(DecodeColumn(DataType::kInt64, enc).status().IsCorruption());
}

// Property sweep over encodings x sizes with randomized data.
class EncodingProperty
    : public ::testing::TestWithParam<std::tuple<Encoding, size_t>> {};

TEST_P(EncodingProperty, RoundTripInt64) {
  auto [encoding, size] = GetParam();
  Rng rng(size + static_cast<size_t>(encoding) * 977);
  ColumnVector col(DataType::kInt64);
  for (size_t i = 0; i < size; ++i) {
    if (rng.NextBool(0.05)) {
      col.AppendNull();
    } else {
      col.AppendInt64(rng.NextInt64(0, 8));  // runs likely
    }
  }
  EncodedColumn enc = EncodeColumnAs(col, encoding);
  auto decoded = DecodeColumn(DataType::kInt64, enc);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectColumnsEqual(col, *decoded);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncodingProperty,
    ::testing::Combine(::testing::Values(Encoding::kPlain, Encoding::kRle,
                                         Encoding::kBitPack),
                       ::testing::Values<size_t>(0, 1, 64, 1000)));

// ---------- ColumnarBlock ----------

RecordBatch MakeBlockBatch(size_t n) {
  Schema schema({{"id", DataType::kInt64, true},
                 {"score", DataType::kDouble, true},
                 {"tag", DataType::kString, true}});
  RecordBatch batch(schema);
  for (size_t i = 0; i < n; ++i) {
    std::string tag = "t";
    tag += std::to_string(i % 5);
    EXPECT_TRUE(batch
                    .AppendRow({Value::Int64(static_cast<int64_t>(i)),
                                Value::Double(static_cast<double>(i) * 0.5),
                                Value::String(tag)})
                    .ok());
  }
  return batch;
}

TEST(BlockTest, FromBatchComputesStats) {
  ColumnarBlock block = ColumnarBlock::FromBatch(42, MakeBlockBatch(100));
  EXPECT_EQ(block.block_id(), 42);
  EXPECT_EQ(block.num_rows(), 100u);
  EXPECT_EQ(block.stats(0).min.int64_value(), 0);
  EXPECT_EQ(block.stats(0).max.int64_value(), 99);
  EXPECT_EQ(block.stats(0).null_count, 0u);
}

TEST(BlockTest, SerializeDeserializeRoundTrip) {
  RecordBatch batch = MakeBlockBatch(257);
  ColumnarBlock block = ColumnarBlock::FromBatch(7, batch);
  std::string payload = block.Serialize();
  auto restored = ColumnarBlock::Deserialize(payload);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->block_id(), 7);
  EXPECT_EQ(restored->num_rows(), 257u);
  auto decoded = restored->DecodeBatch();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_rows(), 257u);
  EXPECT_EQ(decoded->column(0).GetInt64(256), 256);
  EXPECT_EQ(decoded->column(2).GetString(3), "t3");
}

TEST(BlockTest, DecodeColumnSubset) {
  ColumnarBlock block = ColumnarBlock::FromBatch(1, MakeBlockBatch(10));
  auto batch = block.DecodeBatch({"tag"});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_columns(), 1u);
  EXPECT_EQ(batch->schema().field(0).name, "tag");
}

TEST(BlockTest, DecodeUnknownColumnFails) {
  ColumnarBlock block = ColumnarBlock::FromBatch(1, MakeBlockBatch(10));
  EXPECT_TRUE(block.DecodeColumnByName("zzz").status().IsNotFound());
  EXPECT_TRUE(block.DecodeBatch({"zzz"}).status().IsNotFound());
}

TEST(BlockTest, DeserializeRejectsBadMagic) {
  std::string garbage = "not a block at all";
  EXPECT_TRUE(ColumnarBlock::Deserialize(garbage).status().IsCorruption());
}

TEST(BlockTest, DeserializeRejectsTruncation) {
  ColumnarBlock block = ColumnarBlock::FromBatch(3, MakeBlockBatch(50));
  std::string payload = block.Serialize();
  payload.resize(payload.size() - 10);
  EXPECT_TRUE(ColumnarBlock::Deserialize(payload).status().IsCorruption());
}

TEST(BlockTest, ValueSerializationRoundTrip) {
  for (const Value& v :
       {Value::Null(), Value::Bool(true), Value::Int64(-99),
        Value::Double(2.75), Value::String("hello")}) {
    std::string buffer;
    SerializeValue(&buffer, v);
    size_t pos = 0;
    Value decoded;
    ASSERT_TRUE(DeserializeValue(buffer, &pos, &decoded));
    EXPECT_EQ(pos, buffer.size());
    EXPECT_EQ(v.is_null(), decoded.is_null());
    if (!v.is_null()) {
      EXPECT_EQ(v.Compare(decoded), 0);
    }
  }
}

// ---------- TableMeta ----------

TEST(TableMetaTest, BlockAccounting) {
  TableMeta table("t", Schema({{"a", DataType::kInt64, true}}));
  TableBlockMeta block;
  block.num_rows = 100;
  block.bytes = 1000;
  table.AddBlock(block);
  table.AddBlock(block);
  EXPECT_EQ(table.TotalRows(), 200u);
  EXPECT_EQ(table.TotalBytes(), 2000u);
}

TEST(TableMetaTest, AccessControl) {
  TableMeta table("t", Schema(std::vector<Field>{}));
  EXPECT_TRUE(table.UserMayRead("anyone"));  // empty ACL = public
  table.GrantAccess("ana");
  EXPECT_TRUE(table.UserMayRead("ana"));
  EXPECT_FALSE(table.UserMayRead("bob"));
}

// ---------- JSON flattening ----------

TEST(JsonFlattenTest, FlatObject) {
  auto attrs = FlattenJson(R"({"a": 1, "b": "x", "c": true, "d": null})");
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs->size(), 4u);
  EXPECT_EQ((*attrs)[0].path, "a");
  EXPECT_EQ((*attrs)[0].value.int64_value(), 1);
  EXPECT_EQ((*attrs)[1].value.string_value(), "x");
  EXPECT_TRUE((*attrs)[2].value.bool_value());
  EXPECT_TRUE((*attrs)[3].value.is_null());
}

TEST(JsonFlattenTest, NestedObjectsUseDottedPaths) {
  auto attrs = FlattenJson(R"({"user": {"name": "ann", "age": 30}})");
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs->size(), 2u);
  EXPECT_EQ((*attrs)[0].path, "user.name");
  EXPECT_EQ((*attrs)[1].path, "user.age");
}

TEST(JsonFlattenTest, ArraysUseIndexedPaths) {
  auto attrs = FlattenJson(R"({"clicks": [{"url": "u0"}, {"url": "u1"}]})");
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs->size(), 2u);
  EXPECT_EQ((*attrs)[0].path, "clicks[0].url");
  EXPECT_EQ((*attrs)[1].path, "clicks[1].url");
}

TEST(JsonFlattenTest, NumberTyping) {
  auto attrs = FlattenJson(R"({"i": 42, "f": 1.5, "e": 2e3, "n": -7})");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ((*attrs)[0].value.type(), DataType::kInt64);
  EXPECT_EQ((*attrs)[1].value.type(), DataType::kDouble);
  EXPECT_EQ((*attrs)[2].value.type(), DataType::kDouble);
  EXPECT_EQ((*attrs)[3].value.int64_value(), -7);
}

TEST(JsonFlattenTest, StringEscapes) {
  auto attrs = FlattenJson(R"({"s": "a\"b\n\t"})");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ((*attrs)[0].value.string_value(), "a\"b\n\t");
}

TEST(JsonFlattenTest, RejectsMalformed) {
  EXPECT_FALSE(FlattenJson("{").ok());
  EXPECT_FALSE(FlattenJson(R"({"a": })").ok());
  EXPECT_FALSE(FlattenJson(R"({"a": 1} trailing)").ok());
  EXPECT_FALSE(FlattenJson(R"({"a": tru})").ok());
  EXPECT_FALSE(FlattenJson(R"({"a": "unterminated)").ok());
}

TEST(JsonFlattenTest, TopLevelScalar) {
  auto attrs = FlattenJson("42");
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs->size(), 1u);
  EXPECT_EQ((*attrs)[0].path, "$");
}

}  // namespace
}  // namespace feisu
