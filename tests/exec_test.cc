#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/aggregate.h"
#include "exec/operators.h"
#include "sql/parser.h"

namespace feisu {
namespace {

RecordBatch MakeSales() {
  Schema schema({{"region", DataType::kString, true},
                 {"amount", DataType::kInt64, true},
                 {"rate", DataType::kDouble, true}});
  RecordBatch batch(schema);
  auto add = [&](const char* region, int64_t amount, double rate) {
    EXPECT_TRUE(batch
                    .AppendRow({Value::String(region), Value::Int64(amount),
                                Value::Double(rate)})
                    .ok());
  };
  add("east", 10, 0.5);
  add("west", 20, 1.5);
  add("east", 30, 2.5);
  add("west", 40, 3.5);
  add("east", 50, 4.5);
  return batch;
}

std::vector<AggSpec> Specs(
    std::initializer_list<std::pair<AggFunc, const char*>> list) {
  std::vector<AggSpec> specs;
  int i = 0;
  for (const auto& [func, col] : list) {
    AggSpec spec;
    spec.func = func;
    spec.arg = col == nullptr ? nullptr : Expr::ColumnRef(col);
    spec.output_name = "out" + std::to_string(i++);
    specs.push_back(spec);
  }
  return specs;
}

// ---------- Aggregator ----------

TEST(AggregatorTest, GlobalCountSumMinMaxAvg) {
  RecordBatch batch = MakeSales();
  auto agg = Aggregator::Make({},
                              Specs({{AggFunc::kCount, nullptr},
                                     {AggFunc::kSum, "amount"},
                                     {AggFunc::kMin, "amount"},
                                     {AggFunc::kMax, "amount"},
                                     {AggFunc::kAvg, "amount"}}),
                              batch.schema());
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_TRUE(agg->Consume(batch).ok());
  auto result = agg->FinalResult();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->column(0).GetInt64(0), 5);
  EXPECT_EQ(result->column(1).GetInt64(0), 150);
  EXPECT_EQ(result->column(2).GetInt64(0), 10);
  EXPECT_EQ(result->column(3).GetInt64(0), 50);
  EXPECT_DOUBLE_EQ(result->column(4).GetDouble(0), 30.0);
}

TEST(AggregatorTest, GroupBy) {
  RecordBatch batch = MakeSales();
  auto agg = Aggregator::Make({Expr::ColumnRef("region")},
                              Specs({{AggFunc::kSum, "amount"}}),
                              batch.schema());
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->Consume(batch).ok());
  auto result = agg->FinalResult();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  // Groups come out in typed key order.
  EXPECT_EQ(result->column(0).GetString(0), "east");
  EXPECT_EQ(result->column(1).GetInt64(0), 90);
  EXPECT_EQ(result->column(0).GetString(1), "west");
  EXPECT_EQ(result->column(1).GetInt64(1), 60);
}

// The final order is Value::Compare's, NULL first: int64 keys by value
// (not by their little-endian bytes, which put 256 before 1) and strings
// lexicographically (not shortest first).
TEST(AggregatorTest, GroupByEmitsTypedKeyOrder) {
  Schema schema({{"n", DataType::kInt64, true},
                 {"s", DataType::kString, true}});
  RecordBatch batch(schema);
  for (const auto& [n, s] : std::vector<std::pair<Value, Value>>{
           {Value::Int64(256), Value::String("b")},
           {Value::Int64(1), Value::String("ab")},
           {Value::Null(), Value::Null()},
           {Value::Int64(-5), Value::String("b")}}) {
    ASSERT_TRUE(batch.AppendRow({n, s}).ok());
  }
  for (const char* key : {"n", "s"}) {
    auto agg = Aggregator::Make({Expr::ColumnRef(key)},
                                Specs({{AggFunc::kCount, nullptr}}),
                                schema);
    ASSERT_TRUE(agg.ok());
    ASSERT_TRUE(agg->Consume(batch).ok());
    auto result = agg->FinalResult();
    ASSERT_TRUE(result.ok());
    std::vector<std::string> keys;
    for (size_t r = 0; r < result->num_rows(); ++r) {
      keys.push_back(result->column(0).GetValue(r).ToString());
    }
    const std::vector<std::string> expected =
        std::string(key) == "n"
            ? std::vector<std::string>{"NULL", "-5", "1", "256"}
            : std::vector<std::string>{"NULL", "'ab'", "'b'"};
    EXPECT_EQ(keys, expected);
  }
}

TEST(AggregatorTest, NullsDoNotAggregate) {
  Schema schema({{"v", DataType::kInt64, true}});
  RecordBatch batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(batch.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(batch.AppendRow({Value::Int64(3)}).ok());
  auto agg = Aggregator::Make(
      {}, Specs({{AggFunc::kCount, "v"}, {AggFunc::kAvg, "v"}}),
      schema);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->Consume(batch).ok());
  auto result = agg->FinalResult();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetInt64(0), 2);  // COUNT(v) skips NULL
  EXPECT_DOUBLE_EQ(result->column(1).GetDouble(0), 2.0);
}

TEST(AggregatorTest, EmptyInputGlobalAggregates) {
  Schema schema({{"v", DataType::kInt64, true}});
  auto agg = Aggregator::Make(
      {}, Specs({{AggFunc::kCount, nullptr}, {AggFunc::kSum, "v"}}),
      schema);
  ASSERT_TRUE(agg.ok());
  auto result = agg->FinalResult();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->column(0).GetInt64(0), 0);
  EXPECT_TRUE(result->column(1).IsNull(0));  // SUM of nothing is NULL
}

TEST(AggregatorTest, EmptyInputGroupedYieldsNoRows) {
  Schema schema({{"g", DataType::kInt64, true},
                 {"v", DataType::kInt64, true}});
  auto agg = Aggregator::Make({Expr::ColumnRef("g")},
                              Specs({{AggFunc::kCount, nullptr}}), schema);
  ASSERT_TRUE(agg.ok());
  auto result = agg->FinalResult();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST(AggregatorTest, PartialMergeEqualsDirect) {
  RecordBatch batch = MakeSales();
  auto specs = Specs({{AggFunc::kCount, nullptr},
                      {AggFunc::kSum, "amount"},
                      {AggFunc::kMin, "rate"},
                      {AggFunc::kMax, "rate"},
                      {AggFunc::kAvg, "amount"}});
  std::vector<ExprPtr> keys = {Expr::ColumnRef("region")};

  // Direct aggregation over the whole batch.
  auto direct = Aggregator::Make(keys, specs, batch.schema());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct->Consume(batch).ok());
  auto expected = direct->FinalResult();
  ASSERT_TRUE(expected.ok());

  // Split into two halves aggregated separately, then merged.
  BitVector head(batch.num_rows(), false);
  BitVector tail(batch.num_rows(), false);
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    (i < 2 ? head : tail).Set(i, true);
  }
  auto leaf1 = Aggregator::Make(keys, specs, batch.schema());
  auto leaf2 = Aggregator::Make(keys, specs, batch.schema());
  ASSERT_TRUE(leaf1.ok());
  ASSERT_TRUE(leaf2.ok());
  ASSERT_TRUE(leaf1->Consume(batch.Filter(head)).ok());
  ASSERT_TRUE(leaf2->Consume(batch.Filter(tail)).ok());
  auto partial1 = leaf1->PartialResult();
  auto partial2 = leaf2->PartialResult();
  ASSERT_TRUE(partial1.ok());
  ASSERT_TRUE(partial2.ok());

  auto merged = Aggregator::Make(keys, specs, batch.schema());
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(merged->ConsumePartial(*partial1).ok());
  ASSERT_TRUE(merged->ConsumePartial(*partial2).ok());
  auto actual = merged->FinalResult();
  ASSERT_TRUE(actual.ok());

  ASSERT_EQ(actual->num_rows(), expected->num_rows());
  for (size_t r = 0; r < actual->num_rows(); ++r) {
    for (size_t c = 0; c < actual->num_columns(); ++c) {
      EXPECT_EQ(actual->column(c).GetValue(r).Compare(
                    expected->column(c).GetValue(r)),
                0)
          << "row " << r << " col " << c;
    }
  }
}

TEST(AggregatorTest, ConsumeCountFastPath) {
  Schema schema({{"v", DataType::kInt64, true}});
  auto agg = Aggregator::Make({}, Specs({{AggFunc::kCount, nullptr}}),
                              schema);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->ConsumeCount(42).ok());
  ASSERT_TRUE(agg->ConsumeCount(8).ok());
  auto result = agg->FinalResult();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetInt64(0), 50);
}

TEST(AggregatorTest, ConsumeCountRejectsNonCountStar) {
  Schema schema({{"v", DataType::kInt64, true}});
  auto agg =
      Aggregator::Make({}, Specs({{AggFunc::kSum, "v"}}), schema);
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg->ConsumeCount(1).IsInvalidArgument());
}

TEST(AggregatorTest, SumOverStringRejected) {
  Schema schema({{"s", DataType::kString, true}});
  EXPECT_TRUE(Aggregator::Make({}, Specs({{AggFunc::kSum, "s"}}), schema)
                  .status()
                  .IsInvalidArgument());
}

TEST(AggregatorTest, MinMaxOverStrings) {
  Schema schema({{"s", DataType::kString, true}});
  RecordBatch batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::String("pear")}).ok());
  ASSERT_TRUE(batch.AppendRow({Value::String("apple")}).ok());
  auto agg = Aggregator::Make(
      {}, Specs({{AggFunc::kMin, "s"}, {AggFunc::kMax, "s"}}), schema);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->Consume(batch).ok());
  auto result = agg->FinalResult();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetString(0), "apple");
  EXPECT_EQ(result->column(1).GetString(0), "pear");
}

TEST(AggregatorTest, PartialSchemaMismatchRejected) {
  Schema schema({{"v", DataType::kInt64, true}});
  auto agg = Aggregator::Make({}, Specs({{AggFunc::kCount, nullptr}}),
                              schema);
  ASSERT_TRUE(agg.ok());
  RecordBatch wrong(schema);
  EXPECT_TRUE(agg->ConsumePartial(wrong).IsInvalidArgument());
}

// ---------- Operators ----------

TEST(OperatorsTest, FilterBatch) {
  RecordBatch batch = MakeSales();
  auto stmt = ParseSql("SELECT a FROM t WHERE amount > 25");
  ASSERT_TRUE(stmt.ok());
  auto out = FilterBatch(batch, stmt->where);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);
}

TEST(OperatorsTest, FilterNullPredicatePassesThrough) {
  RecordBatch batch = MakeSales();
  auto out = FilterBatch(batch, nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), batch.num_rows());
}

TEST(OperatorsTest, ProjectComputesAndRenames) {
  RecordBatch batch = MakeSales();
  auto stmt = ParseSql("SELECT amount * 2 AS double_amount, region FROM t");
  ASSERT_TRUE(stmt.ok());
  auto out = ProjectBatch(batch, stmt->items);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).name, "double_amount");
  EXPECT_EQ(out->column(0).GetInt64(0), 20);
  EXPECT_EQ(out->column(1).GetString(0), "east");
}

// A consumed input moves each column that only a bare item reads; a
// column read twice, or also inside a computed item, is copied. Either
// way the output equals the borrowing ProjectBatch.
TEST(OperatorsTest, ConsumingProjectMovesOnlyOnceReferencedColumns) {
  const char* kQueries[] = {
      "SELECT region, amount FROM t",
      "SELECT amount, region, amount FROM t",
      "SELECT amount * 2 AS a2, amount, region FROM t",
      "SELECT region FROM t",
      "SELECT amount + 1 AS a1 FROM t",
  };
  for (const char* sql : kQueries) {
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    RecordBatch input = MakeSales();
    auto borrowed = ProjectBatch(input, stmt->items);
    ASSERT_TRUE(borrowed.ok()) << sql;
    auto consumed = ProjectBatch(std::move(input), stmt->items);
    ASSERT_TRUE(consumed.ok()) << sql;
    EXPECT_EQ(consumed->schema(), borrowed->schema()) << sql;
    EXPECT_EQ(consumed->ToString(100), borrowed->ToString(100)) << sql;
  }
  // A moved column keeps its storage buffer; a column read twice is
  // copied into a new one.
  RecordBatch input = MakeSales();
  const std::string* region_data = input.column(0).strings().data();
  const int64_t* amount_data = input.column(1).ints().data();
  auto stmt = ParseSql("SELECT region, amount, amount * 2 AS a2 FROM t");
  ASSERT_TRUE(stmt.ok());
  auto out = ProjectBatch(std::move(input), stmt->items);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->column(0).strings().data(), region_data);
  EXPECT_NE(out->column(1).ints().data(), amount_data);
  EXPECT_EQ(out->column(1).GetInt64(4), 50);
}

TEST(OperatorsTest, SortAscDescAndStability) {
  RecordBatch batch = MakeSales();
  auto stmt = ParseSql("SELECT a FROM t ORDER BY region ASC, amount DESC");
  ASSERT_TRUE(stmt.ok());
  auto out = SortBatch(batch, stmt->order_by);
  ASSERT_TRUE(out.ok());
  // east rows first (amount 50,30,10), then west (40,20).
  EXPECT_EQ(out->column(1).GetInt64(0), 50);
  EXPECT_EQ(out->column(1).GetInt64(1), 30);
  EXPECT_EQ(out->column(1).GetInt64(2), 10);
  EXPECT_EQ(out->column(0).GetString(3), "west");
  EXPECT_EQ(out->column(1).GetInt64(3), 40);
}

TEST(OperatorsTest, SortNullsFirst) {
  Schema schema({{"v", DataType::kInt64, true}});
  RecordBatch batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::Int64(2)}).ok());
  ASSERT_TRUE(batch.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(batch.AppendRow({Value::Int64(1)}).ok());
  OrderByItem item{Expr::ColumnRef("v"), false};
  auto out = SortBatch(batch, {item});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->column(0).IsNull(0));
  EXPECT_EQ(out->column(0).GetInt64(1), 1);
}

TEST(OperatorsTest, LimitBatch) {
  RecordBatch batch = MakeSales();
  EXPECT_EQ(LimitBatch(batch, 2).num_rows(), 2u);
  EXPECT_EQ(LimitBatch(batch, 0).num_rows(), 0u);
  EXPECT_EQ(LimitBatch(batch, 100).num_rows(), 5u);
  EXPECT_EQ(LimitBatch(batch, -1).num_rows(), 5u);
}

// ---------- TopN ----------

TEST(TopNTest, SelectsSmallestUnderOrdering) {
  RecordBatch batch = MakeSales();
  auto stmt = ParseSql("SELECT a FROM t ORDER BY amount DESC");
  ASSERT_TRUE(stmt.ok());
  auto out = TopNBatch(batch, stmt->order_by, 2);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->column(1).GetInt64(0), 50);
  EXPECT_EQ(out->column(1).GetInt64(1), 40);
}

TEST(TopNTest, EdgeLimits) {
  RecordBatch batch = MakeSales();
  auto stmt = ParseSql("SELECT a FROM t ORDER BY amount");
  ASSERT_TRUE(stmt.ok());
  auto zero = TopNBatch(batch, stmt->order_by, 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->num_rows(), 0u);
  auto all = TopNBatch(batch, stmt->order_by, 100);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 5u);
  EXPECT_EQ(all->column(1).GetInt64(0), 10);
}

// Property: TopN equals Sort+Limit on random data, including ties
// (stability) and NULL keys.
TEST(TopNTest, MatchesSortPlusLimit) {
  Rng rng(31);
  Schema schema({{"k", DataType::kInt64, true},
                 {"tag", DataType::kInt64, true}});
  for (int trial = 0; trial < 20; ++trial) {
    RecordBatch batch(schema);
    size_t n = 50 + rng.NextUint64(200);
    for (size_t i = 0; i < n; ++i) {
      std::vector<Value> row;
      row.push_back(rng.NextBool(0.1)
                        ? Value::Null()
                        : Value::Int64(rng.NextInt64(0, 10)));  // many ties
      row.push_back(Value::Int64(static_cast<int64_t>(i)));
      ASSERT_TRUE(batch.AppendRow(row).ok());
    }
    OrderByItem item{Expr::ColumnRef("k"), rng.NextBool(0.5)};
    int64_t limit = static_cast<int64_t>(rng.NextUint64(n + 10));
    auto top = TopNBatch(batch, {item}, limit);
    auto sorted = SortBatch(batch, {item});
    ASSERT_TRUE(top.ok());
    ASSERT_TRUE(sorted.ok());
    RecordBatch expected = LimitBatch(*sorted, limit);
    ASSERT_EQ(top->num_rows(), expected.num_rows());
    for (size_t r = 0; r < expected.num_rows(); ++r) {
      EXPECT_EQ(top->column(1).GetValue(r).Compare(
                    expected.column(1).GetValue(r)),
                0)
          << "trial " << trial << " row " << r;
    }
  }
}

// ---------- HashJoin ----------

std::pair<RecordBatch, RecordBatch> MakeJoinInputs() {
  Schema left({{"k", DataType::kInt64, true},
               {"lv", DataType::kString, true}});
  RecordBatch l(left);
  EXPECT_TRUE(l.AppendRow({Value::Int64(1), Value::String("a")}).ok());
  EXPECT_TRUE(l.AppendRow({Value::Int64(2), Value::String("b")}).ok());
  EXPECT_TRUE(l.AppendRow({Value::Int64(3), Value::String("c")}).ok());
  EXPECT_TRUE(l.AppendRow({Value::Null(), Value::String("d")}).ok());
  Schema right({{"k", DataType::kInt64, true},
                {"rv", DataType::kString, true}});
  RecordBatch r(right);
  EXPECT_TRUE(r.AppendRow({Value::Int64(2), Value::String("x")}).ok());
  EXPECT_TRUE(r.AppendRow({Value::Int64(2), Value::String("y")}).ok());
  EXPECT_TRUE(r.AppendRow({Value::Int64(4), Value::String("z")}).ok());
  EXPECT_TRUE(r.AppendRow({Value::Null(), Value::String("w")}).ok());
  return {l, r};
}

ExprPtr EquiCondition() {
  return Expr::Compare(CompareOp::kEq, Expr::ColumnRef("l", "k"),
                       Expr::ColumnRef("r", "k"));
}

// Join options qualifying colliding names with the "l"/"r" prefixes.
// Aggregate-initialized: GCC 12 at -O3 reports a false -Wrestrict overlap
// when a std::string member is assigned from a literal.
HashJoinOptions PrefixedJoin(JoinType type, ExprPtr condition = nullptr) {
  return HashJoinOptions{type, std::move(condition), "l", "r"};
}

TEST(HashJoinTest, InnerJoinWithDuplicatesAndNullKeys) {
  auto [l, r] = MakeJoinInputs();
  HashJoinOptions options =
      PrefixedJoin(JoinType::kInner, EquiCondition());
  auto out = HashJoinBatches(l, r, options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // k=2 matches two right rows; NULL keys never match.
  EXPECT_EQ(out->num_rows(), 2u);
  // Collided key column got qualified.
  EXPECT_TRUE(out->schema().HasField("l.k"));
  EXPECT_TRUE(out->schema().HasField("r.k"));
}

TEST(HashJoinTest, LeftOuterPadsNulls) {
  auto [l, r] = MakeJoinInputs();
  HashJoinOptions options =
      PrefixedJoin(JoinType::kLeftOuter, EquiCondition());
  auto out = HashJoinBatches(l, r, options);
  ASSERT_TRUE(out.ok());
  // 2 matches + 3 unmatched left rows (k=1, k=3, k=NULL).
  EXPECT_EQ(out->num_rows(), 5u);
  size_t padded = 0;
  const ColumnVector* rv = out->ColumnByName("rv");
  ASSERT_NE(rv, nullptr);
  for (size_t i = 0; i < out->num_rows(); ++i) {
    if (rv->IsNull(i)) ++padded;
  }
  EXPECT_EQ(padded, 3u);
}

TEST(HashJoinTest, RightOuterPadsNulls) {
  auto [l, r] = MakeJoinInputs();
  HashJoinOptions options =
      PrefixedJoin(JoinType::kRightOuter, EquiCondition());
  auto out = HashJoinBatches(l, r, options);
  ASSERT_TRUE(out.ok());
  // 2 matches + 2 unmatched right rows (k=4, k=NULL).
  EXPECT_EQ(out->num_rows(), 4u);
}

TEST(HashJoinTest, CrossJoin) {
  auto [l, r] = MakeJoinInputs();
  HashJoinOptions options = PrefixedJoin(JoinType::kCross);
  auto out = HashJoinBatches(l, r, options);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 16u);
}

TEST(HashJoinTest, ResidualRangeCondition) {
  auto [l, r] = MakeJoinInputs();
  // Pure range join: no equi key -> nested loop with residual.
  HashJoinOptions options = PrefixedJoin(
      JoinType::kInner,
      Expr::Compare(CompareOp::kLt, Expr::ColumnRef("l", "k"),
                    Expr::ColumnRef("r", "k")));
  auto out = HashJoinBatches(l, r, options);
  ASSERT_TRUE(out.ok());
  // pairs with l.k < r.k: (1,2),(1,2),(1,4),(2,4),(3,4) = 5.
  EXPECT_EQ(out->num_rows(), 5u);
}

TEST(HashJoinTest, EquiPlusResidual) {
  auto [l, r] = MakeJoinInputs();
  HashJoinOptions options = PrefixedJoin(
      JoinType::kInner,
      Expr::And(EquiCondition(),
                Expr::Compare(CompareOp::kEq, Expr::ColumnRef("rv"),
                              Expr::Literal(Value::String("y")))));
  auto out = HashJoinBatches(l, r, options);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1u);
}

// Inputs whose residual `lv < rv` rejects some equi-key candidates: left
// row (2, 30) keeps only one of its two candidates, (4, 50) loses its only
// one, and a NULL `lv` fails the residual against every right row.
std::pair<RecordBatch, RecordBatch> MakeResidualJoinInputs() {
  Schema left({{"k", DataType::kInt64, true}, {"lv", DataType::kInt64, true}});
  RecordBatch l(left);
  for (const auto& [k, v] :
       std::vector<std::pair<Value, Value>>{{Value::Int64(2), Value::Int64(10)},
                                            {Value::Int64(1), Value::Int64(5)},
                                            {Value::Int64(2), Value::Int64(30)},
                                            {Value::Null(), Value::Null()},
                                            {Value::Int64(4), Value::Int64(50)}}) {
    EXPECT_TRUE(l.AppendRow({k, v}).ok());
  }
  Schema right(
      {{"k", DataType::kInt64, true}, {"rv", DataType::kInt64, true}});
  RecordBatch r(right);
  for (const auto& [k, v] :
       std::vector<std::pair<Value, Value>>{{Value::Int64(2), Value::Int64(20)},
                                            {Value::Int64(4), Value::Int64(40)},
                                            {Value::Int64(2), Value::Int64(35)},
                                            {Value::Null(), Value::Int64(99)},
                                            {Value::Int64(5), Value::Int64(1)}}) {
    EXPECT_TRUE(r.AppendRow({k, v}).ok());
  }
  return {l, r};
}

ExprPtr ResidualLess() {
  return Expr::Compare(CompareOp::kLt, Expr::ColumnRef("lv"),
                       Expr::ColumnRef("rv"));
}

// Every output row as "a|b|c|d", in output order.
std::vector<std::string> JoinRows(const RecordBatch& batch) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      if (c > 0) row += "|";
      row += batch.column(c).GetValue(r).ToString();
    }
    rows.push_back(row);
  }
  return rows;
}

TEST(HashJoinTest, LeftOuterResidualRowsAndOrder) {
  auto [l, r] = MakeResidualJoinInputs();
  auto out = HashJoinBatches(
      l, r,
      PrefixedJoin(JoinType::kLeftOuter,
                   Expr::And(EquiCondition(), ResidualLess())));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Padding sits at its left row's position.
  EXPECT_EQ(JoinRows(*out),
            (std::vector<std::string>{"2|10|2|20", "2|10|2|35",
                                      "1|5|NULL|NULL", "2|30|2|35",
                                      "NULL|NULL|NULL|NULL",
                                      "4|50|NULL|NULL"}));
}

TEST(HashJoinTest, RightOuterResidualRowsAndOrder) {
  auto [l, r] = MakeResidualJoinInputs();
  auto out = HashJoinBatches(
      l, r,
      PrefixedJoin(JoinType::kRightOuter,
                   Expr::And(EquiCondition(), ResidualLess())));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Matches in left-row order, then every unmatched right row at the end:
  // (4, 40) only had a candidate the residual rejected.
  EXPECT_EQ(JoinRows(*out),
            (std::vector<std::string>{"2|10|2|20", "2|10|2|35", "2|30|2|35",
                                      "NULL|NULL|4|40", "NULL|NULL|NULL|99",
                                      "NULL|NULL|5|1"}));
}

TEST(HashJoinTest, LeftOuterRangeJoinPadsInPlace) {
  auto [l, r] = MakeResidualJoinInputs();
  auto out = HashJoinBatches(
      l, r,
      PrefixedJoin(JoinType::kLeftOuter,
                   Expr::Compare(CompareOp::kGt, Expr::ColumnRef("lv"),
                                 Expr::ColumnRef("rv"))));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(JoinRows(*out),
            (std::vector<std::string>{
                "2|10|5|1", "1|5|5|1", "2|30|2|20", "2|30|5|1",
                "NULL|NULL|NULL|NULL", "4|50|2|20", "4|50|4|40", "4|50|2|35",
                "4|50|5|1"}));
}

TEST(HashJoinTest, CrossJoinResidualRowsAndOrder) {
  auto [l, r] = MakeResidualJoinInputs();
  auto out =
      HashJoinBatches(l, r, PrefixedJoin(JoinType::kCross, ResidualLess()));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(JoinRows(*out),
            (std::vector<std::string>{
                "2|10|2|20", "2|10|4|40", "2|10|2|35", "2|10|NULL|99",
                "1|5|2|20", "1|5|4|40", "1|5|2|35", "1|5|NULL|99",
                "2|30|4|40", "2|30|2|35", "2|30|NULL|99", "4|50|NULL|99"}));
}

TEST(HashJoinTest, NoCollisionKeepsPlainNames) {
  Schema left({{"a", DataType::kInt64, true}});
  Schema right({{"b", DataType::kInt64, true}});
  RecordBatch l(left);
  RecordBatch r(right);
  ASSERT_TRUE(l.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(r.AppendRow({Value::Int64(1)}).ok());
  HashJoinOptions options = PrefixedJoin(JoinType::kCross);
  auto out = HashJoinBatches(l, r, options);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->schema().HasField("a"));
  EXPECT_TRUE(out->schema().HasField("b"));
}

// ---------- Empty-input edges ----------

TEST(OperatorEdgeTest, EmptyInputsFlowThrough) {
  Schema schema({{"v", DataType::kInt64, true}});
  RecordBatch empty(schema);
  auto stmt = ParseSql("SELECT v FROM t WHERE v > 1 ORDER BY v");
  ASSERT_TRUE(stmt.ok());

  auto filtered = FilterBatch(empty, stmt->where);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->num_rows(), 0u);

  auto projected = ProjectBatch(empty, stmt->items);
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->num_rows(), 0u);

  auto sorted = SortBatch(empty, stmt->order_by);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->num_rows(), 0u);

  auto top = TopNBatch(empty, stmt->order_by, 5);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->num_rows(), 0u);

  EXPECT_EQ(LimitBatch(empty, 3).num_rows(), 0u);
}

TEST(OperatorEdgeTest, JoinWithEmptySides) {
  Schema ls({{"k", DataType::kInt64, true}});
  Schema rs({{"j", DataType::kInt64, true}});
  RecordBatch left(ls);
  RecordBatch right(rs);
  ASSERT_TRUE(right.AppendRow({Value::Int64(1)}).ok());
  HashJoinOptions options;
  options.type = JoinType::kInner;
  options.condition = Expr::Compare(CompareOp::kEq, Expr::ColumnRef("k"),
                                    Expr::ColumnRef("j"));
  auto inner = HashJoinBatches(left, right, options);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->num_rows(), 0u);
  options.type = JoinType::kRightOuter;
  auto right_outer = HashJoinBatches(left, right, options);
  ASSERT_TRUE(right_outer.ok());
  EXPECT_EQ(right_outer->num_rows(), 1u);  // unmatched right row padded
  EXPECT_TRUE(right_outer->column(0).IsNull(0));
}

TEST(OperatorEdgeTest, ProjectUnknownColumnErrors) {
  Schema schema({{"v", DataType::kInt64, true}});
  RecordBatch batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::Int64(1)}).ok());
  auto stmt = ParseSql("SELECT zzz FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(ProjectBatch(batch, stmt->items).status().IsNotFound());
}

}  // namespace
}  // namespace feisu
