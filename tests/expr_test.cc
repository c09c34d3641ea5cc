#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "expr/evaluator.h"
#include "expr/expr.h"
#include "expr/normalize.h"
#include "sql/parser.h"

namespace feisu {
namespace {

ExprPtr ParseWhere(const std::string& condition) {
  auto stmt = ParseSql("SELECT a FROM t WHERE " + condition);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return stmt->where;
}

RecordBatch MakeBatch() {
  Schema schema({{"a", DataType::kInt64, true},
                 {"b", DataType::kInt64, true},
                 {"s", DataType::kString, true},
                 {"d", DataType::kDouble, true}});
  RecordBatch batch(schema);
  // a: 1..5; b: 10,20,30,NULL,50; s: varied; d: halves.
  EXPECT_TRUE(batch.AppendRow({Value::Int64(1), Value::Int64(10),
                               Value::String("apple pie"),
                               Value::Double(0.5)}).ok());
  EXPECT_TRUE(batch.AppendRow({Value::Int64(2), Value::Int64(20),
                               Value::String("banana"),
                               Value::Double(1.5)}).ok());
  EXPECT_TRUE(batch.AppendRow({Value::Int64(3), Value::Int64(30),
                               Value::String("cherry"),
                               Value::Double(2.5)}).ok());
  EXPECT_TRUE(batch.AppendRow({Value::Int64(4), Value::Null(),
                               Value::String("apple tart"),
                               Value::Double(3.5)}).ok());
  EXPECT_TRUE(batch.AppendRow({Value::Int64(5), Value::Int64(50),
                               Value::Null(), Value::Double(4.5)}).ok());
  return batch;
}

// ---------- Expr basics ----------

TEST(ExprTest, ToStringCanonical) {
  ExprPtr e = Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("c2"),
                    Expr::Literal(Value::Int64(0))),
      Expr::Compare(CompareOp::kLe, Expr::ColumnRef("c2"),
                    Expr::Literal(Value::Int64(5))));
  EXPECT_EQ(e->ToString(), "((c2 > 0) AND (c2 <= 5))");
}

TEST(ExprTest, EqualsStructural) {
  ExprPtr a = ParseWhere("x > 1 AND y < 2");
  ExprPtr b = ParseWhere("x > 1 AND y < 2");
  ExprPtr c = ParseWhere("x > 1 AND y < 3");
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
}

TEST(ExprTest, CollectColumnsDistinct) {
  ExprPtr e = ParseWhere("x > 1 AND y < x + z");
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols.size(), 3u);
}

TEST(ExprTest, ContainsAggregate) {
  auto stmt = ParseSql("SELECT SUM(a) + 1 FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->items[0].expr->ContainsAggregate());
  EXPECT_FALSE(ParseWhere("a > 1")->ContainsAggregate());
}

TEST(ExprTest, WithChildrenRebuildsOperatorsOnly) {
  ExprPtr a = Expr::ColumnRef("a");
  ExprPtr b = Expr::ColumnRef("b");
  ExprPtr one = Expr::Literal(Value::Int64(1));
  const std::pair<ExprPtr, ExprPtr> cases[] = {
      {Expr::Compare(CompareOp::kLt, a, one),
       Expr::Compare(CompareOp::kLt, b, one)},
      {Expr::And(a, one), Expr::And(b, one)},
      {Expr::Or(a, one), Expr::Or(b, one)},
      {Expr::Arith(ArithOp::kMod, a, one), Expr::Arith(ArithOp::kMod, b, one)},
  };
  for (const auto& [node, want] : cases) {
    // Unchanged children: the very same node.
    EXPECT_EQ(WithChildren(node, {a, one}), node);
    ExprPtr rebuilt = WithChildren(node, {b, one});
    EXPECT_TRUE(rebuilt->Equals(*want)) << rebuilt->ToString();
  }
  EXPECT_TRUE(WithChildren(Expr::Not(a), {b})->Equals(*Expr::Not(b)));
  // Aggregates (and leaves) come back as they are.
  ExprPtr sum = Expr::Aggregate(AggFunc::kSum, a);
  EXPECT_EQ(WithChildren(sum, {b}), sum);
  EXPECT_EQ(WithChildren(a, {}), a);
}

TEST(ExprTest, NegateCompareOp) {
  CompareOp out;
  ASSERT_TRUE(NegateCompareOp(CompareOp::kGt, &out));
  EXPECT_EQ(out, CompareOp::kLe);
  ASSERT_TRUE(NegateCompareOp(CompareOp::kEq, &out));
  EXPECT_EQ(out, CompareOp::kNe);
  EXPECT_FALSE(NegateCompareOp(CompareOp::kContains, &out));
}

TEST(ExprTest, MirrorCompareOp) {
  EXPECT_EQ(MirrorCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(MirrorCompareOp(CompareOp::kGe), CompareOp::kLe);
  EXPECT_EQ(MirrorCompareOp(CompareOp::kEq), CompareOp::kEq);
}

// ---------- Normalization ----------

TEST(NormalizeTest, PushDownNotFlipsComparison) {
  ExprPtr e = PushDownNot(ParseWhere("NOT (c2 > 5)"));
  EXPECT_EQ(e->ToString(), "(c2 <= 5)");
}

TEST(NormalizeTest, DeMorganOverAnd) {
  ExprPtr e = PushDownNot(ParseWhere("NOT (a > 1 AND b < 2)"));
  EXPECT_EQ(e->ToString(), "((a <= 1) OR (b >= 2))");
}

TEST(NormalizeTest, DoubleNegation) {
  ExprPtr e = PushDownNot(ParseWhere("NOT (NOT (a = 1))"));
  EXPECT_EQ(e->ToString(), "(a = 1)");
}

TEST(NormalizeTest, NotContainsKeepsWrapper) {
  ExprPtr e = PushDownNot(ParseWhere("NOT (s CONTAINS 'x')"));
  EXPECT_EQ(e->kind(), ExprKind::kLogical);
  EXPECT_EQ(e->logical_op(), LogicalOp::kNot);
}

TEST(NormalizeTest, CanonicalizeMirrorsLiteralLeft) {
  ExprPtr e = CanonicalizeAtoms(ParseWhere("5 < c2"));
  EXPECT_EQ(e->ToString(), "(c2 > 5)");
}

TEST(NormalizeTest, CanonicalizeOrdersCommutativeOperands) {
  ExprPtr ab = CanonicalizeAtoms(ParseWhere("a = 1 AND b = 2"));
  ExprPtr ba = CanonicalizeAtoms(ParseWhere("b = 2 AND a = 1"));
  EXPECT_EQ(ab->ToString(), ba->ToString());
}

TEST(NormalizeTest, CnfSplitsConjuncts) {
  std::vector<ExprPtr> conjuncts =
      NormalizePredicate(ParseWhere("a > 1 AND b < 2 AND c = 3"));
  EXPECT_EQ(conjuncts.size(), 3u);
}

TEST(NormalizeTest, CnfDistributesOr) {
  // (a AND b) OR c => (a OR c) AND (b OR c).
  std::vector<ExprPtr> conjuncts =
      NormalizePredicate(ParseWhere("(a = 1 AND b = 2) OR c = 3"));
  ASSERT_EQ(conjuncts.size(), 2u);
  for (const auto& conjunct : conjuncts) {
    EXPECT_EQ(conjunct->logical_op(), LogicalOp::kOr);
  }
}

// The paper's Fig. 7 equivalence: Q10's `c2 <= 5` and Q11/Q12's
// `!(c2 > 5)` normalize to the same predicate key.
TEST(NormalizeTest, Fig7QueriesShareKeys) {
  auto q10 = NormalizePredicate(ParseWhere("c2 > 0 AND c2 <= 5"));
  auto q11 = NormalizePredicate(ParseWhere("c2 > 0 AND !(c2 > 5)"));
  auto q12 = NormalizePredicate(ParseWhere("NOT (c2 <= 0 OR c2 > 5)"));
  ASSERT_EQ(q10.size(), 2u);
  ASSERT_EQ(q11.size(), 2u);
  ASSERT_EQ(q12.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(PredicateKey(q10[i]), PredicateKey(q11[i]));
    EXPECT_EQ(PredicateKey(q10[i]), PredicateKey(q12[i]));
  }
}

TEST(NormalizeTest, NullPredicate) {
  EXPECT_TRUE(NormalizePredicate(nullptr).empty());
}

// ---------- Evaluation ----------

TEST(EvaluatorTest, SimpleComparison) {
  RecordBatch batch = MakeBatch();
  auto bits = EvaluatePredicate(*ParseWhere("a > 2"), batch);
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->ToString(), "00111");
}

TEST(EvaluatorTest, NullNeverMatches) {
  RecordBatch batch = MakeBatch();
  // b is NULL on row 3: neither b > 0 nor b <= 0 select it.
  auto gt = EvaluatePredicate(*ParseWhere("b > 0"), batch);
  auto le = EvaluatePredicate(*ParseWhere("b <= 0"), batch);
  ASSERT_TRUE(gt.ok());
  ASSERT_TRUE(le.ok());
  EXPECT_FALSE(gt->Get(3));
  EXPECT_FALSE(le->Get(3));
}

TEST(EvaluatorTest, AndOrNot) {
  RecordBatch batch = MakeBatch();
  auto bits =
      EvaluatePredicate(*ParseWhere("a > 1 AND NOT (a >= 4)"), batch);
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->ToString(), "01100");
  auto bits2 = EvaluatePredicate(*ParseWhere("a = 1 OR a = 5"), batch);
  ASSERT_TRUE(bits2.ok());
  EXPECT_EQ(bits2->ToString(), "10001");
}

TEST(EvaluatorTest, ContainsSubstring) {
  RecordBatch batch = MakeBatch();
  auto bits = EvaluatePredicate(*ParseWhere("s CONTAINS 'apple'"), batch);
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->ToString(), "10010");  // NULL string never matches
}

TEST(EvaluatorTest, StringEquality) {
  RecordBatch batch = MakeBatch();
  auto bits = EvaluatePredicate(*ParseWhere("s = 'banana'"), batch);
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->ToString(), "01000");
}

TEST(EvaluatorTest, CrossTypeNumericComparison) {
  RecordBatch batch = MakeBatch();
  auto bits = EvaluatePredicate(*ParseWhere("d > 2"), batch);
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->ToString(), "00111");
}

TEST(EvaluatorTest, ArithmeticInPredicate) {
  RecordBatch batch = MakeBatch();
  auto bits = EvaluatePredicate(*ParseWhere("a * 10 = b"), batch);
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->ToString(), "11101");  // row 3 has NULL b
}

TEST(EvaluatorTest, UnknownColumnErrors) {
  RecordBatch batch = MakeBatch();
  EXPECT_TRUE(EvaluatePredicate(*ParseWhere("zzz > 1"), batch)
                  .status()
                  .IsNotFound());
}

TEST(EvaluatorTest, ProjectionExpression) {
  RecordBatch batch = MakeBatch();
  auto stmt = ParseSql("SELECT a + 1 FROM t");
  ASSERT_TRUE(stmt.ok());
  auto col = EvaluateExpr(*stmt->items[0].expr, batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->GetInt64(0), 2);
  EXPECT_EQ(col->GetInt64(4), 6);
}

TEST(EvaluatorTest, DivisionYieldsDoubleAndNullOnZero) {
  RecordBatch batch = MakeBatch();
  auto stmt = ParseSql("SELECT b / (a - 1) FROM t");
  ASSERT_TRUE(stmt.ok());
  auto col = EvaluateExpr(*stmt->items[0].expr, batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->type(), DataType::kDouble);
  EXPECT_TRUE(col->IsNull(0));  // divide by zero
  EXPECT_EQ(col->GetDouble(1), 20.0);
}

TEST(EvaluatorTest, NullPropagatesThroughArithmetic) {
  RecordBatch batch = MakeBatch();
  auto stmt = ParseSql("SELECT b + 1 FROM t");
  ASSERT_TRUE(stmt.ok());
  auto col = EvaluateExpr(*stmt->items[0].expr, batch);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE(col->IsNull(3));
}

// Arithmetic reads column operands in place and computed operands from
// their own column; mixed either way, a NULL operand, a zero divisor and a
// zero modulus all give NULL, and every NULL slot holds 0.
TEST(EvaluatorTest, ArithmeticOverNullsAndZeroDivisors) {
  RecordBatch batch = MakeBatch();  // a 1..5; b 10,20,30,NULL,50; d halves
  const std::optional<double> kNull;
  struct Case {
    const char* sql;
    DataType type;
    std::vector<std::optional<double>> expected;
  };
  const Case kCases[] = {
      {"b - a", DataType::kInt64, {9, 18, 27, kNull, 45}},
      {"(a - 3) * b", DataType::kInt64, {-20, -20, 0, kNull, 100}},
      {"b * (a - 3)", DataType::kInt64, {-20, -20, 0, kNull, 100}},
      {"b / (a - 3)", DataType::kDouble, {-5, -20, kNull, kNull, 25}},
      {"(b + 0) / (a - 3)", DataType::kDouble, {-5, -20, kNull, kNull, 25}},
      {"d / (a - 1)", DataType::kDouble, {kNull, 1.5, 1.25, 3.5 / 3, 1.125}},
      {"b % (a - 1)", DataType::kInt64, {kNull, 0, 0, kNull, 2}},
      {"(a + 10) % a", DataType::kInt64, {0, 0, 1, 2, 0}},
      {"a % 0", DataType::kInt64, {kNull, kNull, kNull, kNull, kNull}},
      {"b / 0", DataType::kDouble, {kNull, kNull, kNull, kNull, kNull}},
      {"d * 2 + a", DataType::kDouble, {2, 5, 8, 11, 14}},
  };
  for (const Case& c : kCases) {
    auto stmt = ParseSql(std::string("SELECT ") + c.sql + " FROM t");
    ASSERT_TRUE(stmt.ok()) << c.sql;
    auto col = EvaluateExpr(*stmt->items[0].expr, batch);
    ASSERT_TRUE(col.ok()) << c.sql << ": " << col.status().ToString();
    ASSERT_EQ(col->type(), c.type) << c.sql;
    ASSERT_EQ(col->size(), c.expected.size()) << c.sql;
    for (size_t i = 0; i < c.expected.size(); ++i) {
      const bool is_int = c.type == DataType::kInt64;
      const double slot = is_int ? static_cast<double>(col->ints()[i])
                                 : col->doubles()[i];
      if (!c.expected[i].has_value()) {
        EXPECT_TRUE(col->IsNull(i)) << c.sql << " row " << i;
        EXPECT_EQ(slot, 0.0) << c.sql << " NULL slot " << i;
      } else {
        EXPECT_FALSE(col->IsNull(i)) << c.sql << " row " << i;
        EXPECT_DOUBLE_EQ(slot, *c.expected[i]) << c.sql << " row " << i;
      }
    }
    // The borrowing entry point computes the same column.
    auto borrowed = EvaluateColumn(*stmt->items[0].expr, batch);
    ASSERT_TRUE(borrowed.ok()) << c.sql;
    EXPECT_EQ(borrowed->get().validity(), col->validity()) << c.sql;
  }
}

TEST(EvaluatorTest, EvaluateColumnBorrowsColumnReferences) {
  RecordBatch batch = MakeBatch();
  auto ref = EvaluateColumn(*Expr::ColumnRef("s"), batch);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(&ref->get(), batch.ColumnByName("s"));
  EXPECT_FALSE(ref->computed.has_value());
  EXPECT_TRUE(EvaluateColumn(*Expr::ColumnRef("nope"), batch)
                  .status()
                  .IsNotFound());
}

TEST(EvaluatorTest, LiteralPredicate) {
  RecordBatch batch = MakeBatch();
  auto t = EvaluatePredicate(*Expr::Literal(Value::Bool(true)), batch);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->AllOnes());
  auto f = EvaluatePredicate(*Expr::Literal(Value::Bool(false)), batch);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->AllZeros());
}

TEST(EvaluatorTest, AggregateInScalarContextErrors) {
  RecordBatch batch = MakeBatch();
  auto stmt = ParseSql("SELECT SUM(a) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(EvaluateExpr(*stmt->items[0].expr, batch)
                  .status()
                  .IsInvalidArgument());
}

// ---------- The comparison order ----------

TEST(CompareNumbersTest, TotalOrderWithNaNLast) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(CompareNumbers(nan, nan), 0);
  EXPECT_GT(CompareNumbers(nan, inf), 0);
  EXPECT_LT(CompareNumbers(-inf, nan), 0);
  EXPECT_EQ(CompareNumbers(-0.0, 0.0), 0);
  EXPECT_LT(CompareNumbers(1.0, 2.0), 0);
  EXPECT_EQ(Value::Double(nan).Compare(Value::Int64(5)), 1);
  EXPECT_EQ(Value::Double(nan).Compare(Value::Double(nan)), 0);
  // 2^60 and 2^60 + 1 round to one double, so they tie.
  EXPECT_EQ(Value::Int64(int64_t{1} << 60)
                .Compare(Value::Int64((int64_t{1} << 60) + 1)),
            0);
}

// Edge operands per type: NaN, +-0.0, int64 values of +-2^60 that tie as
// doubles, the empty string, and ordinary values around them.
std::vector<Value> EdgeValues(DataType type) {
  const int64_t big = int64_t{1} << 60;
  switch (type) {
    case DataType::kInt64:
      return {Value::Int64(0),       Value::Int64(-1),
              Value::Int64(2),       Value::Int64(big),
              Value::Int64(big + 1), Value::Int64(-big),
              Value::Int64(-big - 1)};
    case DataType::kDouble:
      return {Value::Double(std::numeric_limits<double>::quiet_NaN()),
              Value::Double(-0.0),
              Value::Double(0.0),
              Value::Double(1.0),
              Value::Double(-2.5),
              Value::Double(std::ldexp(1.0, 60)),
              Value::Double(std::numeric_limits<double>::infinity())};
    case DataType::kBool:
      return {Value::Bool(false), Value::Bool(true)};
    case DataType::kString:
      return {Value::String(""), Value::String("a"), Value::String("ab"),
              Value::String("b")};
  }
  return {};
}

// The oracle: `a OP b` through Value::Compare, one row at a time, in
// Kleene logic. 1 = TRUE, 0 = FALSE, -1 = UNKNOWN.
int OracleCompare(CompareOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return -1;
  if (op == CompareOp::kContains) {
    return a.type() == DataType::kString && b.type() == DataType::kString &&
           a.string_value().find(b.string_value()) != std::string::npos;
  }
  return CompareOpHolds(op, a.Compare(b)) ? 1 : 0;
}

// Checks EvaluatePredicate3VL, and the projected bool column of
// EvaluateExpr, against the oracle on every row.
void CheckAgainstOracle(const ExprPtr& expr, const RecordBatch& batch,
                        const std::vector<Value>& lhs,
                        const std::vector<Value>& rhs) {
  auto tri = EvaluatePredicate3VL(*expr, batch);
  ASSERT_TRUE(tri.ok()) << expr->ToString();
  auto col = EvaluateExpr(*expr, batch);
  ASSERT_TRUE(col.ok()) << expr->ToString();
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    int want = OracleCompare(expr->compare_op(), lhs[i], rhs[i]);
    std::string where = expr->ToString() + " row " + std::to_string(i) +
                        ": " + lhs[i].ToString() + " vs " + rhs[i].ToString();
    EXPECT_EQ(tri->is_true.Get(i), want == 1) << where;
    EXPECT_EQ(tri->is_false.Get(i), want == 0) << where;
    EXPECT_EQ(col->IsNull(i), want == -1) << where;
    if (want != -1) {
      EXPECT_EQ(col->GetBool(i), want == 1) << where;
    }
  }
}

// Every op over int64, double, bool and string operands, as column vs
// literal, literal vs column and column vs column, with and without NULLs.
TEST(ComparisonGridTest, KernelMatchesValueCompareOracle) {
  const DataType kTypes[] = {DataType::kInt64, DataType::kDouble,
                             DataType::kBool, DataType::kString};
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                            CompareOp::kContains};
  size_t cells = 0;
  for (DataType ltype : kTypes) {
    for (DataType rtype : kTypes) {
      for (bool with_nulls : {false, true}) {
        std::vector<Value> ledges = EdgeValues(ltype);
        std::vector<Value> redges = EdgeValues(rtype);
        if (with_nulls) {
          ledges.push_back(Value::Null());
          redges.push_back(Value::Null());
        }
        // Every (l, r) pair is one row.
        RecordBatch batch(
            Schema({{"l", ltype, true}, {"r", rtype, true}}));
        std::vector<Value> lrows, rrows;
        for (const Value& l : ledges) {
          for (const Value& r : redges) {
            ASSERT_TRUE(batch.AppendRow({l, r}).ok());
            lrows.push_back(l);
            rrows.push_back(r);
          }
        }
        const size_t n = lrows.size();
        for (CompareOp op : kOps) {
          CheckAgainstOracle(Expr::Compare(op, Expr::ColumnRef("l"),
                                           Expr::ColumnRef("r")),
                             batch, lrows, rrows);
          for (const Value& lit : redges) {
            CheckAgainstOracle(
                Expr::Compare(op, Expr::ColumnRef("l"), Expr::Literal(lit)),
                batch, lrows, std::vector<Value>(n, lit));
          }
          for (const Value& lit : ledges) {
            CheckAgainstOracle(
                Expr::Compare(op, Expr::Literal(lit), Expr::ColumnRef("r")),
                batch, std::vector<Value>(n, lit), rrows);
          }
          cells += 1 + redges.size() + ledges.size();
        }
      }
    }
  }
  EXPECT_GT(cells, 1000u);
}

// ---------- InferType ----------

TEST(InferTypeTest, Basics) {
  Schema schema({{"i", DataType::kInt64, true},
                 {"d", DataType::kDouble, true},
                 {"s", DataType::kString, true}});
  auto type = [&](const std::string& sql_expr) {
    auto stmt = ParseSql("SELECT " + sql_expr + " FROM t");
    EXPECT_TRUE(stmt.ok());
    auto t = InferType(*stmt->items[0].expr, schema);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return *t;
  };
  EXPECT_EQ(type("i"), DataType::kInt64);
  EXPECT_EQ(type("i + 1"), DataType::kInt64);
  EXPECT_EQ(type("i + d"), DataType::kDouble);
  EXPECT_EQ(type("i / 2"), DataType::kDouble);
  EXPECT_EQ(type("i > 2"), DataType::kBool);
  EXPECT_EQ(type("COUNT(*)"), DataType::kInt64);
  EXPECT_EQ(type("AVG(i)"), DataType::kDouble);
  EXPECT_EQ(type("SUM(d)"), DataType::kDouble);
  EXPECT_EQ(type("MIN(s)"), DataType::kString);
}

TEST(InferTypeTest, ArithmeticOnStringErrors) {
  Schema schema({{"s", DataType::kString, true}});
  auto stmt = ParseSql("SELECT s + 1 FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(InferType(*stmt->items[0].expr, schema).ok());
}

// ---------- StatsMayMatch (zone maps) ----------

ColumnStats MakeStats(int64_t min, int64_t max) {
  ColumnStats stats;
  stats.min = Value::Int64(min);
  stats.max = Value::Int64(max);
  return stats;
}

TEST(StatsMayMatchTest, RangePruning) {
  ColumnStats stats = MakeStats(10, 20);
  EXPECT_FALSE(StatsMayMatch(CompareOp::kGt, stats, Value::Int64(25)));
  EXPECT_TRUE(StatsMayMatch(CompareOp::kGt, stats, Value::Int64(15)));
  EXPECT_FALSE(StatsMayMatch(CompareOp::kLt, stats, Value::Int64(10)));
  EXPECT_TRUE(StatsMayMatch(CompareOp::kLe, stats, Value::Int64(10)));
  EXPECT_FALSE(StatsMayMatch(CompareOp::kEq, stats, Value::Int64(9)));
  EXPECT_TRUE(StatsMayMatch(CompareOp::kEq, stats, Value::Int64(10)));
}

TEST(StatsMayMatchTest, NotEqualOnlyPrunesConstantBlocks) {
  EXPECT_FALSE(StatsMayMatch(CompareOp::kNe, MakeStats(5, 5),
                             Value::Int64(5)));
  EXPECT_TRUE(StatsMayMatch(CompareOp::kNe, MakeStats(5, 6),
                            Value::Int64(5)));
}

TEST(StatsMayMatchTest, ContainsNeverPrunes) {
  ColumnStats stats;
  stats.min = Value::String("aaa");
  stats.max = Value::String("zzz");
  EXPECT_TRUE(StatsMayMatch(CompareOp::kContains, stats,
                            Value::String("q")));
}

TEST(StatsMayMatchTest, AllNullBlockNeverMatches) {
  ColumnStats stats;  // min/max stay NULL
  EXPECT_FALSE(StatsMayMatch(CompareOp::kGt, stats, Value::Int64(0)));
}

}  // namespace
}  // namespace feisu
