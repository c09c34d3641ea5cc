#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"

namespace feisu {
namespace {

// ---------- Lexer ----------

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b2 FROM t WHERE a >= 10.5");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 9u);
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_TRUE((*tokens)[2].IsSymbol(","));
  EXPECT_EQ((*tokens)[3].text, "b2");
  EXPECT_TRUE((*tokens)[4].IsKeyword("FROM"));
  EXPECT_TRUE((*tokens)[6].IsKeyword("WHERE"));
  EXPECT_TRUE((*tokens)[8].IsSymbol(">="));
  EXPECT_EQ((*tokens)[9].type, TokenType::kFloat);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("FROM"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("WHERE"));
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = Tokenize("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(LexerTest, UnterminatedString) {
  EXPECT_TRUE(Tokenize("'oops").status().IsInvalidArgument());
}

TEST(LexerTest, NotEqualsVariants) {
  auto tokens = Tokenize("a != b <> c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("!="));
  EXPECT_TRUE((*tokens)[3].IsSymbol("!="));
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_TRUE(Tokenize("SELECT a @ b").status().IsInvalidArgument());
}

TEST(LexerTest, EndOfInputSentinel) {
  auto tokens = Tokenize("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kEndOfInput);
}

// ---------- Parser: structure ----------

TEST(ParserTest, MinimalSelect) {
  auto stmt = ParseSql("SELECT a FROM t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->items[0].expr->column(), "a");
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].name, "t");
  EXPECT_EQ(stmt->where, nullptr);
  EXPECT_EQ(stmt->limit, -1);
}

TEST(ParserTest, SelectStar) {
  auto stmt = ParseSql("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select_star);
}

TEST(ParserTest, AliasesExplicitAndImplicit) {
  auto stmt = ParseSql("SELECT a AS x, b y FROM t1 AS u, t2 v");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items[0].alias, "x");
  EXPECT_EQ(stmt->items[1].alias, "y");
  EXPECT_EQ(stmt->from[0].alias, "u");
  EXPECT_EQ(stmt->from[1].alias, "v");
}

TEST(ParserTest, WhereWithPrecedence) {
  auto stmt = ParseSql("SELECT a FROM t WHERE a > 1 AND b < 2 OR c = 3");
  ASSERT_TRUE(stmt.ok());
  // OR binds loosest: ((a>1 AND b<2) OR (c=3)).
  ASSERT_EQ(stmt->where->kind(), ExprKind::kLogical);
  EXPECT_EQ(stmt->where->logical_op(), LogicalOp::kOr);
  EXPECT_EQ(stmt->where->child(0)->logical_op(), LogicalOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = ParseSql("SELECT a + b * 2 FROM t");
  ASSERT_TRUE(stmt.ok());
  const ExprPtr& e = stmt->items[0].expr;
  ASSERT_EQ(e->kind(), ExprKind::kArithmetic);
  EXPECT_EQ(e->arith_op(), ArithOp::kAdd);
  EXPECT_EQ(e->child(1)->arith_op(), ArithOp::kMul);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto stmt = ParseSql("SELECT (a + b) * 2 FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].expr->arith_op(), ArithOp::kMul);
}

TEST(ParserTest, CountStarAndAggregates) {
  auto stmt = ParseSql(
      "SELECT COUNT(*), SUM(a), MIN(b), MAX(c), AVG(d) FROM t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->items.size(), 5u);
  EXPECT_EQ(stmt->items[0].expr->agg_func(), AggFunc::kCount);
  EXPECT_TRUE(stmt->items[0].expr->children().empty());
  EXPECT_EQ(stmt->items[1].expr->agg_func(), AggFunc::kSum);
  EXPECT_EQ(stmt->items[4].expr->agg_func(), AggFunc::kAvg);
}

TEST(ParserTest, AggregateWithin) {
  auto stmt = ParseSql("SELECT COUNT(a) WITHIN b FROM t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_NE(stmt->items[0].expr->within(), nullptr);
  EXPECT_EQ(stmt->items[0].expr->within()->column(), "b");
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  auto stmt = ParseSql(
      "SELECT a, COUNT(*) AS n FROM t WHERE b > 0 GROUP BY a "
      "HAVING COUNT(*) > 5 ORDER BY n DESC, a LIMIT 10;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->group_by.size(), 1u);
  ASSERT_NE(stmt->having, nullptr);
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_TRUE(stmt->order_by[0].descending);
  EXPECT_FALSE(stmt->order_by[1].descending);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(ParserTest, JoinVariants) {
  auto stmt = ParseSql(
      "SELECT a FROM t1 JOIN t2 ON t1.k = t2.k "
      "LEFT OUTER JOIN t3 ON t1.k = t3.k CROSS JOIN t4");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->joins.size(), 3u);
  EXPECT_EQ(stmt->joins[0].type, JoinType::kInner);
  EXPECT_EQ(stmt->joins[1].type, JoinType::kLeftOuter);
  EXPECT_EQ(stmt->joins[2].type, JoinType::kCross);
  EXPECT_EQ(stmt->joins[2].condition, nullptr);
}

TEST(ParserTest, RightOuterJoin) {
  auto stmt = ParseSql("SELECT a FROM t1 RIGHT JOIN t2 ON t1.k = t2.k");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->joins[0].type, JoinType::kRightOuter);
}

TEST(ParserTest, QualifiedColumns) {
  auto stmt = ParseSql("SELECT t1.a FROM t1 WHERE t1.b = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].expr->table(), "t1");
  EXPECT_EQ(stmt->items[0].expr->column(), "a");
}

TEST(ParserTest, ContainsOperator) {
  auto stmt = ParseSql("SELECT a FROM t WHERE url CONTAINS 'baidu.com'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->compare_op(), CompareOp::kContains);
}

TEST(ParserTest, NotVariants) {
  auto stmt = ParseSql("SELECT a FROM t WHERE c2 > 0 AND !(c2 > 5)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->where->child(1)->logical_op(), LogicalOp::kNot);
  auto stmt2 = ParseSql("SELECT a FROM t WHERE NOT c2 > 5");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(stmt2->where->logical_op(), LogicalOp::kNot);
}

TEST(ParserTest, LiteralsAllKinds) {
  auto stmt = ParseSql(
      "SELECT a FROM t WHERE b = 'x' AND c = 1.5 AND d = TRUE AND e = NULL "
      "AND f = -3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
}

TEST(ParserTest, NegativeNumbersViaUnaryMinus) {
  auto stmt = ParseSql("SELECT a FROM t WHERE b > -10");
  ASSERT_TRUE(stmt.ok());
  // -10 parses as (0 - 10).
  EXPECT_EQ(stmt->where->child(1)->kind(), ExprKind::kArithmetic);
}

// ---------- Parser: errors ----------

TEST(ParserErrorTest, MissingFrom) {
  EXPECT_TRUE(ParseSql("SELECT a").status().IsInvalidArgument());
}

TEST(ParserErrorTest, MissingSelect) {
  EXPECT_TRUE(ParseSql("FROM t").status().IsInvalidArgument());
}

TEST(ParserErrorTest, DanglingOperator) {
  EXPECT_TRUE(ParseSql("SELECT a FROM t WHERE b >").status()
                  .IsInvalidArgument());
}

TEST(ParserErrorTest, TrailingTokens) {
  EXPECT_TRUE(ParseSql("SELECT a FROM t extra junk +")
                  .status()
                  .IsInvalidArgument());
}

TEST(ParserErrorTest, BadLimit) {
  EXPECT_TRUE(
      ParseSql("SELECT a FROM t LIMIT x").status().IsInvalidArgument());
}

TEST(ParserErrorTest, JoinWithoutOn) {
  EXPECT_TRUE(
      ParseSql("SELECT a FROM t1 JOIN t2").status().IsInvalidArgument());
}

TEST(ParserErrorTest, UnbalancedParens) {
  EXPECT_TRUE(ParseSql("SELECT a FROM t WHERE (b > 1").status()
                  .IsInvalidArgument());
}

TEST(ParserErrorTest, ErrorMessageCarriesOffset) {
  Status status = ParseSql("SELECT a FROM t WHERE >").status();
  EXPECT_NE(status.message().find("offset"), std::string::npos);
}

// ---------- AST rendering ----------

TEST(AstTest, ToStringRoundTripsThroughParser) {
  const char* queries[] = {
      "SELECT a FROM t",
      "SELECT a, COUNT(*) AS n FROM t WHERE (b > 1) GROUP BY a "
      "ORDER BY n DESC LIMIT 5",
      "SELECT a FROM t1 INNER JOIN t2 ON (t1.k = t2.k) WHERE (t1.x < 3)",
  };
  for (const char* sql : queries) {
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    std::string rendered = stmt->ToString();
    auto reparsed = ParseSql(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    // Rendering is canonical: render(parse(render(x))) == render(x).
    EXPECT_EQ(reparsed->ToString(), rendered);
  }
}

TEST(AstTest, OutputNamePreference) {
  auto stmt = ParseSql("SELECT a AS x, b, COUNT(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].OutputName(), "x");
  EXPECT_EQ(stmt->items[1].OutputName(), "b");
  EXPECT_EQ(stmt->items[2].OutputName(), "COUNT(*)");
}

// ---------- Robustness fuzzing ----------

// The parser must never crash or accept garbage silently: every mutation
// either parses (and re-renders) or returns InvalidArgument.
TEST(ParserFuzzTest, RandomMutationsNeverCrash) {
  const std::string base =
      "SELECT c0, COUNT(*) AS n FROM t1 WHERE c2 > 0 AND (c2 <= 5 OR "
      "c7 CONTAINS 'kw') GROUP BY c0 ORDER BY n DESC LIMIT 10";
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const char kNoise[] = "()'\",<>=!*+-%.;$ABCxyz019_";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    size_t edits = 1 + next() % 6;
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = next() % mutated.size();
      switch (next() % 3) {
        case 0:  // replace
          mutated[pos] = kNoise[next() % (sizeof(kNoise) - 1)];
          break;
        case 1:  // delete
          mutated.erase(pos, 1 + next() % 3);
          break;
        default:  // insert
          mutated.insert(pos, 1, kNoise[next() % (sizeof(kNoise) - 1)]);
          break;
      }
      if (mutated.empty()) mutated.push_back('x');
    }
    auto stmt = ParseSql(mutated);
    if (stmt.ok()) {
      // Whatever parsed must re-render into something parseable.
      auto reparsed = ParseSql(stmt->ToString());
      EXPECT_TRUE(reparsed.ok()) << mutated << " -> " << stmt->ToString();
    } else {
      EXPECT_TRUE(stmt.status().IsInvalidArgument()) << mutated;
    }
  }
}

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  const char* kTokens[] = {"SELECT", "FROM",  "WHERE", "AND",  "OR",
                           "NOT",    "(",     ")",     ",",    "*",
                           "a",      "t",     "1",     "'s'",  ">",
                           "JOIN",   "ON",    "GROUP", "BY",   "LIMIT"};
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::string soup;
    size_t len = 1 + next() % 12;
    for (size_t i = 0; i < len; ++i) {
      soup += kTokens[next() % 20];
      soup += " ";
    }
    auto stmt = ParseSql(soup);  // must not crash; outcome is free
    (void)stmt;
  }
}

}  // namespace
}  // namespace feisu
