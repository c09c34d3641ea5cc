// Differential testing: the full distributed engine (parser → optimizer →
// SmartIndex-accelerated leaf scans → stem/master merges) against the
// naive row-at-a-time reference interpreter, over generated workloads and
// handwritten corner cases. Any divergence is a bug in one of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/engine.h"
#include "sql/parser.h"
#include "storage/storage_factory.h"
#include "tests/reference_executor.h"
#include "workload/datagen.h"
#include "workload/tracegen.h"

namespace feisu {
namespace {

// One rendered line per row, in batch order.
std::vector<std::string> RenderRows(const RecordBatch& batch) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      Value v = batch.column(c).GetValue(r);
      // Render int-valued doubles like ints so SUM typing differences
      // between the two executors don't count as divergence.
      if (!v.is_null() && v.type() == DataType::kDouble &&
          std::isfinite(v.double_value()) &&
          v.double_value() == static_cast<double>(
                                  static_cast<int64_t>(v.double_value()))) {
        row += std::to_string(static_cast<int64_t>(v.double_value()));
      } else {
        row += v.ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string CanonicalRows(const RecordBatch& batch) {
  std::vector<std::string> rows = RenderRows(batch);
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& row : rows) out += row + "\n";
  return out;
}

class DifferentialFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig config;
    config.num_leaf_nodes = 4;
    config.rows_per_block = 256;
    config.master.enable_task_result_reuse = false;
    engine_ = std::make_unique<FeisuEngine>(config);
    engine_->AddStorage("/hdfs", MakeHdfs(), true);
    engine_->GrantAllDomains("diff");

    // t1: generated log-like data (1024 rows over 4 blocks).
    schema_ = MakeLogSchema(10);
    Rng rng(99);
    RecordBatch t1 = GenerateRows(schema_, 1024, &rng);
    ASSERT_TRUE(engine_->CreateTable("t1", schema_, "/hdfs/t1").ok());
    ASSERT_TRUE(engine_->Ingest("t1", t1).ok());
    ASSERT_TRUE(engine_->Flush("t1").ok());
    reference_.AddTable("t1", t1);

    // dim: a small dimension table with distinct column names (joins).
    Schema dim_schema({{"key", DataType::kInt64, true},
                       {"label", DataType::kString, true}});
    RecordBatch dim(dim_schema);
    for (int64_t k = 0; k < 30; ++k) {
      ASSERT_TRUE(dim.AppendRow({k % 3 == 0 ? Value::Null() : Value::Int64(k),
                                 Value::String("lab" + std::to_string(k % 5))})
                      .ok());
    }
    ASSERT_TRUE(engine_->CreateTable("dim", dim_schema, "/hdfs/dim").ok());
    ASSERT_TRUE(engine_->Ingest("dim", dim).ok());
    ASSERT_TRUE(engine_->Flush("dim").ok());
    reference_.AddTable("dim", dim);
  }

  /// Runs one query through both executors and compares. Returns false if
  /// the query was skipped (both sides erroring is treated as agreement).
  /// With `ordered`, the rows must also come out in the same order (the
  /// query's ORDER BY must then leave no ties).
  bool CheckQuery(const std::string& sql, bool ordered = false) {
    auto stmt = ParseSql(sql);
    if (!stmt.ok()) return false;
    auto expected = reference_.Execute(*stmt);
    auto actual = engine_->Query("diff", sql);
    if (!expected.ok() || !actual.ok()) {
      EXPECT_EQ(expected.ok(), actual.ok())
          << sql << "\n  engine: " << actual.status().ToString()
          << "\n  reference: " << expected.status().ToString();
      return false;
    }
    // Unordered LIMIT picks an arbitrary subset: compare cardinality only.
    if (stmt->limit >= 0 && stmt->order_by.empty()) {
      EXPECT_EQ(actual->batch.num_rows(), expected->num_rows()) << sql;
      return true;
    }
    EXPECT_EQ(CanonicalRows(actual->batch), CanonicalRows(*expected)) << sql;
    if (ordered) {
      EXPECT_EQ(RenderRows(actual->batch), RenderRows(*expected)) << sql;
    }
    return true;
  }

  Schema schema_;
  std::unique_ptr<FeisuEngine> engine_;
  ReferenceExecutor reference_;
};

TEST_F(DifferentialFixture, GeneratedScanWorkloadAgrees) {
  TraceConfig config;
  config.table = "t1";
  config.num_queries = 250;
  config.predicate_reuse_prob = 0.6;  // exercise SmartIndex reuse paths
  config.value_domain = 30;
  config.group_by_prob = 0.3;
  config.order_by_prob = 0.2;
  config.seed = 11;
  size_t compared = 0;
  for (const auto& q : GenerateTrace(config, schema_)) {
    if (CheckQuery(q.sql)) ++compared;
  }
  EXPECT_GT(compared, 200u);
}

TEST_F(DifferentialFixture, HandwrittenCornerCases) {
  const char* kQueries[] = {
      // Aggregates incl. empty-match global aggregation.
      "SELECT COUNT(*), SUM(c0), MIN(c3), MAX(c3), AVG(c0) FROM t1",
      "SELECT COUNT(*) FROM t1 WHERE c0 > 99999",
      "SELECT SUM(c0) FROM t1 WHERE c0 > 99999",
      // NULL-heavy three-valued logic, incl. the Fig. 7 negation shapes.
      "SELECT COUNT(*) FROM t1 WHERE c2 > 1",
      "SELECT COUNT(*) FROM t1 WHERE NOT (c2 > 1)",
      "SELECT COUNT(*) FROM t1 WHERE c2 > 1 OR NOT (c2 > 1)",
      "SELECT COUNT(*) FROM t1 WHERE NOT (c1 CONTAINS 'kw_1')",
      // Grouping on expressions and strings; HAVING.
      "SELECT c0 % 3 AS b, COUNT(*) AS n FROM t1 GROUP BY c0 % 3 "
      "ORDER BY b",
      "SELECT c1, COUNT(*) AS n FROM t1 GROUP BY c1 HAVING COUNT(*) > 30 "
      "ORDER BY n DESC, c1",
      // Grouped MIN/MAX over a string and a double column, a two-column
      // GROUP BY, and a GROUP BY whose predicate matches no rows.
      "SELECT c2, MIN(c1), MAX(c1), MIN(c3), MAX(c3) FROM t1 GROUP BY c2",
      "SELECT c2, c1, COUNT(*) AS n, SUM(c0) FROM t1 GROUP BY c2, c1",
      "SELECT c1, COUNT(*) AS n FROM t1 WHERE c0 > 99999 GROUP BY c1",
      // A projected comparison is NULL where its operand is NULL.
      "SELECT c0, c2 > 1 AS b FROM t1 WHERE c0 < 20",
      // Arithmetic projections and aliases in ORDER BY.
      "SELECT c0 + c2 AS s FROM t1 WHERE c0 < 5 ORDER BY s DESC, s LIMIT 9",
      // Ordered limit (leaf top-k path).
      "SELECT c0 FROM t1 WHERE c2 >= 2 ORDER BY c0 DESC LIMIT 13",
      // Joins: inner with duplicates and NULL keys, both outer flavors,
      // and a residual non-equi condition.
      "SELECT COUNT(*) FROM t1 JOIN dim ON c0 = key",
      "SELECT COUNT(*) FROM t1 LEFT JOIN dim ON c0 = key WHERE c0 < 20",
      "SELECT COUNT(*) FROM dim RIGHT JOIN t1 ON key = c0 WHERE c0 < 20",
      "SELECT label, COUNT(*) AS n FROM t1 JOIN dim ON c0 = key "
      "GROUP BY label ORDER BY n DESC, label",
      "SELECT COUNT(*) FROM t1 JOIN dim ON c0 = key AND c2 > 2",
      // Cross join on a filtered pair of small sets.
      "SELECT COUNT(*) FROM dim AS a CROSS JOIN dim AS b WHERE a.key < 4",
  };
  for (const char* sql : kQueries) {
    EXPECT_TRUE(CheckQuery(sql)) << "skipped/diverged: " << sql;
  }
}

// NaN reaches tables through log ingest (strtod accepts "nan"). One block
// holds NaN and no NULL, the other NaN and a NULL, and each starts with its
// NaN, so the zone-map stats, the predicate kernel, SmartIndex reuse, MIN/
// MAX and sorting must all follow the one order: NaN equals NaN and sorts
// after every number.
TEST_F(DifferentialFixture, NaNFollowsOneOrderEverywhere) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({{"id", DataType::kInt64, true},
                 {"c", DataType::kDouble, true}});
  const Value blocks[2][4] = {
      {Value::Double(nan), Value::Double(1.0), Value::Double(5.0),
       Value::Double(7.5)},
      {Value::Double(nan), Value::Null(), Value::Double(2.0),
       Value::Double(-0.0)}};
  ASSERT_TRUE(engine_->CreateTable("nt", schema, "/hdfs/nt").ok());
  RecordBatch all(schema);
  int64_t id = 0;
  for (const auto& block : blocks) {
    RecordBatch rows(schema);
    for (const Value& c : block) {
      ASSERT_TRUE(rows.AppendRow({Value::Int64(id++), c}).ok());
    }
    ASSERT_TRUE(engine_->Ingest("nt", rows).ok());
    ASSERT_TRUE(engine_->Flush("nt").ok());
    ASSERT_TRUE(all.Append(rows).ok());
  }
  ASSERT_EQ(engine_->catalog().Find("nt")->blocks().size(), 2u);
  reference_.AddTable("nt", all);
  const char* kQueries[] = {
      "SELECT id FROM nt WHERE c = 5.0",
      "SELECT id FROM nt WHERE c <> 5.0",
      "SELECT COUNT(*) FROM nt WHERE c > 2.5",
      "SELECT COUNT(*) FROM nt WHERE NOT (c > 2.5)",
      "SELECT id FROM nt WHERE c >= 7.5",
      "SELECT id FROM nt WHERE c <= 0",
      "SELECT MIN(c), MAX(c) FROM nt",
      "SELECT MIN(c), MAX(c) FROM nt WHERE id < 4",
  };
  // The second round is served from SmartIndex.
  for (int round = 0; round < 2; ++round) {
    for (const char* sql : kQueries) {
      EXPECT_TRUE(CheckQuery(sql)) << "skipped: " << sql;
    }
    EXPECT_TRUE(CheckQuery("SELECT id, c FROM nt ORDER BY c, id", true));
    EXPECT_TRUE(CheckQuery("SELECT id, c FROM nt ORDER BY c DESC, id LIMIT 3",
                           true));
  }
  // The order itself: MAX is NaN, MIN the least number (-0.0).
  auto minmax = engine_->Query("diff", "SELECT MIN(c), MAX(c) FROM nt");
  ASSERT_TRUE(minmax.ok());
  EXPECT_EQ(minmax->batch.column(0).GetDouble(0), 0.0);
  EXPECT_TRUE(std::isnan(minmax->batch.column(1).GetDouble(0)));
}

TEST_F(DifferentialFixture, SmartIndexWarmupDoesNotChangeResults) {
  // Replay the same similar-predicate family repeatedly: first pass cold,
  // later passes fully index-served. Reference agrees every time.
  for (int round = 0; round < 3; ++round) {
    for (int v = 0; v < 6; ++v) {
      std::string where = " WHERE c2 > " + std::to_string(v) +
                          " AND c0 <= " + std::to_string(40 + v);
      ASSERT_TRUE(CheckQuery("SELECT COUNT(*) FROM t1" + where));
      ASSERT_TRUE(
          CheckQuery("SELECT SUM(c0) FROM t1 WHERE NOT (c2 > " +
                     std::to_string(v) + ")"));
    }
  }
  ResolverStats stats = engine_->AggregateResolverStats();
  EXPECT_GT(stats.TotalHits(), 50u);  // the warm path really ran
}

}  // namespace
}  // namespace feisu
