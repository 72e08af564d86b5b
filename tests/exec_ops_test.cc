// Unit tests for the non-join physical operators: scan, filter, map
// (set-semantics dedup), nest (ν and ν*), unnest (μ), union, difference,
// expr-source, and the work counters.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "base/string_util.h"
#include "catalog/table.h"
#include "exec/basic_ops.h"
#include "exec/executor.h"
#include "exec/nest_op.h"
#include "tests/test_util.h"
#include "values/value_ops.h"

namespace tmdb {
namespace {

using testutil::IntRow;
using testutil::IntSet;
using testutil::RowsEqual;

class ExecOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TMDB_ASSERT_OK_AND_ASSIGN(
        table_, Table::Create("T", Type::Tuple({{"k", Type::Int()},
                                                {"v", Type::Int()}})));
    TMDB_ASSERT_OK(table_->InsertAll({
        IntRow({"k", "v"}, {1, 10}),
        IntRow({"k", "v"}, {1, 20}),
        IntRow({"k", "v"}, {2, 30}),
        IntRow({"k", "v"}, {3, 10}),
    }));
  }

  std::vector<Value> Run(PhysicalOp* op) {
    stats_.Reset();
    ExecContext ctx;
    ctx.stats = &stats_;
    auto rows = CollectRows(op, &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? std::move(rows).value() : std::vector<Value>();
  }

  /// Drains `op` with NextBatch(max = 1) and checks the rows and stats
  /// equal a full-batch Run.
  void ExpectOneRowDrainMatchesRun(PhysicalOp* op) {
    const std::vector<Value> full = Run(op);
    const ExecStats full_stats = stats_;
    ExecStats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    TMDB_ASSERT_OK(op->Open(&ctx));
    std::vector<Value> rows;
    while (true) {
      TMDB_ASSERT_OK_AND_ASSIGN(size_t got, op->NextBatch(&rows, 1));
      ASSERT_LE(got, 1u);
      if (got == 0) break;
    }
    op->Close();
    ASSERT_EQ(rows.size(), full.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(rows[i].Equals(full[i])) << "row " << i;
    }
    EXPECT_TRUE(testutil::StatsMatch(stats, full_stats));
  }

  Expr RowVar() { return Expr::Var("t", table_->schema()); }
  Expr FieldOf(const char* f) {
    return Expr::Must(Expr::Field(RowVar(), f));
  }

  std::shared_ptr<Table> table_;
  ExecStats stats_;
};

TEST_F(ExecOpsTest, TableScanEmitsAllRows) {
  TableScanOp scan(table_);
  EXPECT_EQ(Run(&scan).size(), 4u);
  EXPECT_EQ(stats_.rows_emitted, 4u);
}

TEST_F(ExecOpsTest, FilterCountsPredicateEvals) {
  FilterOp filter(PhysicalOpPtr(new TableScanOp(table_)), "t",
                  Expr::Must(Expr::Binary(BinaryOp::kEq, FieldOf("k"),
                                          Expr::Literal(Value::Int(1)))));
  EXPECT_EQ(Run(&filter).size(), 2u);
  EXPECT_EQ(stats_.predicate_evals, 4u);
}

TEST_F(ExecOpsTest, MapDeduplicates) {
  // Projection onto k produces {1, 2, 3} — set semantics collapse the two
  // k=1 rows.
  MapOp map(PhysicalOpPtr(new TableScanOp(table_)), "t", FieldOf("k"));
  std::vector<Value> rows = Run(&map);
  EXPECT_TRUE(RowsEqual(rows, {Value::Int(1), Value::Int(2), Value::Int(3)}));
}

TEST_F(ExecOpsTest, NestGroupsByAttribute) {
  NestOp nest(PhysicalOpPtr(new TableScanOp(table_)), {"k"}, "t",
              FieldOf("v"), "vs", /*null_group_to_empty=*/false);
  std::vector<Value> rows = Run(&nest);
  EXPECT_TRUE(RowsEqual(
      rows, {Value::Tuple({"k", "vs"}, {Value::Int(1), IntSet({10, 20})}),
             Value::Tuple({"k", "vs"}, {Value::Int(2), IntSet({30})}),
             Value::Tuple({"k", "vs"}, {Value::Int(3), IntSet({10})})}));
}

TEST_F(ExecOpsTest, NestStarDropsNullPadding) {
  // Simulate outerjoin output: one group whose only element is NULL, one
  // whose only element is an all-NULL tuple, one real group.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto padded,
      Table::Create("P", Type::Tuple({{"k", Type::Int()},
                                      {"p", Type::Tuple({{"q", Type::Int()}})}})));
  TMDB_ASSERT_OK(padded->Insert(Value::Tuple(
      {"k", "p"}, {Value::Int(1),
                   Value::Tuple({"q"}, {Value::Null()})})));
  TMDB_ASSERT_OK(padded->Insert(Value::Tuple(
      {"k", "p"}, {Value::Int(2), Value::Tuple({"q"}, {Value::Int(7)})})));
  Expr row = Expr::Var("t", padded->schema());
  NestOp nest(PhysicalOpPtr(new TableScanOp(padded)), {"k"}, "t",
              Expr::Must(Expr::Field(row, "p")), "ps",
              /*null_group_to_empty=*/true);
  std::vector<Value> rows = Run(&nest);
  EXPECT_TRUE(RowsEqual(
      rows,
      {Value::Tuple({"k", "ps"}, {Value::Int(1), Value::EmptySet()}),
       Value::Tuple({"k", "ps"},
                    {Value::Int(2),
                     Value::Set({Value::Tuple({"q"}, {Value::Int(7)})})})}));
}

TEST_F(ExecOpsTest, UnnestFlattens) {
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto nested,
      Table::Create("N", Type::Tuple(
                             {{"k", Type::Int()},
                              {"s", Type::Set(Type::Tuple(
                                        {{"e", Type::Int()}}))}})));
  auto elem = [](int64_t e) { return Value::Tuple({"e"}, {Value::Int(e)}); };
  TMDB_ASSERT_OK(nested->Insert(Value::Tuple(
      {"k", "s"}, {Value::Int(1), Value::Set({elem(10), elem(11)})})));
  TMDB_ASSERT_OK(nested->Insert(
      Value::Tuple({"k", "s"}, {Value::Int(2), Value::EmptySet()})));
  UnnestOp unnest(PhysicalOpPtr(new TableScanOp(nested)), "s");
  std::vector<Value> rows = Run(&unnest);
  // k=2 vanishes: μ is not information-preserving.
  EXPECT_TRUE(RowsEqual(rows, {IntRow({"k", "e"}, {1, 10}),
                               IntRow({"k", "e"}, {1, 11})}));
  // k=1's two elements span two NextBatch calls.
  ExpectOneRowDrainMatchesRun(&unnest);
}

TEST_F(ExecOpsTest, UnionDeduplicatesAcrossInputs) {
  UnionOp u(PhysicalOpPtr(new TableScanOp(table_)),
            PhysicalOpPtr(new TableScanOp(table_)));
  EXPECT_EQ(Run(&u).size(), 4u);
  ExpectOneRowDrainMatchesRun(&u);
}

TEST_F(ExecOpsTest, DifferenceRemovesRightRows) {
  FilterOp* right = new FilterOp(
      PhysicalOpPtr(new TableScanOp(table_)), "t",
      Expr::Must(Expr::Binary(BinaryOp::kEq, FieldOf("k"),
                              Expr::Literal(Value::Int(1)))));
  DifferenceOp diff(PhysicalOpPtr(new TableScanOp(table_)),
                    PhysicalOpPtr(right));
  std::vector<Value> rows = Run(&diff);
  EXPECT_TRUE(RowsEqual(rows, {IntRow({"k", "v"}, {2, 30}),
                               IntRow({"k", "v"}, {3, 10})}));
  ExpectOneRowDrainMatchesRun(&diff);
}

TEST_F(ExecOpsTest, ExprSourceIteratesCorrelatedCollection) {
  ExprSourceOp source(Expr::Literal(IntSet({5, 6})));
  std::vector<Value> rows = Run(&source);
  EXPECT_TRUE(RowsEqual(rows, {Value::Int(5), Value::Int(6)}));

  // With a correlation environment.
  Environment env;
  env.Bind("o", Value::Tuple({"s"}, {IntSet({7})}));
  Expr o = Expr::Var("o", Type::Tuple({{"s", Type::Set(Type::Int())}}));
  ExprSourceOp correlated(Expr::Must(Expr::Field(o, "s")));
  ExecContext ctx;
  ctx.outer_env = &env;
  ctx.stats = &stats_;
  TMDB_ASSERT_OK_AND_ASSIGN(auto corr_rows, CollectRows(&correlated, &ctx));
  EXPECT_TRUE(RowsEqual(corr_rows, {Value::Int(7)}));
}

TEST_F(ExecOpsTest, StatsToStringMentionsAllCounters) {
  ExecStats stats;
  stats.rows_emitted = 1;
  EXPECT_NE(stats.ToString().find("rows_emitted=1"), std::string::npos);
  // Zero-valued counters are printed too, every one in table order.
  std::istringstream tokens(ExecStats().ToString());
  for (const StatCounter& counter : kStatCounters) {
    std::string token;
    ASSERT_TRUE(tokens >> token) << counter.name << " missing";
    EXPECT_EQ(token, StrCat(counter.name, "=0"));
  }
  std::string extra;
  EXPECT_FALSE(tokens >> extra) << extra;
}

TEST_F(ExecOpsTest, PhysicalPlanToString) {
  FilterOp filter(PhysicalOpPtr(new TableScanOp(table_)), "t", Expr::True());
  const std::string rendered = filter.ToString();
  EXPECT_NE(rendered.find("Filter"), std::string::npos);
  EXPECT_NE(rendered.find("TableScan(T)"), std::string::npos);
}

}  // namespace
}  // namespace tmdb
