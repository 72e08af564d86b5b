// Cross-checks every join implementation (nested-loop, hash with raw keys,
// one composite key or two, sort-merge) against each other in every
// mode (inner, semi, anti, left-outer, nest join), on the paper's Table 1
// instance and on random data, and drains each one at several batch sizes.

#include <gtest/gtest.h>

#include "base/random.h"
#include "catalog/table.h"
#include "exec/basic_ops.h"
#include "exec/columnar.h"
#include "exec/executor.h"
#include "exec/hash_join.h"
#include "exec/merge_join.h"
#include "exec/nested_loop_join.h"
#include "tests/test_util.h"

namespace tmdb {
namespace {

using testutil::IntRow;
using testutil::RowsEqual;
using testutil::StatsMatch;

enum class Impl { kNestedLoop, kHash, kHashFastKey, kHashTwoKey, kMerge };

std::string ImplName(Impl impl) {
  switch (impl) {
    case Impl::kNestedLoop:
      return "NestedLoop";
    case Impl::kHash:
      return "Hash";
    case Impl::kHashFastKey:
      return "HashFastKey";
    case Impl::kHashTwoKey:
      return "HashTwoKey";
    case Impl::kMerge:
      return "Merge";
  }
  return "?";
}

struct JoinCase {
  Impl impl;
  JoinMode mode;
};

std::string CaseName(const ::testing::TestParamInfo<JoinCase>& info) {
  return ImplName(info.param.impl) + JoinModeName(info.param.mode);
}

class JoinOpsTest : public ::testing::TestWithParam<JoinCase> {
 protected:
  void SetUp() override {
    // Paper Table 1: X(e, d) = {(1,1),(2,1),(3,3)}... transcribed:
    // X rows (e, d): (1,1), (2,1)?? — Table 1 shows X with rows keyed e,d
    // and Y(a, b); the nest equijoin is on the *second* attribute.
    TMDB_ASSERT_OK_AND_ASSIGN(
        x_, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                            {"d", Type::Int()}})));
    TMDB_ASSERT_OK(x_->InsertAll({IntRow({"e", "d"}, {1, 1}),
                                  IntRow({"e", "d"}, {2, 2}),
                                  IntRow({"e", "d"}, {3, 3})}));
    TMDB_ASSERT_OK_AND_ASSIGN(
        y_, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                            {"b", Type::Int()}})));
    TMDB_ASSERT_OK(y_->InsertAll({IntRow({"a", "b"}, {1, 1}),
                                  IntRow({"a", "b"}, {2, 1}),
                                  IntRow({"a", "b"}, {3, 3})}));
  }

  /// Builds the join physical op for the given implementation over table
  /// scans of x_/y_ with join predicate x.d = y.b (+ func y for nestjoin).
  PhysicalOpPtr MakeJoin(Impl impl, JoinMode mode,
                         std::shared_ptr<Table> left,
                         std::shared_ptr<Table> right) {
    Expr xv = Expr::Var("x", left->schema());
    Expr yv = Expr::Var("y", right->schema());
    Expr xd = Expr::Must(Expr::Field(xv, left->schema().fields()[1].name));
    Expr yb = Expr::Must(Expr::Field(yv, right->schema().fields()[1].name));

    JoinSpec spec;
    spec.mode = mode;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = right->schema();
    spec.func = yv;  // G = identity (paper's Table 1)
    spec.label = "s";

    PhysicalOpPtr l(new TableScanOp(left));
    PhysicalOpPtr r(new TableScanOp(right));
    switch (impl) {
      case Impl::kNestedLoop: {
        spec.pred = Expr::Must(Expr::Binary(BinaryOp::kEq, xd, yb));
        return PhysicalOpPtr(
            new NestedLoopJoinOp(std::move(l), std::move(r), std::move(spec)));
      }
      case Impl::kHash: {
        spec.pred = Expr::True();
        return PhysicalOpPtr(new HashJoinOp(std::move(l), std::move(r),
                                            std::move(spec), {xd}, {yb}));
      }
      case Impl::kHashFastKey: {
        spec.pred = Expr::True();
        std::optional<FastKeySpec> fast =
            ResolveFastKeys({xd}, {yb}, spec.left_var, spec.right_var);
        EXPECT_TRUE(fast.has_value());
        return PhysicalOpPtr(new HashJoinOp(std::move(l), std::move(r),
                                            std::move(spec), {xd}, {yb},
                                            std::move(fast)));
      }
      case Impl::kHashTwoKey: {
        // A composite key of two components: (x.d, x.d) = (y.b, y.b) holds
        // exactly when x.d = y.b.
        spec.pred = Expr::True();
        return PhysicalOpPtr(new HashJoinOp(std::move(l), std::move(r),
                                            std::move(spec), {xd, xd},
                                            {yb, yb}));
      }
      case Impl::kMerge: {
        spec.pred = Expr::True();
        return PhysicalOpPtr(new MergeJoinOp(std::move(l), std::move(r),
                                             std::move(spec), {xd}, {yb}));
      }
    }
    return nullptr;
  }

  std::vector<Value> Run(PhysicalOp* op) {
    Executor executor;
    auto rows = executor.RunPhysical(op);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? std::move(rows).value() : std::vector<Value>();
  }

  struct Drained {
    std::vector<Value> rows;
    ExecStats stats;
  };

  /// Opens `op` directly and drains it with NextBatch at `max` rows per
  /// call, checking each call honours `max`.
  Drained DrainAt(PhysicalOp* op, size_t max) {
    Drained d;
    ExecContext ctx;
    ctx.stats = &d.stats;
    TMDB_EXPECT_OK(op->Open(&ctx));
    while (true) {
      const size_t before = d.rows.size();
      Result<size_t> got = op->NextBatch(&d.rows, max);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (!got.ok() || *got == 0) break;
      EXPECT_LE(*got, max);
      EXPECT_EQ(d.rows.size() - before, *got);
    }
    op->Close();
    return d;
  }

  std::shared_ptr<Table> x_;
  std::shared_ptr<Table> y_;
};

TEST_P(JoinOpsTest, MatchesNestedLoopReference) {
  const JoinCase param = GetParam();
  PhysicalOpPtr reference =
      MakeJoin(Impl::kNestedLoop, param.mode, x_, y_);
  PhysicalOpPtr tested = MakeJoin(param.impl, param.mode, x_, y_);
  EXPECT_TRUE(RowsEqual(Run(tested.get()), Run(reference.get())));
}

TEST_P(JoinOpsTest, MatchesNestedLoopReferenceOnRandomData) {
  const JoinCase param = GetParam();
  Random rng(7);
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto big_x, Table::Create("BX", Type::Tuple({{"e", Type::Int()},
                                                   {"d", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto big_y, Table::Create("BY", Type::Tuple({{"a", Type::Int()},
                                                   {"b", Type::Int()}})));
  for (int i = 0; i < 200; ++i) {
    TMDB_ASSERT_OK(big_x->Insert(
        IntRow({"e", "d"}, {i, rng.UniformInt(0, 30)})));
  }
  for (int i = 0; i < 300; ++i) {
    TMDB_ASSERT_OK(big_y->Insert(
        IntRow({"a", "b"}, {i, rng.UniformInt(0, 30)})));
  }
  PhysicalOpPtr reference =
      MakeJoin(Impl::kNestedLoop, param.mode, big_x, big_y);
  PhysicalOpPtr tested = MakeJoin(param.impl, param.mode, big_x, big_y);
  EXPECT_TRUE(RowsEqual(Run(tested.get()), Run(reference.get())));
}

TEST_P(JoinOpsTest, EmptyRightInput) {
  const JoinCase param = GetParam();
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto empty_y, Table::Create("EY", Type::Tuple({{"a", Type::Int()},
                                                     {"b", Type::Int()}})));
  PhysicalOpPtr reference =
      MakeJoin(Impl::kNestedLoop, param.mode, x_, empty_y);
  PhysicalOpPtr tested = MakeJoin(param.impl, param.mode, x_, empty_y);
  std::vector<Value> expected = Run(reference.get());
  EXPECT_TRUE(RowsEqual(Run(tested.get()), expected));
  // Sanity on semantics over ∅: anti keeps all, semi/inner keep none,
  // outer pads all, nest join emits every x with s = ∅.
  switch (param.mode) {
    case JoinMode::kAnti:
    case JoinMode::kLeftOuter:
    case JoinMode::kNestJoin:
      EXPECT_EQ(expected.size(), x_->NumRows());
      break;
    case JoinMode::kInner:
    case JoinMode::kSemi:
      EXPECT_TRUE(expected.empty());
      break;
  }
}

TEST_P(JoinOpsTest, EmptyLeftInput) {
  const JoinCase param = GetParam();
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto empty_x, Table::Create("EX", Type::Tuple({{"e", Type::Int()},
                                                     {"d", Type::Int()}})));
  PhysicalOpPtr tested = MakeJoin(param.impl, param.mode, empty_x, y_);
  EXPECT_TRUE(Run(tested.get()).empty());
}

TEST_P(JoinOpsTest, ReopenResetsState) {
  const JoinCase param = GetParam();
  PhysicalOpPtr op = MakeJoin(param.impl, param.mode, x_, y_);
  std::vector<Value> first = Run(op.get());
  std::vector<Value> second = Run(op.get());
  EXPECT_TRUE(RowsEqual(std::move(second), std::move(first)));
}

TEST_P(JoinOpsTest, PartialDrainsMatchFullBatchDrain) {
  // Key 0 is hot: each of its left rows matches more right rows than one
  // batch holds, so its inner and left-outer output spans several
  // NextBatch calls even at max = kExecBatchSize. Keys >= 100 dangle on
  // the left (outer padding, anti output, ∅ groups); key 50 only on the
  // right.
  const JoinCase param = GetParam();
  Random rng(11);
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto hot_x, Table::Create("HX", Type::Tuple({{"e", Type::Int()},
                                                   {"d", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto hot_y, Table::Create("HY", Type::Tuple({{"a", Type::Int()},
                                                   {"b", Type::Int()}})));
  for (int i = 0; i < 40; ++i) {
    const int64_t d = i % 10 == 0 ? 0 : i < 32 ? rng.UniformInt(1, 7) : 100 + i;
    TMDB_ASSERT_OK(hot_x->Insert(IntRow({"e", "d"}, {i, d})));
  }
  const int hot = static_cast<int>(kExecBatchSize) + 300;
  for (int i = 0; i < hot + 60; ++i) {
    const int64_t b = i < hot ? 0 : i % 6 == 0 ? 50 : rng.UniformInt(1, 7);
    TMDB_ASSERT_OK(hot_y->Insert(IntRow({"a", "b"}, {i, b})));
  }

  PhysicalOpPtr op = MakeJoin(param.impl, param.mode, hot_x, hot_y);
  const Drained full = DrainAt(op.get(), kExecBatchSize);
  if (param.mode == JoinMode::kInner || param.mode == JoinMode::kLeftOuter) {
    EXPECT_GT(full.rows.size(), 4 * kExecBatchSize);
  }
  PhysicalOpPtr reference =
      MakeJoin(Impl::kNestedLoop, param.mode, hot_x, hot_y);
  EXPECT_TRUE(RowsEqual(full.rows, Run(reference.get())));

  for (size_t max : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("max=" + std::to_string(max));
    const Drained part = DrainAt(op.get(), max);
    ASSERT_EQ(part.rows.size(), full.rows.size());
    for (size_t i = 0; i < part.rows.size(); ++i) {
      ASSERT_TRUE(part.rows[i].Equals(full.rows[i])) << "row " << i;
    }
    EXPECT_TRUE(StatsMatch(part.stats, full.stats));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllImplsAllModes, JoinOpsTest,
    ::testing::Values(
        JoinCase{Impl::kNestedLoop, JoinMode::kInner},
        JoinCase{Impl::kNestedLoop, JoinMode::kSemi},
        JoinCase{Impl::kNestedLoop, JoinMode::kAnti},
        JoinCase{Impl::kNestedLoop, JoinMode::kLeftOuter},
        JoinCase{Impl::kNestedLoop, JoinMode::kNestJoin},
        JoinCase{Impl::kHash, JoinMode::kInner},
        JoinCase{Impl::kHash, JoinMode::kSemi},
        JoinCase{Impl::kHash, JoinMode::kAnti},
        JoinCase{Impl::kHash, JoinMode::kLeftOuter},
        JoinCase{Impl::kHash, JoinMode::kNestJoin},
        JoinCase{Impl::kHashFastKey, JoinMode::kInner},
        JoinCase{Impl::kHashFastKey, JoinMode::kSemi},
        JoinCase{Impl::kHashFastKey, JoinMode::kAnti},
        JoinCase{Impl::kHashFastKey, JoinMode::kLeftOuter},
        JoinCase{Impl::kHashFastKey, JoinMode::kNestJoin},
        JoinCase{Impl::kHashTwoKey, JoinMode::kInner},
        JoinCase{Impl::kHashTwoKey, JoinMode::kSemi},
        JoinCase{Impl::kHashTwoKey, JoinMode::kAnti},
        JoinCase{Impl::kHashTwoKey, JoinMode::kLeftOuter},
        JoinCase{Impl::kHashTwoKey, JoinMode::kNestJoin},
        JoinCase{Impl::kMerge, JoinMode::kInner},
        JoinCase{Impl::kMerge, JoinMode::kSemi},
        JoinCase{Impl::kMerge, JoinMode::kAnti},
        JoinCase{Impl::kMerge, JoinMode::kLeftOuter},
        JoinCase{Impl::kMerge, JoinMode::kNestJoin}),
    CaseName);

// ------------------------------------------------ Table 1, pinned exactly

TEST(Table1Test, NestEquijoinOfPaperInstance) {
  // Table 1 of the paper: X and Y flat relations, nest equijoin on the
  // second attribute with the identity function. The dangling X tuple gets
  // the empty set.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto x, Table::Create("X", Type::Tuple({{"e", Type::Int()},
                                              {"d", Type::Int()}})));
  TMDB_ASSERT_OK(x->InsertAll({IntRow({"e", "d"}, {1, 1}),
                               IntRow({"e", "d"}, {2, 2}),
                               IntRow({"e", "d"}, {3, 3})}));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto y, Table::Create("Y", Type::Tuple({{"a", Type::Int()},
                                              {"b", Type::Int()}})));
  TMDB_ASSERT_OK(y->InsertAll({IntRow({"a", "b"}, {1, 1}),
                               IntRow({"a", "b"}, {2, 1}),
                               IntRow({"a", "b"}, {3, 3})}));

  JoinSpec spec;
  spec.mode = JoinMode::kNestJoin;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = y->schema();
  Expr xv = Expr::Var("x", x->schema());
  Expr yv = Expr::Var("y", y->schema());
  spec.pred = Expr::Must(Expr::Binary(
      BinaryOp::kEq, Expr::Must(Expr::Field(xv, "d")),
      Expr::Must(Expr::Field(yv, "b"))));
  spec.func = yv;
  spec.label = "s";
  NestedLoopJoinOp join(PhysicalOpPtr(new TableScanOp(x)),
                        PhysicalOpPtr(new TableScanOp(y)), std::move(spec));
  Executor executor;
  TMDB_ASSERT_OK_AND_ASSIGN(auto rows, executor.RunPhysical(&join));

  auto y_row = [](int64_t a, int64_t b) { return IntRow({"a", "b"}, {a, b}); };
  std::vector<Value> expected = {
      Value::Tuple({"e", "d", "s"},
                   {Value::Int(1), Value::Int(1),
                    Value::Set({y_row(1, 1), y_row(2, 1)})}),
      Value::Tuple({"e", "d", "s"},
                   {Value::Int(2), Value::Int(2), Value::EmptySet()}),
      Value::Tuple({"e", "d", "s"},
                   {Value::Int(3), Value::Int(3),
                    Value::Set({y_row(3, 3)})}),
  };
  EXPECT_TRUE(RowsEqual(rows, expected));
}

}  // namespace
}  // namespace tmdb
