// Columnar execution must be invisible except in speed: for every query,
// RunOptions::enable_columnar on vs off produces BIT-IDENTICAL rows (order
// included) and identical ExecStats (guard_checkpoints excepted — the two
// paths checkpoint on different schedules), serial and parallel, spill on
// and off. Also unit-tests the pieces: ColumnStore kind-exactness and
// dictionary rep-sharing, ColumnPredicate compilation and semantics,
// ResolveFastKeys, arena charging through the guard, the Charge()
// granularity contract, and fault-injection sweeps over the new
// checkpoints.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "catalog/table.h"
#include "core/database.h"
#include "exec/arena.h"
#include "exec/basic_ops.h"
#include "exec/columnar.h"
#include "exec/executor.h"
#include "exec/hash_join.h"
#include "exec/query_guard.h"
#include "optimizer/planner.h"
#include "tests/test_util.h"
#include "values/column_store.h"
#include "workload/generators.h"

namespace tmdb {
namespace {

using testutil::BitIdentical;
using testutil::IntRow;
using testutil::StatsMatch;

/// The fuzz corpus: every nested-query shape the suite seeds from, over the
/// Section 2 R(a,b,c) / S(c,d) schema.
const char* kSeedQueries[] = {
    "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
    "WHERE x.c = y.c)",
    "SELECT (a = x.a, zs = SELECT y.d FROM S y WHERE x.c = y.c) FROM R x",
    "SELECT x.a FROM R x WHERE x.a IN (SELECT y.d FROM S y) AND x.b > 0 "
    "OR NOT EXISTS v IN {1, 2} (v = x.a)",
    "UNNEST(SELECT (SELECT (a = x.a, d = y.d) FROM S y WHERE x.c = y.c) "
    "FROM R x)",
    "SELECT x FROM R x WHERE count(z) = 0 WITH z = (SELECT y FROM S y "
    "WHERE x.c = y.c)",
};

/// Runs `query` with columnar off (reference) and on, asserting identical
/// rows and stats. No memory budget here: budgets can make spill decisions
/// diverge between paths (different transient footprints), which is
/// covered separately with rows-only equality.
void ExpectColumnarParity(Database* db, const std::string& query,
                          RunOptions options) {
  options.enable_columnar = false;
  auto row_result = db->Run(query, options);
  options.enable_columnar = true;
  auto col_result = db->Run(query, options);
  ASSERT_EQ(row_result.ok(), col_result.ok())
      << "one path failed: row="
      << (row_result.ok() ? "ok" : row_result.status().ToString())
      << " col=" << (col_result.ok() ? "ok" : col_result.status().ToString());
  if (!row_result.ok()) {
    EXPECT_EQ(row_result.status().code(), col_result.status().code());
    return;
  }
  EXPECT_TRUE(BitIdentical(col_result->rows, row_result->rows));
  EXPECT_TRUE(StatsMatch(col_result->stats, row_result->stats));
}

// ------------------------------------------------ end-to-end query parity

class ColumnarQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CountBugConfig rs;
    rs.num_r = 120;
    rs.num_s = 240;
    TMDB_ASSERT_OK(LoadCountBugTables(&db_, rs));
  }

  Database db_;
};

TEST_F(ColumnarQueryTest, CorpusParityAcrossThreadsAndStrategies) {
  for (const char* query : kSeedQueries) {
    for (Strategy strategy : {Strategy::kNestJoin, Strategy::kOuterJoin}) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(std::string(query) + " / threads=" +
                     std::to_string(threads));
        RunOptions options;
        options.strategy = strategy;
        options.num_threads = threads;
        ExpectColumnarParity(&db_, query, options);
      }
    }
  }
}

TEST_F(ColumnarQueryTest, CountBugShapeAllStrategies) {
  // The COUNT-bug query itself: Kim's strategy is deliberately wrong, but
  // it must be *identically* wrong with columnar on.
  const std::string query = kSeedQueries[0];
  for (Strategy strategy : {Strategy::kNaive, Strategy::kKim,
                            Strategy::kOuterJoin, Strategy::kNestJoin}) {
    SCOPED_TRACE(StrategyName(strategy));
    RunOptions options;
    options.strategy = strategy;
    ExpectColumnarParity(&db_, query, options);
  }
}

TEST_F(ColumnarQueryTest, SubsetBugShape) {
  Database db;
  SubsetBugConfig config;
  config.num_x = 80;
  config.num_y = 160;
  TMDB_ASSERT_OK(LoadSubsetBugTables(&db, config));
  // X.a is set-valued, so X never columnarises — the fallback must be
  // transparent while Y (flat) still takes the fast paths.
  const std::string query =
      "SELECT x FROM X x WHERE FORALL y IN "
      "(SELECT y FROM Y y WHERE x.b = y.b) (EXISTS v IN x.a (v = y.a))";
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunOptions options;
    options.num_threads = threads;
    ExpectColumnarParity(&db_, kSeedQueries[1], options);
    ExpectColumnarParity(&db, query, options);
  }
}

TEST_F(ColumnarQueryTest, SpillParityRowsOnly) {
  // Under a budget the two paths may spill at different points (their
  // transient footprints differ), so only the rows are compared — each
  // against its own unbudgeted run, which the spill tests already prove
  // bit-identical.
  for (const char* query : {kSeedQueries[0], kSeedQueries[1]}) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::string(query) + " / threads=" +
                   std::to_string(threads));
      RunOptions reference;
      reference.num_threads = threads;
      reference.enable_columnar = true;
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult expected,
                                db_.Run(query, reference));

      RunOptions budgeted = reference;
      budgeted.memory_budget_bytes = 96 << 10;
      budgeted.enable_spill = true;
      auto spilled = db_.Run(query, budgeted);
      budgeted.enable_columnar = false;
      auto row_spilled = db_.Run(query, budgeted);
      // enable_columnar must not change the budgeted outcome: both paths
      // succeed (with rows identical to the unbudgeted run) or both trip
      // with the same code — with spill on, the fast paths stand down (the
      // columnar filter under any budget, raw join keys where the build
      // can spill).
      ASSERT_EQ(spilled.ok(), row_spilled.ok())
          << "columnar="
          << (spilled.ok() ? "ok" : spilled.status().ToString())
          << " row="
          << (row_spilled.ok() ? "ok" : row_spilled.status().ToString());
      if (spilled.ok()) {
        EXPECT_TRUE(BitIdentical(spilled->rows, expected.rows));
        EXPECT_TRUE(BitIdentical(row_spilled->rows, expected.rows));
      } else {
        EXPECT_EQ(spilled.status().code(), row_spilled.status().code());
      }
    }
  }
}

TEST_F(ColumnarQueryTest, MemoryBudgetStillTripsWithColumnarEnabled) {
  // With enable_columnar set, a budget far below the working set must trip
  // exactly as before — the columnar machinery neither hides allocations
  // from the guard (ArenaTest proves arena charges land) nor bypasses the
  // budget (the columnar filter stands down under one; raw join keys run
  // under it, charged to the guard, since this run cannot spill).
  RunOptions options;
  options.enable_columnar = true;
  options.memory_budget_bytes = 2 << 10;  // 2 KiB: below one arena block
  auto result = db_.Run(kSeedQueries[0], options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  // The database stays usable afterwards.
  options.memory_budget_bytes = 0;
  TMDB_ASSERT_OK(db_.Run(kSeedQueries[0], options).status());
}

// -------------------------------------------------- fault-injection sweep

TEST_F(ColumnarQueryTest, FaultSweepOverColumnarCheckpoints) {
  // Every guard checkpoint the columnar plan passes — arena binding,
  // column-batch boundaries, fast-build loops included — must unwind to a
  // clean error and leave the database reusable with identical results.
  FaultInjector injector;
  RunOptions options;
  options.enable_columnar = true;
  options.fault_injector = &injector;

  injector.ArmNth(0);  // count-only
  TMDB_ASSERT_OK_AND_ASSIGN(QueryResult baseline,
                            db_.Run(kSeedQueries[0], options));
  const uint64_t total = injector.checkpoints_seen();
  ASSERT_GT(total, 0u);

  const uint64_t stride = std::max<uint64_t>(1, total / 16);
  for (uint64_t n = 1; n <= total; n += stride) {
    injector.ArmNth(n);
    auto poisoned = db_.Run(kSeedQueries[0], options);
    ASSERT_FALSE(poisoned.ok()) << "checkpoint " << n << " did not fire";
    EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal)
        << poisoned.status().ToString();

    injector.Disarm();
    TMDB_ASSERT_OK_AND_ASSIGN(QueryResult recovered,
                              db_.Run(kSeedQueries[0], options));
    ASSERT_TRUE(BitIdentical(recovered.rows, baseline.rows))
        << "state leaked across fault at checkpoint " << n;
  }
}

// ------------------------------------------------------------ ColumnStore

TEST(ColumnStoreTest, BuildsFlatBasicTables) {
  Type schema = Type::Tuple({{"i", Type::Int()},
                             {"r", Type::Real()},
                             {"b", Type::Bool()},
                             {"s", Type::String()}});
  std::vector<Value> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(Value::Tuple(
        {"i", "r", "b", "s"},
        {Value::Int(i), Value::Real(i * 0.5), Value::Bool(i % 2 == 0),
         Value::String(i % 3 == 0 ? "fizz" : "buzz")}));
  }
  auto store = ColumnStore::Build(schema, rows);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_rows(), 10u);
  EXPECT_EQ(store->num_columns(), 4u);
  EXPECT_EQ(store->column(store->ColumnIndex("i")).i64[3], 3);
  EXPECT_EQ(store->column(store->ColumnIndex("r")).f64[4], 2.0);
  EXPECT_EQ(store->column(store->ColumnIndex("b")).b8[2], 1);
  // Two distinct strings → a two-entry dictionary.
  const Column& s = store->column(store->ColumnIndex("s"));
  ASSERT_NE(s.dict, nullptr);
  EXPECT_EQ(s.dict->size(), 2u);
  for (uint32_t id = 0; id < 10; ++id) {
    EXPECT_TRUE(store->RowValue(id).Equals(rows[id]));
  }
}

TEST(ColumnStoreTest, RefusesNonColumnarShapes) {
  // Set-valued attribute: not columnar.
  Type nested = Type::Tuple({{"a", Type::Set(Type::Int())}});
  std::vector<Value> rows = {
      Value::Tuple({"a"}, {Value::Set({Value::Int(1)})})};
  EXPECT_EQ(ColumnStore::Build(nested, rows), nullptr);

  // NULL in a fixed-width column: not columnar (row NULL semantics win).
  Type flat = Type::Tuple({{"i", Type::Int()}});
  rows = {Value::Tuple({"i"}, {Value::Null()})};
  EXPECT_EQ(ColumnStore::Build(flat, rows), nullptr);

  // Int value in a REAL attribute (ConformsTo admits it; the row path
  // compares Int/Int exactly where doubles round): kind-exactness refuses.
  Type real = Type::Tuple({{"r", Type::Real()}});
  rows = {Value::Tuple({"r"}, {Value::Int(7)})};
  EXPECT_EQ(ColumnStore::Build(real, rows), nullptr);
}

TEST(ColumnStoreTest, DictionaryAndRowsShareValueReps) {
  // The column → row round trip must hand back the ORIGINAL reps: RowValue
  // shares the inserted row's handle, and each dictionary code holds the
  // first-occurrence string handle. Identity is observable through the
  // address of the interned std::string payload.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto table,
      Table::Create("T", Type::Tuple({{"k", Type::Int()},
                                      {"s", Type::String()}})));
  for (int i = 0; i < 6; ++i) {
    TMDB_ASSERT_OK(table->Insert(
        Value::Tuple({"k", "s"}, {Value::Int(i),
                                  Value::String(i % 2 == 0 ? "even" : "odd")})));
  }
  auto store = table->columnar_store();
  ASSERT_NE(store, nullptr);
  const Column& s = store->column(store->ColumnIndex("s"));
  ASSERT_NE(s.dict, nullptr);
  EXPECT_EQ(s.dict->size(), 2u);
  for (uint32_t id = 0; id < 6; ++id) {
    const Value& original = table->rows()[id];
    // Row handles share reps with the table's rows.
    EXPECT_EQ(&store->RowValue(id).FindField("s")->AsString(),
              &original.FindField("s")->AsString());
    // The dictionary entry for this row's code is the first row that
    // carried the string — later equal strings re-use its rep.
    const Value& interned = s.dict->value(s.codes[id]);
    const Value& first = table->rows()[id % 2 == 0 ? 0 : 1];
    EXPECT_EQ(&interned.AsString(), &first.FindField("s")->AsString());
  }
  // The cache is stable across calls and invalidated by growth.
  EXPECT_EQ(table->columnar_store().get(), store.get());
  TMDB_ASSERT_OK(table->Insert(
      Value::Tuple({"k", "s"}, {Value::Int(100), Value::String("even")})));
  auto rebuilt = table->columnar_store();
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), store.get());
  EXPECT_EQ(rebuilt->num_rows(), 7u);
}

// -------------------------------------------------- physical-level filter

class ColumnarFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TMDB_ASSERT_OK_AND_ASSIGN(
        table_,
        Table::Create("T", Type::Tuple({{"i", Type::Int()},
                                        {"r", Type::Real()},
                                        {"b", Type::Bool()},
                                        {"s", Type::String()}})));
    for (int i = 0; i < 3000; ++i) {
      TMDB_ASSERT_OK(table_->Insert(Value::Tuple(
          {"i", "r", "b", "s"},
          {Value::Int(i), Value::Real(i * 0.25), Value::Bool(i % 2 == 0),
           Value::String(i % 5 == 0 ? "lo" : "hi")})));
    }
  }

  /// σ_pred over a scan, columnar or row, and the run's stats.
  Result<std::vector<Value>> RunFilter(const Expr& pred, bool columnar,
                                       ExecStats* stats) {
    std::optional<ColumnPredicate> cpred;
    if (columnar) {
      cpred = ColumnPredicate::Compile(pred, "x", table_->schema());
      EXPECT_TRUE(cpred.has_value()) << pred.ToString();
    }
    FilterOp filter(PhysicalOpPtr(new TableScanOp(table_, columnar)), "x",
                    pred, std::move(cpred));
    Executor executor(1);
    auto rows = executor.RunPhysical(&filter);
    *stats = executor.stats();
    return rows;
  }

  void ExpectFilterParity(const Expr& pred) {
    ExecStats row_stats, col_stats;
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> expected,
                              RunFilter(pred, false, &row_stats));
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> actual,
                              RunFilter(pred, true, &col_stats));
    EXPECT_TRUE(BitIdentical(actual, expected));
    EXPECT_TRUE(StatsMatch(col_stats, row_stats));
  }

  Expr Var() const { return Expr::Var("x", table_->schema()); }

  std::shared_ptr<Table> table_;
};

TEST_F(ColumnarFilterTest, PredicateShapesMatchRowSemantics) {
  Expr x = Var();
  auto field = [&](const char* name) { return Expr::Must(Expr::Field(x, name)); };
  std::vector<Expr> predicates = {
      // Int comparisons, all six operators.
      Expr::Must(Expr::Binary(BinaryOp::kLt, field("i"),
                              Expr::Literal(Value::Int(500)))),
      Expr::Must(Expr::Binary(BinaryOp::kEq, field("i"),
                              Expr::Literal(Value::Int(1234)))),
      Expr::Must(Expr::Binary(BinaryOp::kGe, field("i"),
                              Expr::Literal(Value::Int(2990)))),
      // Mixed Int/Real comparison promotes through double, like the rows.
      Expr::Must(Expr::Binary(BinaryOp::kGt, field("r"), field("i"))),
      // Arithmetic with wrapping Int semantics.
      Expr::Must(Expr::Binary(
          BinaryOp::kEq,
          Expr::Must(Expr::Binary(BinaryOp::kMul, field("i"),
                                  Expr::Literal(Value::Int(3)))),
          Expr::Literal(Value::Int(90)))),
      // Bool column and logical connectives.
      Expr::And(field("b"),
                Expr::Must(Expr::Binary(BinaryOp::kLe, field("i"),
                                        Expr::Literal(Value::Int(100))))),
      Expr::Must(Expr::Binary(
          BinaryOp::kOr, Expr::Not(field("b")),
          Expr::Must(Expr::Binary(BinaryOp::kEq, field("s"),
                                  Expr::Literal(Value::String("lo")))))),
      // String equality and ordering.
      Expr::Must(Expr::Binary(BinaryOp::kNe, field("s"),
                              Expr::Literal(Value::String("hi")))),
      Expr::Must(Expr::Binary(BinaryOp::kLt, field("s"),
                              Expr::Literal(Value::String("lz")))),
      // Constant-foldable and empty/full selections.
      Expr::True(),
      Expr::False(),
      Expr::Must(Expr::Binary(BinaryOp::kLt, field("i"),
                              Expr::Literal(Value::Int(-1)))),
  };
  for (const Expr& pred : predicates) {
    SCOPED_TRACE(pred.ToString());
    ExpectFilterParity(pred);
  }
}

TEST_F(ColumnarFilterTest, SelectionOverSelectionStaysColumnar) {
  // The second filter consumes id-vector (non-dense) batches of the first.
  Expr x = Var();
  Expr inner_pred = Expr::Must(Expr::Binary(
      BinaryOp::kLt, Expr::Must(Expr::Field(x, "i")),
      Expr::Literal(Value::Int(2000))));
  Expr outer_pred = Expr::Must(Expr::Binary(
      BinaryOp::kEq, Expr::Must(Expr::Field(x, "s")),
      Expr::Literal(Value::String("lo"))));

  auto build = [&](bool columnar) {
    std::optional<ColumnPredicate> inner_c, outer_c;
    if (columnar) {
      inner_c = ColumnPredicate::Compile(inner_pred, "x", table_->schema());
      outer_c = ColumnPredicate::Compile(outer_pred, "x", table_->schema());
      EXPECT_TRUE(inner_c.has_value());
      EXPECT_TRUE(outer_c.has_value());
    }
    PhysicalOpPtr inner(new FilterOp(
        PhysicalOpPtr(new TableScanOp(table_, columnar)), "x", inner_pred,
        std::move(inner_c)));
    return PhysicalOpPtr(new FilterOp(std::move(inner), "x", outer_pred,
                                      std::move(outer_c)));
  };

  PhysicalOpPtr row_plan = build(false);
  PhysicalOpPtr col_plan = build(true);
  Executor reference(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> expected,
                            reference.RunPhysical(row_plan.get()));
  Executor executor(1);
  TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> actual,
                            executor.RunPhysical(col_plan.get()));
  EXPECT_TRUE(BitIdentical(actual, expected));
  EXPECT_TRUE(StatsMatch(executor.stats(), reference.stats()));
}

TEST_F(ColumnarFilterTest, CompileRefusesWhatItCannotMirror) {
  Expr x = Var();
  Expr other = Expr::Var("y", table_->schema());
  // Foreign variable.
  EXPECT_FALSE(ColumnPredicate::Compile(
                   Expr::Must(Expr::Binary(
                       BinaryOp::kLt, Expr::Must(Expr::Field(other, "i")),
                       Expr::Literal(Value::Int(5)))),
                   "x", table_->schema())
                   .has_value());
  // Division (runtime error on zero cannot be reproduced columnar-ly).
  EXPECT_FALSE(ColumnPredicate::Compile(
                   Expr::Must(Expr::Binary(
                       BinaryOp::kEq,
                       Expr::Must(Expr::Binary(
                           BinaryOp::kDiv, Expr::Must(Expr::Field(x, "i")),
                           Expr::Literal(Value::Int(2)))),
                       Expr::Literal(Value::Int(3)))),
                   "x", table_->schema())
                   .has_value());
  // Unknown field.
  EXPECT_FALSE(Expr::Field(x, "nope").ok());
}

// ------------------------------------------------------- fast joins

class ColumnarJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TMDB_ASSERT_OK_AND_ASSIGN(
        left_, Table::Create("L", Type::Tuple({{"k", Type::Int()},
                                               {"v", Type::Int()}})));
    TMDB_ASSERT_OK_AND_ASSIGN(
        right_, Table::Create("R", Type::Tuple({{"j", Type::Int()},
                                                {"w", Type::Int()}})));
    for (int i = 0; i < 400; ++i) {
      TMDB_ASSERT_OK(left_->Insert(IntRow({"k", "v"}, {i % 60, i})));
      TMDB_ASSERT_OK(right_->Insert(IntRow({"j", "w"}, {i % 90, i})));
    }
  }

  PhysicalOpPtr MakeJoin(JoinMode mode, bool fast) const {
    Expr xv = Expr::Var("x", left_->schema());
    Expr yv = Expr::Var("y", right_->schema());
    JoinSpec spec;
    spec.mode = mode;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = right_->schema();
    spec.pred = Expr::True();
    spec.func = yv;  // identity G: nest the whole right row
    spec.label = "g";
    std::vector<Expr> lk = {Expr::Must(Expr::Field(xv, "k"))};
    std::vector<Expr> rk = {Expr::Must(Expr::Field(yv, "j"))};
    std::optional<FastKeySpec> fk;
    if (fast) {
      fk = ResolveFastKeys(lk, rk, "x", "y");
      EXPECT_TRUE(fk.has_value());
    }
    return PhysicalOpPtr(new HashJoinOp(
        PhysicalOpPtr(new TableScanOp(left_)),
        PhysicalOpPtr(new TableScanOp(right_)), std::move(spec),
        std::move(lk), std::move(rk), std::move(fk)));
  }

  std::shared_ptr<Table> left_;
  std::shared_ptr<Table> right_;
};

TEST_F(ColumnarJoinTest, AllModesFastPathParity) {
  for (JoinMode mode : {JoinMode::kInner, JoinMode::kSemi, JoinMode::kAnti,
                        JoinMode::kLeftOuter, JoinMode::kNestJoin}) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(JoinModeName(mode) + "/threads=" + std::to_string(threads));
      PhysicalOpPtr row_plan = MakeJoin(mode, false);
      PhysicalOpPtr fast_plan = MakeJoin(mode, true);
      Executor reference(threads);
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> expected,
                                reference.RunPhysical(row_plan.get()));
      Executor executor(threads);
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> actual,
                                executor.RunPhysical(fast_plan.get()));
      EXPECT_TRUE(BitIdentical(actual, expected));
      EXPECT_TRUE(StatsMatch(executor.stats(), reference.stats()));
    }
  }
}

TEST_F(ColumnarJoinTest, StringAndRealKeysAndCrossKindProbes) {
  // S(k: STRING) ⋈ and a REAL build side probed by INT keys — the Int/Real
  // cross-kind match must work through the double image, like Value::Hash.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto sl, Table::Create("SL", Type::Tuple({{"k", Type::String()},
                                                {"v", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto sr, Table::Create("SR", Type::Tuple({{"j", Type::String()},
                                                {"w", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto il, Table::Create("IL", Type::Tuple({{"k", Type::Int()},
                                                {"v", Type::Int()}})));
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto rr, Table::Create("RR", Type::Tuple({{"j", Type::Real()},
                                                {"w", Type::Int()}})));
  for (int i = 0; i < 200; ++i) {
    TMDB_ASSERT_OK(sl->Insert(Value::Tuple(
        {"k", "v"},
        {Value::String("k" + std::to_string(i % 40)), Value::Int(i)})));
    TMDB_ASSERT_OK(sr->Insert(Value::Tuple(
        {"j", "w"},
        {Value::String("k" + std::to_string(i % 25)), Value::Int(i)})));
    TMDB_ASSERT_OK(il->Insert(IntRow({"k", "v"}, {i % 50, i})));
    TMDB_ASSERT_OK(rr->Insert(Value::Tuple(
        {"j", "w"}, {Value::Real(static_cast<double>(i % 30)),
                     Value::Int(i)})));
  }

  auto run_pair = [&](std::shared_ptr<Table> l, std::shared_ptr<Table> r) {
    Expr xv = Expr::Var("x", l->schema());
    Expr yv = Expr::Var("y", r->schema());
    std::vector<Expr> lk = {Expr::Must(Expr::Field(xv, "k"))};
    std::vector<Expr> rk = {Expr::Must(Expr::Field(yv, "j"))};
    std::optional<FastKeySpec> fk = ResolveFastKeys(lk, rk, "x", "y");
    EXPECT_TRUE(fk.has_value());
    JoinSpec spec;
    spec.mode = JoinMode::kInner;
    spec.left_var = "x";
    spec.right_var = "y";
    spec.right_type = r->schema();
    spec.pred = Expr::True();
    std::vector<Value> baseline_rows;
    ExecStats baseline_stats;
    for (bool fast : {false, true}) {
      JoinSpec s2 = spec;
      HashJoinOp join(PhysicalOpPtr(new TableScanOp(l)),
                      PhysicalOpPtr(new TableScanOp(r)), std::move(s2), lk,
                      rk, fast ? fk : std::nullopt);
      Executor executor(1);
      TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> rows,
                                executor.RunPhysical(&join));
      if (!fast) {
        baseline_rows = std::move(rows);
        baseline_stats = executor.stats();
      } else {
        EXPECT_TRUE(BitIdentical(rows, baseline_rows));
        EXPECT_TRUE(StatsMatch(executor.stats(), baseline_stats));
      }
    }
  };
  run_pair(sl, sr);  // string keys
  run_pair(il, rr);  // Int probe keys against a Real build side
}

TEST_F(ColumnarJoinTest, BuildSideKindDeviationFallsBack) {
  // A REAL-typed build key that holds an Int value at runtime: the build
  // must switch the table to composite keys — same rows and stats as a
  // join that never had raw keys, serial and with morsel-parallel keys.
  TMDB_ASSERT_OK_AND_ASSIGN(
      auto r, Table::Create("RD", Type::Tuple({{"j", Type::Real()},
                                               {"w", Type::Int()}})));
  TMDB_ASSERT_OK(r->Insert(Value::Tuple(
      {"j", "w"}, {Value::Real(1.0), Value::Int(10)})));
  TMDB_ASSERT_OK(r->Insert(Value::Tuple(
      {"j", "w"}, {Value::Int(2), Value::Int(20)})));  // deviating kind

  Expr xv = Expr::Var("x", left_->schema());
  Expr yv = Expr::Var("y", r->schema());
  std::vector<Expr> lk = {Expr::Must(Expr::Field(xv, "k"))};
  std::vector<Expr> rk = {Expr::Must(Expr::Field(yv, "j"))};
  std::optional<FastKeySpec> fk = ResolveFastKeys(lk, rk, "x", "y");
  ASSERT_TRUE(fk.has_value());

  JoinSpec spec;
  spec.mode = JoinMode::kInner;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = r->schema();
  spec.pred = Expr::True();

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    JoinSpec s1 = spec;
    HashJoinOp row_join(PhysicalOpPtr(new TableScanOp(left_)),
                        PhysicalOpPtr(new TableScanOp(r)), std::move(s1), lk,
                        rk, std::nullopt);
    JoinSpec s2 = spec;
    HashJoinOp fast_join(PhysicalOpPtr(new TableScanOp(left_)),
                         PhysicalOpPtr(new TableScanOp(r)), std::move(s2), lk,
                         rk, fk);
    Executor reference(threads);
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> expected,
                              reference.RunPhysical(&row_join));
    Executor executor(threads);
    TMDB_ASSERT_OK_AND_ASSIGN(std::vector<Value> actual,
                              executor.RunPhysical(&fast_join));
    EXPECT_TRUE(BitIdentical(actual, expected));
    EXPECT_TRUE(StatsMatch(executor.stats(), reference.stats()));
    // Both Real(1.0) and the deviating Int(2) build rows join their 7 left
    // partners each (k = i % 60 over 400 rows → 7 hits per key in [0, 40)).
    EXPECT_EQ(actual.size(), 14u);
  }
}

TEST(ResolveFastKeysTest, KindRules) {
  Type lt = Type::Tuple({{"i", Type::Int()},
                         {"r", Type::Real()},
                         {"s", Type::String()},
                         {"b", Type::Bool()}});
  Type rt = lt;
  Expr x = Expr::Var("x", lt);
  Expr y = Expr::Var("y", rt);
  auto key = [&](const Expr& base, const char* f) {
    return Expr::Must(Expr::Field(base, f));
  };

  auto resolve = [&](const char* lf, const char* rf) {
    return ResolveFastKeys({key(x, lf)}, {key(y, rf)}, "x", "y");
  };
  // Int = Int → kI64.
  auto ii = resolve("i", "i");
  ASSERT_TRUE(ii.has_value());
  EXPECT_EQ(ii->kind, FastKeySpec::Kind::kI64);
  // String = String → kStr.
  auto ss = resolve("s", "s");
  ASSERT_TRUE(ss.has_value());
  EXPECT_EQ(ss->kind, FastKeySpec::Kind::kStr);
  // Numeric with a Real build (right) side → kF64, either probe kind.
  auto ir = resolve("i", "r");
  ASSERT_TRUE(ir.has_value());
  EXPECT_EQ(ir->kind, FastKeySpec::Kind::kF64);
  // Real probe against an Int build side: the build table would be exact
  // Int, but Real probes need double semantics → refused.
  EXPECT_FALSE(resolve("r", "i").has_value());
  // Bools and cross-basic-kind pairs are refused.
  EXPECT_FALSE(resolve("b", "b").has_value());
  EXPECT_FALSE(resolve("s", "i").has_value());
  // Multi-key composites are refused (composite Value path handles them).
  EXPECT_FALSE(ResolveFastKeys({key(x, "i"), key(x, "s")},
                               {key(y, "i"), key(y, "s")}, "x", "y")
                   .has_value());
}

// ----------------------------------------------- arena + charge granularity

TEST(ArenaTest, ChargesBlocksThroughTheGuard) {
  ExecStats stats;
  QueryGuard guard;
  GuardLimits limits;
  limits.memory_budget_bytes = 256 << 10;
  guard.Reset(limits, &stats, nullptr);

  Arena arena;
  arena.Bind(&guard);
  const int64_t before = guard.memory_used();
  TMDB_ASSERT_OK_AND_ASSIGN(int64_t* p, arena.AllocateArray<int64_t>(100));
  for (int i = 0; i < 100; ++i) p[i] = i;
  EXPECT_GE(guard.memory_used() - before, 100 * 8);
  // Reset refunds everything.
  arena.Reset();
  EXPECT_EQ(guard.memory_used(), before);

  // A budget below one block: the very first allocation trips.
  GuardLimits small;
  small.memory_budget_bytes = 1 << 10;
  guard.Reset(small, &stats, nullptr);
  arena.Bind(&guard);
  auto blown = arena.AllocateArray<int64_t>(100);
  ASSERT_FALSE(blown.ok());
  EXPECT_EQ(blown.status().code(), StatusCode::kResourceExhausted);
  arena.Reset();
}

TEST(ChargeGranularityTest, TripsWithinOneGranuleOfTheLimit) {
  // Satellite regression: Charge() defers the *checkpoint*, never the
  // accounting. With budget B and granularity G, charging in tiny steps
  // must fail before B + G + step bytes have been accepted.
  ExecStats stats;
  QueryGuard guard;
  GuardLimits limits;
  const uint64_t kBudget = 128 << 10;
  limits.memory_budget_bytes = kBudget;
  guard.Reset(limits, &stats, nullptr);

  GuardReservation res;
  res.Reset(&guard);
  const uint64_t kStep = 64;
  uint64_t accepted = 0;
  Status tripped = Status::OK();
  for (int i = 0; i < 1 << 20; ++i) {
    tripped = res.Charge(kStep);
    if (!tripped.ok()) break;
    accepted += kStep;
  }
  ASSERT_FALSE(tripped.ok()) << "budget never tripped";
  EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);
  EXPECT_LE(accepted, kBudget + res.charge_granularity() + kStep);
  // memory_used stayed exact the whole time (accounting not deferred).
  EXPECT_GE(guard.memory_used(), static_cast<int64_t>(accepted));
  res.Release();
  EXPECT_EQ(guard.memory_used(), 0);
}

}  // namespace
}  // namespace tmdb
