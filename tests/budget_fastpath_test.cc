// Raw-key hash tables under a memory budget without spill. The hash join
// keys its table by raw keys (i64 / f64 / string dictionary code) whenever
// the build cannot spill, budgeted or not, and the raw table charges the
// guard less than the composite-key table at every checkpoint. So over a
// geometric budget ladder:
//   - wherever enable_columnar=false (composite keys) succeeds,
//     enable_columnar=true (raw keys) succeeds too, and
//   - every budgeted success reproduces the unbudgeted run's rows and work
//     counters bit for bit.
// The string dictionary's entries are charged to the guard like the key
// arrays; an operator-level test pins that charge.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/table.h"
#include "core/database.h"
#include "exec/basic_ops.h"
#include "exec/columnar.h"
#include "exec/hash_join.h"
#include "exec/query_guard.h"
#include "tests/test_util.h"
#include "values/column_store.h"
#include "workload/generators.h"

namespace tmdb {
namespace {

using testutil::BitIdentical;
using testutil::StatsMatch;

struct LadderQuery {
  const char* name;
  const char* text;
};

// Semijoin and antijoin (Table 2 membership, with a residual beside the
// equi-key), the COUNT-bug nest join, a SELECT-clause nest join, and a
// nest join over string keys.
const LadderQuery kLadderQueries[] = {
    {"semi",
     "SELECT x.a FROM R x WHERE x.c IN (SELECT y.c FROM S y "
     "WHERE y.d > x.b)"},
    {"anti",
     "SELECT x.a FROM R x WHERE x.c NOT IN (SELECT y.c FROM S y "
     "WHERE y.d > x.b)"},
    {"nest_count",
     "SELECT x FROM R x WHERE x.b = count(SELECT y.d FROM S y "
     "WHERE x.c = y.c)"},
    {"nest_select",
     "SELECT (a = x.a, zs = SELECT y.d FROM S y WHERE x.c = y.c) FROM R x"},
    {"nest_string",
     "SELECT (v = x.v, n = count(SELECT y.w FROM SJ y WHERE x.k = y.j)) "
     "FROM SK x"},
};

class BudgetLadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CountBugConfig rs;
    rs.num_r = 1000;
    rs.num_s = 2000;
    TMDB_ASSERT_OK(LoadCountBugTables(&db_, rs));
    TMDB_ASSERT_OK(db_.CreateTable("SK", Type::Tuple({{"k", Type::String()},
                                                      {"v", Type::Int()}}))
                       .status());
    TMDB_ASSERT_OK(db_.CreateTable("SJ", Type::Tuple({{"j", Type::String()},
                                                      {"w", Type::Int()}}))
                       .status());
    for (int i = 0; i < 1000; ++i) {
      TMDB_ASSERT_OK(db_.Insert(
          "SK", Value::Tuple({"k", "v"},
                             {Value::String("key" + std::to_string(i % 700)),
                              Value::Int(i)})));
    }
    for (int i = 0; i < 2000; ++i) {
      TMDB_ASSERT_OK(db_.Insert(
          "SJ", Value::Tuple({"j", "w"},
                             {Value::String("key" + std::to_string(i % 500)),
                              Value::Int(i)})));
    }
  }

  Database db_;
};

TEST_F(BudgetLadderTest, RawKeysPassWhereCompositeKeysPass) {
  int raw_only_passes = 0;
  int both_pass = 0;
  for (const LadderQuery& query : kLadderQueries) {
    for (int threads : {1, 4}) {
      RunOptions options;
      options.num_threads = threads;
      options.enable_spill = false;
      TMDB_ASSERT_OK_AND_ASSIGN(QueryResult expected,
                                db_.Run(query.text, options));
      // 4 KiB .. 4 MiB, doubling.
      for (uint64_t budget = 4 << 10; budget <= 4 << 20; budget <<= 1) {
        SCOPED_TRACE(std::string(query.name) + " threads=" +
                     std::to_string(threads) +
                     " budget=" + std::to_string(budget));
        options.memory_budget_bytes = budget;
        options.enable_columnar = false;
        auto composite = db_.Run(query.text, options);
        options.enable_columnar = true;
        auto raw = db_.Run(query.text, options);
        for (const auto* run : {&composite, &raw}) {
          if (run->ok()) {
            EXPECT_TRUE(BitIdentical((*run)->rows, expected.rows));
            EXPECT_TRUE(StatsMatch((*run)->stats, expected.stats));
          } else {
            EXPECT_EQ(run->status().code(), StatusCode::kResourceExhausted)
                << run->status().ToString();
          }
        }
        if (composite.ok()) {
          EXPECT_TRUE(raw.ok())
              << "raw keys failed where composite keys passed: "
              << raw.status().ToString();
          ++both_pass;
        } else if (raw.ok()) {
          ++raw_only_passes;
        }
      }
    }
  }
  // The ladder straddles every query's footprint, and the raw keys' smaller
  // charge shows as rungs that only they pass.
  EXPECT_GT(both_pass, 0);
  EXPECT_GT(raw_only_passes, 0);
}

// ------------------------------------------- string dictionary charging

/// Builds SL(k) ⋉ SR(j, i) on string keys, the right side holding `distinct`
/// distinct keys over `n` rows, opens it with raw keys under `budget`
/// (spill off) and reports the guard's memory after the build, or the
/// Open error.
Result<int64_t> RawStringBuildBytes(size_t n, size_t distinct,
                                    uint64_t budget) {
  TMDB_ASSIGN_OR_RETURN(
      auto left, Table::Create("SL", Type::Tuple({{"k", Type::String()}})));
  TMDB_ASSIGN_OR_RETURN(
      auto right, Table::Create("SR", Type::Tuple({{"j", Type::String()},
                                                    {"i", Type::Int()}})));
  TMDB_RETURN_IF_ERROR(
      left->Insert(Value::Tuple({"k"}, {Value::String("key0")})));
  for (size_t i = 0; i < n; ++i) {
    TMDB_RETURN_IF_ERROR(right->Insert(Value::Tuple(
        {"j", "i"}, {Value::String("key" + std::to_string(i % distinct)),
                     Value::Int(static_cast<int64_t>(i))})));
  }
  Expr xv = Expr::Var("x", left->schema());
  Expr yv = Expr::Var("y", right->schema());
  std::vector<Expr> left_keys = {Expr::Must(Expr::Field(xv, "k"))};
  std::vector<Expr> right_keys = {Expr::Must(Expr::Field(yv, "j"))};
  std::optional<FastKeySpec> fast =
      ResolveFastKeys(left_keys, right_keys, "x", "y");
  if (!fast.has_value()) return Status::Internal("string keys did not resolve");
  JoinSpec spec;
  spec.mode = JoinMode::kSemi;
  spec.left_var = "x";
  spec.right_var = "y";
  spec.right_type = right->schema();
  spec.pred = Expr::True();
  HashJoinOp join(PhysicalOpPtr(new TableScanOp(left)),
                  PhysicalOpPtr(new TableScanOp(right)), std::move(spec),
                  left_keys, right_keys, fast);

  ExecStats stats;
  QueryGuard guard;
  GuardLimits limits;
  limits.memory_budget_bytes = budget;
  guard.Reset(limits, &stats, nullptr);
  ExecContext ctx;
  ctx.stats = &stats;
  ctx.guard = &guard;
  Status opened = join.Open(&ctx);
  const int64_t used = guard.memory_used();
  join.Close();
  if (guard.materialized_bytes() != 0) {
    return Status::Internal("Close left bytes charged to the guard");
  }
  TMDB_RETURN_IF_ERROR(opened);
  return used;
}

TEST(StringDictChargeTest, DictionaryEntriesAreCharged) {
  constexpr size_t kRows = 2000;
  constexpr size_t kDistinct = 1500;
  constexpr uint64_t kRoomy = 1ull << 30;  // only arms the accounting
  TMDB_ASSERT_OK_AND_ASSIGN(int64_t one_key,
                            RawStringBuildBytes(kRows, 1, kRoomy));
  TMDB_ASSERT_OK_AND_ASSIGN(int64_t many_keys,
                            RawStringBuildBytes(kRows, kDistinct, kRoomy));
  // Same row count, same key and chain arrays: the whole difference is the
  // dictionary's extra entries, each charged at its entry size.
  EXPECT_EQ(many_keys - one_key,
            static_cast<int64_t>((kDistinct - 1) * StringDict::kEntryBytes));

  // A budget that fits the one-key build but not the dictionary trips.
  const uint64_t tight =
      static_cast<uint64_t>(one_key) + kDistinct / 2 * StringDict::kEntryBytes;
  TMDB_ASSERT_OK(RawStringBuildBytes(kRows, 1, tight).status());
  auto tripped = RawStringBuildBytes(kRows, kDistinct, tight);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted)
      << tripped.status().ToString();
}

}  // namespace
}  // namespace tmdb
