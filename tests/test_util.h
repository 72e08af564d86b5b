#ifndef TMDB_TESTS_TEST_UTIL_H_
#define TMDB_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/result.h"
#include "base/status.h"
#include "catalog/catalog.h"
#include "exec/exec_context.h"
#include "values/value.h"

namespace tmdb {

/// gtest helpers for Status/Result.
#define TMDB_ASSERT_OK(expr)                                 \
  do {                                                       \
    const ::tmdb::Status _s = (expr);                        \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                   \
  } while (false)

#define TMDB_EXPECT_OK(expr)                                 \
  do {                                                       \
    const ::tmdb::Status _s = (expr);                        \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                   \
  } while (false)

/// Unwraps a Result<T> in a test, failing loudly on error.
#define TMDB_ASSERT_OK_AND_ASSIGN(lhs, rexpr)                \
  TMDB_ASSERT_OK_AND_ASSIGN_IMPL_(                           \
      TMDB_TEST_CONCAT_(_tmdb_test_result_, __LINE__), lhs, rexpr)

#define TMDB_ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, rexpr)     \
  auto tmp = (rexpr);                                        \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();          \
  lhs = std::move(tmp).value()

#define TMDB_TEST_CONCAT_(a, b) TMDB_TEST_CONCAT_2_(a, b)
#define TMDB_TEST_CONCAT_2_(a, b) a##b

namespace testutil {

/// Builds a flat tuple value ⟨names[i] = ints[i]⟩ of INT attributes.
inline Value IntRow(const std::vector<std::string>& names,
                    const std::vector<int64_t>& ints) {
  std::vector<Value> values;
  values.reserve(ints.size());
  for (int64_t v : ints) values.push_back(Value::Int(v));
  return Value::Tuple(names, std::move(values));
}

/// Builds a set of INT atoms.
inline Value IntSet(const std::vector<int64_t>& ints) {
  std::vector<Value> values;
  values.reserve(ints.size());
  for (int64_t v : ints) values.push_back(Value::Int(v));
  return Value::Set(std::move(values));
}

/// Sorts a row vector into canonical order for order-insensitive equality.
inline std::vector<Value> Canonical(std::vector<Value> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return rows;
}

/// Order-insensitive row-set equality with a readable failure message.
inline ::testing::AssertionResult RowsEqual(std::vector<Value> actual,
                                            std::vector<Value> expected) {
  actual = Canonical(std::move(actual));
  expected = Canonical(std::move(expected));
  if (actual.size() == expected.size()) {
    bool all = true;
    for (size_t i = 0; i < actual.size(); ++i) {
      if (!actual[i].Equals(expected[i])) {
        all = false;
        break;
      }
    }
    if (all) return ::testing::AssertionSuccess();
  }
  auto render = [](const std::vector<Value>& rows) {
    std::string out = "{\n";
    for (const Value& r : rows) out += "  " + r.ToString() + "\n";
    return out + "}";
  };
  return ::testing::AssertionFailure()
         << "row sets differ.\nactual = " << render(actual)
         << "\nexpected = " << render(expected);
}

/// Exact-sequence equality: same rows in the same order.
inline ::testing::AssertionResult BitIdentical(
    const std::vector<Value>& actual, const std::vector<Value>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << actual.size() << " vs "
           << expected.size();
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (!actual[i].Equals(expected[i])) {
      return ::testing::AssertionFailure()
             << "row " << i << " differs: " << actual[i].ToString() << " vs "
             << expected[i].ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Equality of the work counters (StatKind::kWork in the counter table).
/// Telemetry is exempt: where guard checkpoints fall depends on the path
/// and the batch size, and the strategy and scheduler counters on the run.
inline ::testing::AssertionResult StatsMatch(const ExecStats& a,
                                             const ExecStats& b) {
  for (const StatCounter& counter : kStatCounters) {
    if (counter.kind != StatKind::kWork) continue;
    if (a.*counter.field != b.*counter.field) {
      return ::testing::AssertionFailure()
             << counter.name << " differs: " << a.*counter.field << " vs "
             << b.*counter.field;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testutil
}  // namespace tmdb

#endif  // TMDB_TESTS_TEST_UTIL_H_
