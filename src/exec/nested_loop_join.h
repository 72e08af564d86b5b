#ifndef TMDB_EXEC_NESTED_LOOP_JOIN_H_
#define TMDB_EXEC_NESTED_LOOP_JOIN_H_

#include <string>
#include <vector>

#include "exec/join_common.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"

namespace tmdb {

/// Nested-loop implementation of all join modes. The right input is
/// materialised once at Open; every left row scans it in full (or until a
/// match, for semi/anti). This is both the fallback for non-equi predicates
/// and — by construction — the cost model of an unoptimised nested query.
class NestedLoopJoinOp final : public PhysicalOp {
 public:
  NestedLoopJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, JoinSpec spec)
      : left_(std::move(left)),
        right_(std::move(right)),
        spec_(std::move(spec)),
        matcher_(spec_, /*checkpoint_pairs=*/true) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  JoinSpec spec_;
  // The inner scans are the quadratic hot path a guard must bound without
  // slowing: the matcher checkpoints once per kExecBatchSize predicate
  // evaluations.
  JoinMatcher matcher_;
  ExecContext* ctx_ = nullptr;

  std::vector<Value> right_rows_;  // materialised right input
  BatchReader left_in_;
  JoinServe serve_;
  GuardReservation build_res_;     // bytes charged for right_rows_
};

}  // namespace tmdb

#endif  // TMDB_EXEC_NESTED_LOOP_JOIN_H_
