#include "exec/nested_loop_join.h"

#include <utility>

#include "base/string_util.h"

namespace tmdb {

Status NestedLoopJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  right_rows_.clear();
  left_in_.Reset();
  serve_.Clear();
  build_res_.Reset(ctx->guard);

  TMDB_RETURN_IF_ERROR(right_->Open(ctx));
  while (true) {
    TMDB_ASSIGN_OR_RETURN(size_t got,
                          right_->NextBatch(&right_rows_, kExecBatchSize));
    if (got == 0) break;
    TMDB_RETURN_IF_ERROR(build_res_.Add(got * sizeof(Value)));
    ctx_->stats->rows_built += got;
  }
  right_->Close();
  return left_->Open(ctx);
}

Result<size_t> NestedLoopJoinOp::NextBatch(std::vector<Value>* out,
                                           size_t max) {
  auto refill = [this](std::vector<Value>* buf) -> Result<bool> {
    TMDB_ASSIGN_OR_RETURN(Value * left_row, left_in_.Read(left_.get(), ctx_));
    if (left_row == nullptr) return false;
    TMDB_RETURN_IF_ERROR(
        matcher_.Match(*left_row, RowVecIter{&right_rows_}, ctx_, buf));
    return true;
  };
  return serve_.Serve(out, max, ctx_, refill);
}

void NestedLoopJoinOp::Close() {
  right_rows_.clear();
  left_in_.Reset();
  serve_.Clear();
  build_res_.Release();
  left_->Close();
  // Usually closed at the end of Open's drain; matters on mid-drain unwind.
  right_->Close();
}

std::string NestedLoopJoinOp::Describe() const {
  std::string out = StrCat("NestedLoopJoin<", JoinModeName(spec_.mode), ">[",
                           spec_.left_var, ",", spec_.right_var, " : ",
                           spec_.pred.ToString());
  if (spec_.mode == JoinMode::kNestJoin) {
    out += StrCat(", G = ", spec_.func.ToString(), "; ", spec_.label);
  }
  out += "]";
  return out;
}

}  // namespace tmdb
