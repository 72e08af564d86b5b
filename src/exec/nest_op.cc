#include "exec/nest_op.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"
#include "exec/parallel_util.h"
#include "expr/eval.h"
#include "values/value_ops.h"

namespace tmdb {

bool NestOp::IsNullPadding(const Value& v) {
  if (v.is_null()) return true;
  if (!v.is_tuple()) return false;
  if (v.TupleSize() == 0) return false;
  for (size_t i = 0; i < v.TupleSize(); ++i) {
    if (!v.FieldValue(i).is_null()) return false;
  }
  return true;
}

Status NestOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  output_.clear();
  pos_ = 0;
  build_res_.Reset(ctx->guard);

  std::vector<Value> rows;
  TMDB_RETURN_IF_ERROR(child_->Open(ctx));
  // A memory trip below leaves every drained row in `rows` (NextBatch
  // appends before the charge, and both grouping paths read rows without
  // disturbing them), so the spill path can take over. Failures from the
  // child itself are its own problem and are never diverted.
  bool salvageable = true;
  bool drained = false;
  Status st = [&]() -> Status {
    while (true) {
      Result<size_t> got = child_->NextBatch(&rows, kExecBatchSize);
      if (!got.ok()) {
        salvageable = false;
        return got.status();
      }
      if (*got == 0) break;
      ctx->stats->rows_built += *got;
      TMDB_RETURN_IF_ERROR(build_res_.Add(*got * sizeof(Value)));
    }
    drained = true;
    child_->Close();
    if (ctx->parallel_enabled()) {
      return OpenParallel(&rows);
    }
    return OpenSerial(&rows);
  }();
  if (st.ok()) return st;
  if (!salvageable || !SpillEligibleTrip(ctx, st)) return st;
  return SpillGroup(std::move(rows), drained);
}

Result<Value> NestOp::GroupKey(const Value& row) const {
  std::vector<Value> key_values;
  key_values.reserve(group_attrs_.size());
  for (const std::string& attr : group_attrs_) {
    TMDB_ASSIGN_OR_RETURN(Value v, row.Field(attr));
    key_values.push_back(std::move(v));
  }
  return Value::Tuple(group_attrs_, std::move(key_values));
}

Result<Value> NestOp::ElemOf(const Value& row, const ExecContext* ctx) const {
  Environment env(ctx->outer_env);
  env.Bind(var_, row);
  return EvalExpr(elem_, env, ctx->subplans);
}

NestOp::Grouper::Grouper(const NestOp& op, size_t expected_rows) : op_(op) {
  index_.reserve(expected_rows);
}

void NestOp::Grouper::Add(uint64_t tag, Value& key, Value& elem) {
  auto [it, inserted] = index_.emplace(key, keys_.size());
  if (inserted) {
    keys_.push_back(std::move(key));
    groups_.emplace_back();
    first_tag_.push_back(tag);
  }
  if (!(op_.null_group_to_empty_ && IsNullPadding(elem))) {
    groups_[it->second].push_back(std::move(elem));
  }
}

Result<Value> NestOp::Grouper::Take(size_t g) {
  return ExtendTuple(keys_[g], op_.label_, Value::Set(std::move(groups_[g])));
}

Status NestOp::OpenSerial(std::vector<Value>* rows_ptr) {
  std::vector<Value>& rows = *rows_ptr;
  Grouper grouper(*this, rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(ctx_, r));
    TMDB_ASSIGN_OR_RETURN(Value key, GroupKey(rows[r]));
    TMDB_ASSIGN_OR_RETURN(Value elem, ElemOf(rows[r], ctx_));
    grouper.Add(r, key, elem);
  }

  output_.reserve(grouper.size());
  for (size_t g = 0; g < grouper.size(); ++g) {
    TMDB_ASSIGN_OR_RETURN(Value out, grouper.Take(g));
    output_.push_back(std::move(out));
  }
  // The input batch is dead (its images live on in output_); refund its
  // shell charge rather than carrying it until Close as phantom pressure.
  const uint64_t rows_bytes = rows.size() * sizeof(Value);
  rows.clear();
  rows.shrink_to_fit();
  build_res_.Shrink(rows_bytes);
  return Status::OK();
}

Status NestOp::OpenParallel(std::vector<Value>* rows_ptr) {
  std::vector<Value>& rows = *rows_ptr;
  const size_t n = rows.size();
  const size_t num_partitions = static_cast<size_t>(ctx_->num_threads);

  // Stage 1 (parallel over morsels): evaluate per-row group key, key hash,
  // and element image.
  std::vector<Value> keys(n);
  std::vector<uint64_t> hashes(n);
  std::vector<Value> elems(n);
  const uint64_t scratch_bytes = n * (2 * sizeof(Value) + sizeof(uint64_t));
  TMDB_RETURN_IF_ERROR(build_res_.Add(scratch_bytes));
  // Per-morsel worker contexts (forked subplan evaluators sharing the run's
  // memo cache, private stats blocks) let ν handle subplan-bearing element
  // functions on the parallel path.
  TMDB_RETURN_IF_ERROR(ParallelForMorselsWithStats(
      ctx_, SplitMorsels(n, ctx_->num_threads),
      [&](size_t, MorselRange range, ExecContext* wctx) -> Status {
        for (size_t i = range.begin; i < range.end; ++i) {
          TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(wctx, i - range.begin));
          TMDB_ASSIGN_OR_RETURN(keys[i], GroupKey(rows[i]));
          hashes[i] = keys[i].Hash();
          TMDB_ASSIGN_OR_RETURN(elems[i], ElemOf(rows[i], wctx));
        }
        return Status::OK();
      }));

  // Stage 2 (parallel over partitions): each worker groups one disjoint
  // hash partition, scanning rows in order so element order inside a group
  // matches the serial path, and records each group's first-occurrence row
  // index for the merge. The Set canonicalisation (the expensive sort) also
  // happens here, in parallel.
  std::vector<TaggedRows> partition_rows(num_partitions);
  std::vector<MorselRange> one_per_partition;
  one_per_partition.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    one_per_partition.push_back({p, p + 1});
  }
  TMDB_RETURN_IF_ERROR(ParallelForMorsels(
      ctx_->sched, ctx_->guard, one_per_partition,
      [&](size_t, MorselRange range) -> Status {
        const size_t p = range.begin;
        Grouper grouper(*this);
        for (size_t i = 0; i < n; ++i) {
          TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(ctx_, i));
          if (hashes[i] % num_partitions != p) continue;
          grouper.Add(i, keys[i], elems[i]);
        }
        TaggedRows& out = partition_rows[p];
        out.reserve(grouper.size());
        for (size_t g = 0; g < grouper.size(); ++g) {
          TMDB_ASSIGN_OR_RETURN(Value row, grouper.Take(g));
          out.emplace_back(grouper.first_tag(g), std::move(row));
        }
        return Status::OK();
      }));

  // The stage-1 scratch is dead (keys/elems moved into the partition
  // outputs); refund its charge so it doesn't linger as phantom budget
  // pressure for downstream operators.
  keys.clear();
  keys.shrink_to_fit();
  hashes.clear();
  hashes.shrink_to_fit();
  elems.clear();
  elems.shrink_to_fit();
  rows.clear();
  rows.shrink_to_fit();
  build_res_.Shrink(scratch_bytes + n * sizeof(Value));

  // Merge: serial output order is group first-occurrence order.
  TaggedRows merged;
  size_t total = 0;
  for (const TaggedRows& part : partition_rows) total += part.size();
  merged.reserve(total);
  for (TaggedRows& part : partition_rows) {
    for (auto& entry : part) merged.push_back(std::move(entry));
  }
  output_ = RestoreTagOrder(std::move(merged));
  return Status::OK();
}

Result<size_t> NestOp::NextBatch(std::vector<Value>* out, size_t max) {
  TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
  const size_t take = std::min(max, output_.size() - pos_);
  out->insert(out->end(), output_.begin() + static_cast<ptrdiff_t>(pos_),
              output_.begin() + static_cast<ptrdiff_t>(pos_ + take));
  pos_ += take;
  ctx_->stats->rows_emitted += take;
  return take;
}

void NestOp::Close() {
  output_.clear();
  build_res_.Release();
  // Usually closed at the end of Open's drain; matters on mid-drain unwind.
  child_->Close();
}

std::string NestOp::Describe() const {
  return StrCat(null_group_to_empty_ ? "Nest*" : "Nest", "[by (",
                Join(group_attrs_, ", "), "), ", var_, " : ",
                elem_.ToString(), "; ", label_, "]");
}

}  // namespace tmdb
