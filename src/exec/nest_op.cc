#include "exec/nest_op.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "base/string_util.h"
#include "exec/parallel_util.h"
#include "exec/spill_util.h"
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

Status NestOp::OpenSerial(std::vector<Value>* rows_ptr) {
  std::vector<Value>& rows = *rows_ptr;
  // Group-by hash: key tuple → collected elements. Insertion order of
  // groups is preserved for deterministic output.
  std::unordered_map<Value, size_t, ValueHash, ValueEq> group_index;
  std::vector<Value> keys;
  std::vector<std::vector<Value>> groups;
  group_index.reserve(rows.size());

  for (size_t r = 0; r < rows.size(); ++r) {
    if ((r & (kExecBatchSize - 1)) == 0) {
      TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
    }
    const Value& row = rows[r];
    // Key = projection onto the grouping attributes.
    std::vector<Value> key_values;
    key_values.reserve(group_attrs_.size());
    for (const std::string& attr : group_attrs_) {
      TMDB_ASSIGN_OR_RETURN(Value v, row.Field(attr));
      key_values.push_back(std::move(v));
    }
    Value key = Value::Tuple(group_attrs_, std::move(key_values));

    Environment env(ctx_->outer_env);
    env.Bind(var_, row);
    TMDB_ASSIGN_OR_RETURN(Value elem, EvalExpr(elem_, env, ctx_->subplans));

    auto [it, inserted] = group_index.emplace(key, groups.size());
    if (inserted) {
      keys.push_back(std::move(key));
      groups.emplace_back();
    }
    if (!(null_group_to_empty_ && IsNullPadding(elem))) {
      groups[it->second].push_back(std::move(elem));
    }
  }

  output_.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    TMDB_ASSIGN_OR_RETURN(
        Value out, ExtendTuple(keys[i], label_, Value::Set(std::move(groups[i]))));
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
          if (((i - range.begin) & (kExecBatchSize - 1)) == 0) {
            TMDB_RETURN_IF_ERROR(CheckGuard(wctx));
          }
          std::vector<Value> key_values;
          key_values.reserve(group_attrs_.size());
          for (const std::string& attr : group_attrs_) {
            TMDB_ASSIGN_OR_RETURN(Value v, rows[i].Field(attr));
            key_values.push_back(std::move(v));
          }
          keys[i] = Value::Tuple(group_attrs_, std::move(key_values));
          hashes[i] = keys[i].Hash();
          Environment env(ctx_->outer_env);
          env.Bind(var_, rows[i]);
          TMDB_ASSIGN_OR_RETURN(elems[i], EvalExpr(elem_, env, wctx->subplans));
        }
        return Status::OK();
      }));

  // Stage 2 (parallel over partitions): each worker groups one disjoint
  // hash partition, scanning rows in order so element order inside a group
  // matches the serial path, and records each group's first-occurrence row
  // index for the merge. The Set canonicalisation (the expensive sort) also
  // happens here, in parallel.
  std::vector<std::vector<std::pair<size_t, Value>>> partition_rows(
      num_partitions);
  std::vector<MorselRange> one_per_partition;
  one_per_partition.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    one_per_partition.push_back({p, p + 1});
  }
  TMDB_RETURN_IF_ERROR(ParallelForMorsels(
      ctx_->sched, ctx_->guard, one_per_partition,
      [&](size_t, MorselRange range) -> Status {
        const size_t p = range.begin;
        std::unordered_map<Value, size_t, ValueHash, ValueEq> group_index;
        std::vector<Value> part_keys;
        std::vector<std::vector<Value>> groups;
        std::vector<size_t> first_row;
        for (size_t i = 0; i < n; ++i) {
          if ((i & (kExecBatchSize - 1)) == 0) {
            TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
          }
          if (hashes[i] % num_partitions != p) continue;
          auto [it, inserted] = group_index.emplace(keys[i], groups.size());
          if (inserted) {
            part_keys.push_back(std::move(keys[i]));
            groups.emplace_back();
            first_row.push_back(i);
          }
          if (!(null_group_to_empty_ && IsNullPadding(elems[i]))) {
            groups[it->second].push_back(std::move(elems[i]));
          }
        }
        std::vector<std::pair<size_t, Value>>& out = partition_rows[p];
        out.reserve(part_keys.size());
        for (size_t g = 0; g < part_keys.size(); ++g) {
          TMDB_ASSIGN_OR_RETURN(
              Value row, ExtendTuple(part_keys[g], label_,
                                     Value::Set(std::move(groups[g]))));
          out.emplace_back(first_row[g], std::move(row));
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

  // Merge: serial output order is group first-occurrence order, so sort the
  // partition outputs by first-occurrence row index.
  std::vector<std::pair<size_t, Value>> merged;
  size_t total = 0;
  for (const auto& part : partition_rows) total += part.size();
  merged.reserve(total);
  for (auto& part : partition_rows) {
    for (auto& entry : part) merged.push_back(std::move(entry));
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  output_.reserve(merged.size());
  for (auto& entry : merged) output_.push_back(std::move(entry.second));
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
