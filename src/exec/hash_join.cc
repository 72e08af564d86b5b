#include "exec/hash_join.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"
#include "exec/parallel_util.h"
#include "values/value_ops.h"

namespace tmdb {

namespace {

/// Guard check once per kExecBatchSize loop iterations (`i` counts up).
inline Status PeriodicGuardCheck(const ExecContext* ctx, size_t i) {
  if ((i & (kExecBatchSize - 1)) == 0) return CheckGuard(ctx);
  return Status::OK();
}

}  // namespace

Status HashJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  partitions_.clear();
  left_in_.Reset();
  serve_.Clear();
  materialized_ = false;
  spilled_ = false;
  build_res_.Reset(ctx->guard);

  fast_active_ = false;
  build_rows_.clear();
  arena_.Reset();
  fk_i64_ = nullptr;
  fk_f64_ = nullptr;
  fk_codes_ = nullptr;
  heads_ = nullptr;
  next_ = nullptr;
  bucket_mask_ = 0;
  fast_dict_ = StringDict();
  memo_.clear();
  memo_enabled_ = false;

  TMDB_RETURN_IF_ERROR(BuildTables(ctx));
  // Nest-join group memo: re-probing an already-grouped key hands back the
  // same set value. Serial only (no shared mutation under morsels) and only
  // without a memory budget — memoised groups are memory the row path does
  // not hold, and must not shift when a budget trips.
  memo_enabled_ = fast_active_ && spec_.mode == JoinMode::kNestJoin &&
                  matcher_.pred_is_true() && matcher_.func_is_right_ident() &&
                  !ctx->parallel_enabled() &&
                  (ctx->guard == nullptr ||
                   ctx->guard->limits().memory_budget_bytes == 0);
  if (spilled_) {
    // The spill path consumed both inputs and filled serve_ already.
    return Status::OK();
  }
  TMDB_RETURN_IF_ERROR(left_->Open(ctx));

  // Morsel-parallel probe: subplan-bearing probe expressions are handled
  // too — each worker gets its own forked subplan evaluator, all sharing
  // the run's memo cache.
  if (ctx->parallel_enabled()) {
    const uint64_t held_before = build_res_.held();
    Status probed = ParallelProbe();
    if (probed.ok()) {
      materialized_ = true;
    } else if (SpillEligible(ctx, probed)) {
      // The build table fits but materialising the probe side blew the
      // budget. Fall back to the serial probe, which holds one probe
      // batch at a time: refund the probe scratch (its values freed on
      // unwind) and restart the left input.
      build_res_.Shrink(build_res_.held() - held_before);
      left_->Close();
      TMDB_RETURN_IF_ERROR(left_->Open(ctx));
    } else {
      return probed;
    }
  }
  return Status::OK();
}

Status HashJoinOp::BuildTables(ExecContext* ctx) {
  // Build phase: materialise the right input, hash it on its composite key.
  TMDB_RETURN_IF_ERROR(right_->Open(ctx));
  std::vector<Value> rows;
  Status drained = Status::OK();
  while (true) {
    Result<size_t> got = right_->NextBatch(&rows, kExecBatchSize);
    if (!got.ok()) {
      drained = got.status();
      break;
    }
    if (*got == 0) break;
    ctx->stats->rows_built += *got;
    // Charge the build-side row slots (and checkpoint) per batch, so a
    // memory budget trips during materialisation, not after.
    if (Status s = build_res_.Add(*got * sizeof(Value)); !s.ok()) {
      drained = s;
      break;
    }
  }
  if (!drained.ok()) {
    if (!SpillEligible(ctx, drained)) {
      right_->Close();
      return drained;
    }
    // The rows drained so far are intact; divert to disk and keep draining.
    return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/true);
  }
  right_->Close();

  // The fast path stands down under a memory budget: its arena block and
  // retained build_rows_ change the memory profile through the probe, which
  // would turn budget trips the row path survives (by spilling during the
  // build) into probe-phase failures. Budgeted runs keep the row build's
  // proven degradation story.
  const bool budgeted = ctx->guard != nullptr &&
                        ctx->guard->limits().memory_budget_bytes != 0;
  if (fast_spec_.has_value() && !budgeted) {
    Result<bool> fast = BuildFast(ctx, &rows);
    if (!fast.ok()) {
      arena_.Reset();
      if (!SpillEligible(ctx, fast.status())) return fast.status();
      // BuildFast never disturbs `rows`; divert them to disk.
      return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/false);
    }
    if (*fast) {
      fast_active_ = true;
      return Status::OK();
    }
    // A build key deviated from the static kind contract (NULL, coerced
    // Int in a Real field, NaN): release the arena and fall back to the
    // row build, which handles every kind combination.
    arena_.Reset();
    fast_dict_ = StringDict();
  }

  Status built = BuildInMemory(ctx, &rows);
  if (!built.ok()) {
    partitions_.clear();
    if (!SpillEligible(ctx, built)) return built;
    // Key evaluation never disturbs `rows` (see BuildInMemory), so they are
    // salvageable here even though the build tripped mid-way.
    return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/false);
  }
  return Status::OK();
}

Status HashJoinOp::BuildInMemory(ExecContext* ctx, std::vector<Value>* rows_in) {
  std::vector<Value>& rows = *rows_in;
  const size_t n = rows.size();
  const bool parallel = ctx->parallel_enabled();
  const size_t num_partitions =
      parallel ? static_cast<size_t>(ctx->num_threads) : 1;
  partitions_.assign(num_partitions, BuildMap());

  // Pass A: evaluate every composite key up front, leaving `rows` untouched
  // — a memory trip in this pass is salvageable by the spill path. The
  // scratch slots are charged now and refunded when the scratch dies below.
  const uint64_t scratch_bytes =
      n * sizeof(Value) + (parallel ? n * sizeof(uint64_t) : 0);
  TMDB_RETURN_IF_ERROR(build_res_.Add(scratch_bytes));
  std::vector<Value> keys(n);
  std::vector<uint64_t> hashes(parallel ? n : 0);
  if (!parallel) {
    for (size_t i = 0; i < n; ++i) {
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
      TMDB_ASSIGN_OR_RETURN(keys[i], EvalCompositeKey(right_keys_,
                                                      spec_.right_var,
                                                      rows[i], ctx));
    }
  } else {
    // Parallel stage 1 (morsels): evaluate the key expressions once per
    // build row and pre-compute the key hashes (cached inside the Value
    // rep, so partitioning and map insertion below re-use them).
    TMDB_RETURN_IF_ERROR(ParallelForMorselsWithStats(
        ctx, SplitMorsels(n, ctx->num_threads),
        [&](size_t, MorselRange range, ExecContext* wctx) -> Status {
          for (size_t i = range.begin; i < range.end; ++i) {
            TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(wctx, i - range.begin));
            TMDB_ASSIGN_OR_RETURN(keys[i],
                                  EvalCompositeKey(right_keys_, spec_.right_var,
                                                   rows[i], wctx));
            hashes[i] = keys[i].Hash();
          }
          return Status::OK();
        }));
  }

  // Pass B: move keys and rows into the hash maps. No fresh tracked values
  // are created here, so this pass cannot trip the memory budget and strand
  // half-moved rows.
  if (!parallel) {
    BuildMap& table = partitions_[0];
    table.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
      table[std::move(keys[i])].push_back(std::move(rows[i]));
    }
  } else {
    // Parallel stage 2 (one task per partition): each worker owns one
    // disjoint partition and scans the row sequence in order, so every
    // bucket receives its rows in build-input order — exactly the serial
    // insertion order.
    std::vector<MorselRange> one_per_partition;
    one_per_partition.reserve(num_partitions);
    for (size_t p = 0; p < num_partitions; ++p) {
      one_per_partition.push_back({p, p + 1});
    }
    TMDB_RETURN_IF_ERROR(ParallelForMorsels(
        ctx->sched, ctx->guard, one_per_partition,
        [&](size_t, MorselRange range) -> Status {
          const size_t p = range.begin;
          BuildMap& table = partitions_[p];
          table.reserve(n / num_partitions + 1);
          for (size_t i = 0; i < n; ++i) {
            TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
            if (hashes[i] % num_partitions != p) continue;
            // Disjoint: row i is moved by exactly one partition task.
            table[std::move(keys[i])].push_back(std::move(rows[i]));
          }
          return Status::OK();
        }));
  }

  // The scratch vectors die now; refund their slots so the charge does not
  // linger as phantom memory for the rest of the query.
  keys.clear();
  keys.shrink_to_fit();
  hashes.clear();
  hashes.shrink_to_fit();
  build_res_.Shrink(scratch_bytes);
  rows.clear();
  rows.shrink_to_fit();
  return Status::OK();
}

const std::vector<Value>* HashJoinOp::FindBucket(const Value& key) const {
  const BuildMap& table =
      partitions_.size() == 1
          ? partitions_[0]
          : partitions_[key.Hash() % partitions_.size()];
  auto it = table.find(key);
  return it == table.end() ? nullptr : &it->second;
}

/// Match iterator over a fast-table hash chain: walks `next` links from a
/// bucket head, skipping entries whose raw key differs from the probe key
/// (chains mix keys that share a bucket; map buckets do not).
struct HashJoinOp::FastIter {
  FastKeySpec::Kind kind = FastKeySpec::Kind::kI64;
  const std::vector<Value>* rows = nullptr;
  const uint32_t* next = nullptr;
  const int64_t* ki = nullptr;
  const double* kf = nullptr;
  const uint32_t* kc = nullptr;
  int64_t pi = 0;  // probe key (kind-specific)
  double pf = 0;
  uint32_t pc = 0;
  uint32_t j = kNil;

  bool KeyEq(uint32_t x) const {
    switch (kind) {
      case FastKeySpec::Kind::kI64:
        return ki[x] == pi;
      case FastKeySpec::Kind::kF64:
        return F64KeyEq(kf[x], pf);
      case FastKeySpec::Kind::kStr:
        return kc[x] == pc;
    }
    return false;
  }
  void Skip() {
    while (j != kNil && !KeyEq(j)) j = next[j];
  }
  bool done() const { return j == kNil; }
  const Value& row() const { return (*rows)[j]; }
  void advance() {
    j = next[j];
    Skip();
  }
};

Status HashJoinOp::ProcessLeftRow(const Value& left_row, ExecContext* ctx,
                                  std::vector<Value>* out) const {
  if (fast_active_) return ProcessLeftRowFast(left_row, ctx, out);
  TMDB_ASSIGN_OR_RETURN(
      Value key, EvalCompositeKey(left_keys_, spec_.left_var, left_row, ctx));
  ctx->stats->hash_probes++;
  return matcher_.Match(left_row, RowVecIter{FindBucket(key)}, ctx, out);
}

Result<bool> HashJoinOp::BuildFast(ExecContext* ctx,
                                   std::vector<Value>* rows) {
  const FastKeySpec& spec = *fast_spec_;
  const size_t n = rows->size();
  if (n >= static_cast<size_t>(kNil)) return false;
  arena_.Bind(ctx->guard);
  fast_dict_ = StringDict();

  int64_t* ki = nullptr;
  double* kf = nullptr;
  uint32_t* kc = nullptr;
  switch (spec.kind) {
    case FastKeySpec::Kind::kI64: {
      TMDB_ASSIGN_OR_RETURN(ki, arena_.AllocateArray<int64_t>(n));
      break;
    }
    case FastKeySpec::Kind::kF64: {
      TMDB_ASSIGN_OR_RETURN(kf, arena_.AllocateArray<double>(n));
      break;
    }
    case FastKeySpec::Kind::kStr: {
      TMDB_ASSIGN_OR_RETURN(kc, arena_.AllocateArray<uint32_t>(n));
      break;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(ctx, i));
    const Value* v = (*rows)[i].FindField(spec.right_field);
    if (v == nullptr) return false;
    switch (spec.kind) {
      case FastKeySpec::Kind::kI64:
        if (!v->is_int()) return false;
        ki[i] = v->AsInt();
        break;
      case FastKeySpec::Kind::kF64: {
        // Strictly Real and NaN-free: ResolveFastKeys's soundness argument
        // needs runtime-Real build keys, and NaN's tri-state "equal to
        // everything" cannot live in a hash table.
        if (!v->is_real()) return false;
        const double d = v->AsNumeric();
        if (d != d) return false;
        kf[i] = d;
        break;
      }
      case FastKeySpec::Kind::kStr:
        if (!v->is_string()) return false;
        kc[i] = fast_dict_.Intern(*v);
        break;
    }
  }

  size_t nb = 8;
  while (nb < 2 * n) nb <<= 1;
  uint32_t* heads = nullptr;
  uint32_t* next = nullptr;
  uint32_t* tails = nullptr;
  TMDB_ASSIGN_OR_RETURN(heads, arena_.AllocateArray<uint32_t>(nb));
  TMDB_ASSIGN_OR_RETURN(tails, arena_.AllocateArray<uint32_t>(nb));
  TMDB_ASSIGN_OR_RETURN(next, arena_.AllocateArray<uint32_t>(n));
  for (size_t b = 0; b < nb; ++b) heads[b] = kNil;
  bucket_mask_ = nb - 1;
  // Ascending-index tail appends keep each chain in build-input order —
  // the same per-key order the row path's bucket vectors preserve.
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = 0;
    switch (spec.kind) {
      case FastKeySpec::Kind::kI64:
        h = HashI64Key(ki[i]);
        break;
      case FastKeySpec::Kind::kF64:
        h = HashF64Key(kf[i]);
        break;
      case FastKeySpec::Kind::kStr:
        h = Mix64(kc[i]);
        break;
    }
    const uint64_t b = h & bucket_mask_;
    const uint32_t id = static_cast<uint32_t>(i);
    if (heads[b] == kNil) {
      heads[b] = id;
    } else {
      next[tails[b]] = id;
    }
    tails[b] = id;
    next[id] = kNil;
  }

  fk_i64_ = ki;
  fk_f64_ = kf;
  fk_codes_ = kc;
  heads_ = heads;
  next_ = next;
  build_rows_ = std::move(*rows);
  return true;
}

Status HashJoinOp::ProcessLeftRowFast(const Value& left_row, ExecContext* ctx,
                                      std::vector<Value>* out) const {
  const FastKeySpec& spec = *fast_spec_;
  const Value* v = left_row.FindField(spec.left_field);
  if (v == nullptr) {
    // A malformed probe row: reproduce the row path exactly — evaluating
    // the key expression raises the error the row path would raise. (If it
    // somehow succeeds, no kind-exact build key can match; fall through to
    // a miss.)
    TMDB_RETURN_IF_ERROR(
        EvalCompositeKey(left_keys_, spec_.left_var, left_row, ctx).status());
  }
  ctx->stats->hash_probes++;

  FastIter it;
  it.kind = spec.kind;
  it.rows = &build_rows_;
  it.next = next_;
  it.ki = fk_i64_;
  it.kf = fk_f64_;
  it.kc = fk_codes_;
  it.j = kNil;
  if (v != nullptr && !build_rows_.empty()) {
    switch (spec.kind) {
      case FastKeySpec::Kind::kI64:
        if (v->is_int()) {
          it.pi = v->AsInt();
          it.j = heads_[HashI64Key(it.pi) & bucket_mask_];
        }
        break;
      case FastKeySpec::Kind::kF64:
        // Non-numeric (or NaN) probe keys miss: the build side is strictly
        // Real and NaN-free, so the row path's bucket lookup misses too.
        if (v->is_numeric()) {
          const double d = v->AsNumeric();
          if (!(d != d)) {
            it.pf = d;
            it.j = heads_[HashF64Key(d) & bucket_mask_];
          }
        }
        break;
      case FastKeySpec::Kind::kStr:
        if (v->is_string()) {
          const uint32_t code = fast_dict_.Lookup(*v);
          if (code != StringDict::kNoCode) {
            it.pc = code;
            it.j = heads_[Mix64(code) & bucket_mask_];
          }
        }
        break;
    }
    it.Skip();
  }

  if (memo_enabled_ && !it.done()) {
    // `it.j` is the first build row with this exact key — a stable identity
    // for the whole group.
    const uint32_t group_id = it.j;
    auto hit = memo_.find(group_id);
    if (hit != memo_.end()) {
      ctx->stats->predicate_evals += hit->second.second;
      TMDB_ASSIGN_OR_RETURN(
          Value o, ExtendTuple(left_row, spec_.label, hit->second.first));
      out->push_back(std::move(o));
      return Status::OK();
    }
    const uint64_t evals_before = ctx->stats->predicate_evals;
    TMDB_RETURN_IF_ERROR(matcher_.Match(left_row, it, ctx, out));
    TMDB_ASSIGN_OR_RETURN(Value set, out->back().Field(spec_.label));
    memo_.emplace(group_id,
                  std::make_pair(std::move(set),
                                 ctx->stats->predicate_evals - evals_before));
    return Status::OK();
  }

  return matcher_.Match(left_row, it, ctx, out);
}

Status HashJoinOp::ParallelProbe() {
  std::vector<Value> rows;
  while (true) {
    TMDB_ASSIGN_OR_RETURN(size_t got, left_->NextBatch(&rows, kExecBatchSize));
    if (got == 0) break;
    TMDB_RETURN_IF_ERROR(build_res_.Add(got * sizeof(Value)));
  }
  std::vector<MorselRange> morsels = SplitMorsels(rows.size(),
                                                  ctx_->num_threads);
  std::vector<std::vector<Value>> outputs(morsels.size());
  TMDB_RETURN_IF_ERROR(ParallelForMorselsWithStats(
      ctx_, morsels,
      [&](size_t m, MorselRange range, ExecContext* wctx) -> Status {
        for (size_t i = range.begin; i < range.end; ++i) {
          TMDB_RETURN_IF_ERROR(PeriodicGuardCheck(wctx, i - range.begin));
          TMDB_RETURN_IF_ERROR(ProcessLeftRow(rows[i], wctx, &outputs[m]));
        }
        return Status::OK();
      }));
  // Concatenating in morsel order reproduces the serial emission order;
  // rows_emitted is counted at serve time, as on the serial path.
  size_t total = 0;
  for (const std::vector<Value>& part : outputs) total += part.size();
  TMDB_RETURN_IF_ERROR(build_res_.Add(total * sizeof(Value)));
  std::vector<Value> output;
  output.reserve(total);
  for (std::vector<Value>& part : outputs) {
    for (Value& row : part) output.push_back(std::move(row));
  }
  serve_.Load(std::move(output));
  return Status::OK();
}

Result<size_t> HashJoinOp::NextBatch(std::vector<Value>* out, size_t max) {
  auto refill = [this](std::vector<Value>* buf) -> Result<bool> {
    if (materialized_) return false;
    TMDB_ASSIGN_OR_RETURN(Value * left_row, left_in_.Read(left_.get(), ctx_));
    if (left_row == nullptr) return false;
    TMDB_RETURN_IF_ERROR(ProcessLeftRow(*left_row, ctx_, buf));
    return true;
  };
  return serve_.Serve(out, max, ctx_, refill);
}

void HashJoinOp::Close() {
  partitions_.clear();
  left_in_.Reset();
  serve_.Clear();
  materialized_ = false;
  spilled_ = false;
  fast_active_ = false;
  build_rows_.clear();
  build_rows_.shrink_to_fit();
  arena_.Reset();
  fk_i64_ = nullptr;
  fk_f64_ = nullptr;
  fk_codes_ = nullptr;
  heads_ = nullptr;
  next_ = nullptr;
  bucket_mask_ = 0;
  fast_dict_ = StringDict();
  memo_.clear();
  memo_enabled_ = false;
  build_res_.Release();
  left_->Close();
  // Usually already closed at the end of BuildTables; closing again is a
  // no-op, but matters when the build unwound mid-drain (guard trip).
  right_->Close();
}

std::string HashJoinOp::Describe() const {
  std::vector<std::string> keys;
  keys.reserve(left_keys_.size());
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    keys.push_back(left_keys_[i].ToString() + " = " +
                   right_keys_[i].ToString());
  }
  std::string out =
      StrCat("HashJoin<", JoinModeName(spec_.mode), ">[", spec_.left_var, ",",
             spec_.right_var, " : keys(", Join(keys, ", "), ")");
  if (!matcher_.pred_is_true()) {
    out += StrCat(", residual ", spec_.pred.ToString());
  }
  if (spec_.mode == JoinMode::kNestJoin) {
    out += StrCat(", G = ", spec_.func.ToString(), "; ", spec_.label);
  }
  out += "]";
  return out;
}

}  // namespace tmdb
