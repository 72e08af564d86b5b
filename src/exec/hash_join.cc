#include "exec/hash_join.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "base/string_util.h"
#include "exec/parallel_util.h"
#include "values/value_ops.h"

namespace tmdb {

void HashJoinOp::Table::Clear() {
  res.Release();
  *this = Table();
}

Status HashJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  table_.Clear();
  left_in_.Reset();
  serve_.Clear();
  probe_done_ = false;
  build_res_.Reset(ctx->guard);
  memo_.clear();
  memo_enabled_ = false;

  TMDB_RETURN_IF_ERROR(DrainAndBuild(ctx));
  // Nest-join group memo: re-probing an already-grouped key hands back the
  // same set value. Raw keys only (the group id is a raw chain position),
  // serial only (no shared mutation under morsels) and unbudgeted only: the
  // memoised groups are uncharged memory, which must not shift a budgeted
  // run's trips.
  memo_enabled_ = table_.kind != Table::Kind::kValue && !Budgeted(ctx) &&
                  spec_.mode == JoinMode::kNestJoin &&
                  matcher_.pred_is_true() && matcher_.func_is_right_ident() &&
                  !ctx->parallel_enabled();
  // The spill path consumed both inputs and filled serve_ already.
  if (probe_done_) return Status::OK();
  return left_->Open(ctx);
}

Status HashJoinOp::DrainAndBuild(ExecContext* ctx) {
  // Build phase: materialise the right input, then hash it.
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
    if (!SpillEligibleTrip(ctx, drained)) {
      right_->Close();
      return drained;
    }
    // The rows drained so far are intact; divert to disk and keep draining.
    return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/true);
  }
  right_->Close();

  Status built = BuildTable(ctx, &rows);
  if (!built.ok()) {
    table_.Clear();
    if (!SpillEligibleTrip(ctx, built)) return built;
    // A failed build never disturbs `rows`, so they are salvageable here
    // even though the build tripped mid-way.
    return SpillBuildAndProbe(ctx, std::move(rows), /*right_open=*/false);
  }
  return Status::OK();
}

uint64_t HashJoinOp::Table::RowHash(size_t i) const {
  switch (kind) {
    case Kind::kI64:
      return HashI64Key(static_cast<int64_t>(raw[i]));
    case Kind::kF64:
      return HashF64Key(std::bit_cast<double>(raw[i]));
    case Kind::kStr:
      return Mix64(raw[i]);
    case Kind::kValue:
      return keys[i].Hash();
  }
  return 0;
}

Status HashJoinOp::BuildTable(ExecContext* ctx, std::vector<Value>* rows) {
  Table& t = table_;
  t.res.Reset(ctx->guard);
  const size_t n = rows->size();

  // Raw keys stand down where the build can spill (a budget with spill
  // on): their smaller table can pass a build that composite keys would
  // have spilled, moving the trip to the probe, which cannot spill.
  // Without spill a trip fails the query wherever it happens, and the raw
  // table charges less than the composite one at every checkpoint, so a
  // budget alone keeps the raw keys.
  const bool spillable = Budgeted(ctx) && ctx->spill != nullptr;
  if (fast_spec_.has_value() && !spillable) {
    const FastKeySpec& spec = *fast_spec_;
    TMDB_RETURN_IF_ERROR(t.res.Add(n * sizeof(uint64_t)));
    t.raw.resize(n);
    bool conforms = true;
    for (size_t i = 0; i < n && conforms; ++i) {
      TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(ctx, i));
      const Value* v = (*rows)[i].FindField(spec.right_field);
      switch (spec.kind) {
        case FastKeySpec::Kind::kI64:
          conforms = v != nullptr && v->is_int();
          if (conforms) t.raw[i] = static_cast<uint64_t>(v->AsInt());
          break;
        case FastKeySpec::Kind::kF64:
          // Strictly Real and NaN-free: ResolveFastKeys's soundness argument
          // needs runtime-Real build keys, and NaN's tri-state "equal to
          // everything" cannot live in a hash table.
          conforms = v != nullptr && v->is_real() &&
                     v->AsNumeric() == v->AsNumeric();
          if (conforms) t.raw[i] = std::bit_cast<uint64_t>(v->AsNumeric());
          break;
        case FastKeySpec::Kind::kStr:
          conforms = v != nullptr && v->is_string();
          if (conforms) {
            const size_t distinct = t.dict.size();
            t.raw[i] = t.dict.Intern(*v);
            if (t.dict.size() != distinct) {
              TMDB_RETURN_IF_ERROR(t.res.Charge(StringDict::kEntryBytes));
            }
          }
          break;
      }
    }
    if (conforms) {
      static_assert(static_cast<int>(Table::Kind::kI64) ==
                        static_cast<int>(FastKeySpec::Kind::kI64) &&
                    static_cast<int>(Table::Kind::kF64) ==
                        static_cast<int>(FastKeySpec::Kind::kF64) &&
                    static_cast<int>(Table::Kind::kStr) ==
                        static_cast<int>(FastKeySpec::Kind::kStr));
      t.kind = static_cast<Table::Kind>(spec.kind);
    } else {
      // A build key deviated from the static kind contract (NULL, coerced
      // Int in a Real field, NaN): composite keys handle every kind
      // combination.
      t.res.Shrink(n * sizeof(uint64_t) +
                   t.dict.size() * StringDict::kEntryBytes);
      t.raw = std::vector<uint64_t>();
      t.dict = StringDict();
    }
  }

  if (t.kind == Table::Kind::kValue) {
    TMDB_RETURN_IF_ERROR(t.res.Add(n * sizeof(Value)));
    t.keys.resize(n);
    // Each key's hash is memoised in its rep here, so the serial link below
    // only reads it.
    auto eval_keys = [&](MorselRange range, ExecContext* c) -> Status {
      for (size_t i = range.begin; i < range.end; ++i) {
        TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(c, i - range.begin));
        TMDB_ASSIGN_OR_RETURN(t.keys[i],
                              EvalCompositeKey(right_keys_, spec_.right_var,
                                               (*rows)[i], c));
        t.keys[i].Hash();
      }
      return Status::OK();
    };
    if (ctx->parallel_enabled()) {
      TMDB_RETURN_IF_ERROR(ParallelForMorselsWithStats(
          ctx, SplitMorsels(n, ctx->num_threads),
          [&](size_t, MorselRange range, ExecContext* wctx) {
            return eval_keys(range, wctx);
          }));
    } else {
      TMDB_RETURN_IF_ERROR(eval_keys({0, n}, ctx));
    }
  }

  TMDB_RETURN_IF_ERROR(t.Reserve(n));
  for (size_t i = 0; i < n; ++i) {
    TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(ctx, i));
    t.Link(static_cast<uint32_t>(i));
  }
  t.Finish();
  t.rows = std::move(*rows);
  return Status::OK();
}

Status HashJoinOp::Table::Reserve(size_t n) {
  if (n >= kNil) {
    return Status::ResourceExhausted("hash join build side exceeds 2^32 rows");
  }
  size_t nb = 8;
  while (nb < 2 * n) nb <<= 1;
  TMDB_RETURN_IF_ERROR(res.Add((nb + n) * sizeof(uint32_t)));
  heads.assign(nb, kNil);
  next.resize(n);
  mask = nb - 1;
  return Status::OK();
}

void HashJoinOp::Table::Link(uint32_t i) {
  uint32_t& head = heads[RowHash(i) & mask];
  if (kind == Kind::kValue) {
    for (uint32_t j = head; j != kNil; j = next[j]) {
      if (keys[j].Equals(keys[i])) {
        keys[i] = keys[j];
        break;
      }
    }
  }
  next[i] = head;
  head = i;
}

void HashJoinOp::Table::Finish() {
  for (uint32_t& head : heads) {
    uint32_t reversed = kNil;
    for (uint32_t j = head; j != kNil;) {
      const uint32_t following = next[j];
      next[j] = reversed;
      reversed = j;
      j = following;
    }
    head = reversed;
  }
}

/// Match iterator over one hash chain: walks `next` links from a bucket
/// head, skipping rows whose key differs from the probe key (a chain mixes
/// every key that shares its bucket).
struct HashJoinOp::ChainIter {
  const Table* t = nullptr;
  uint64_t raw = 0;              // probe key, raw kinds
  const Value* key = nullptr;    // probe key, kValue
  uint32_t j = kNil;

  bool KeyEq(uint32_t x) const {
    switch (t->kind) {
      case Table::Kind::kI64:
      case Table::Kind::kStr:
        return t->raw[x] == raw;
      case Table::Kind::kF64:
        return F64KeyEq(std::bit_cast<double>(t->raw[x]),
                        std::bit_cast<double>(raw));
      case Table::Kind::kValue:
        return t->keys[x].Equals(*key);
    }
    return false;
  }
  void Skip() {
    while (j != kNil && !KeyEq(j)) j = t->next[j];
  }
  bool done() const { return j == kNil; }
  const Value& row() const { return t->rows[j]; }
  void advance() {
    j = t->next[j];
    Skip();
  }
};

Status HashJoinOp::ProcessLeftRow(const Value& left_row, const Value* left_key,
                                  ExecContext* ctx,
                                  std::vector<Value>* out) const {
  const Table& t = table_;
  ChainIter it;
  it.t = &t;
  // Not a plain Value: a default Value bumps the shared NULL rep's count,
  // which morsel workers probing raw keys would contend on.
  std::optional<Value> key;
  if (t.kind == Table::Kind::kValue) {
    if (left_key == nullptr) {
      TMDB_ASSIGN_OR_RETURN(key, EvalCompositeKey(left_keys_, spec_.left_var,
                                                  left_row, ctx));
      left_key = &*key;
    }
    it.key = left_key;
    it.j = t.heads[left_key->Hash() & t.mask];
  } else if (const Value* v = left_row.FindField(fast_spec_->left_field);
             v == nullptr) {
    // A malformed probe row: reproduce the composite key exactly —
    // evaluating the key expression raises the error it would raise. (If
    // it somehow succeeds, no kind-exact build key can match; a miss.)
    TMDB_RETURN_IF_ERROR(
        EvalCompositeKey(left_keys_, spec_.left_var, left_row, ctx).status());
  } else {
    switch (t.kind) {
      case Table::Kind::kI64:
        if (v->is_int()) {
          it.raw = static_cast<uint64_t>(v->AsInt());
          it.j = t.heads[t.mask & HashI64Key(v->AsInt())];
        }
        break;
      case Table::Kind::kF64:
        // Non-numeric (or NaN) probe keys miss: the build side is strictly
        // Real and NaN-free, so no composite key would match either.
        if (v->is_numeric() && v->AsNumeric() == v->AsNumeric()) {
          it.raw = std::bit_cast<uint64_t>(v->AsNumeric());
          it.j = t.heads[t.mask & HashF64Key(v->AsNumeric())];
        }
        break;
      case Table::Kind::kStr:
        if (v->is_string()) {
          const uint32_t code = t.dict.Lookup(*v);
          if (code != StringDict::kNoCode) {
            it.raw = code;
            it.j = t.heads[t.mask & Mix64(code)];
          }
        }
        break;
      case Table::Kind::kValue:
        break;
    }
  }
  ctx->stats->hash_probes++;
  it.Skip();

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

Result<bool> HashJoinOp::ProbeBatchParallel(std::vector<Value>* out) {
  // Subplan-bearing probe expressions are handled too: each worker gets its
  // own forked subplan evaluator, all sharing the run's memo cache.
  std::vector<Value> rows;
  TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
  TMDB_ASSIGN_OR_RETURN(size_t got, left_->NextBatch(&rows, kExecBatchSize));
  if (got == 0) {
    probe_done_ = true;
    return false;
  }
  std::vector<MorselRange> morsels = SplitMorsels(got, ctx_->num_threads);
  std::vector<std::vector<Value>> outputs(morsels.size());
  TMDB_RETURN_IF_ERROR(ParallelForMorselsWithStats(
      ctx_, morsels,
      [&](size_t m, MorselRange range, ExecContext* wctx) -> Status {
        for (size_t i = range.begin; i < range.end; ++i) {
          TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(wctx, i - range.begin));
          TMDB_RETURN_IF_ERROR(
              ProcessLeftRow(rows[i], nullptr, wctx, &outputs[m]));
        }
        return Status::OK();
      }));
  // Concatenating in morsel order reproduces the serial emission order;
  // rows_emitted is counted at serve time, as on the serial path.
  for (std::vector<Value>& part : outputs) {
    out->insert(out->end(), std::make_move_iterator(part.begin()),
                std::make_move_iterator(part.end()));
  }
  return true;
}

Result<size_t> HashJoinOp::NextBatch(std::vector<Value>* out, size_t max) {
  auto refill = [this](std::vector<Value>* buf) -> Result<bool> {
    if (probe_done_) return false;
    if (ctx_->parallel_enabled()) return ProbeBatchParallel(buf);
    TMDB_ASSIGN_OR_RETURN(Value * left_row, left_in_.Read(left_.get(), ctx_));
    if (left_row == nullptr) return false;
    TMDB_RETURN_IF_ERROR(ProcessLeftRow(*left_row, nullptr, ctx_, buf));
    return true;
  };
  return serve_.Serve(out, max, ctx_, refill);
}

void HashJoinOp::Close() {
  table_.Clear();
  left_in_.Reset();
  serve_.Clear();
  probe_done_ = false;
  memo_.clear();
  memo_enabled_ = false;
  build_res_.Release();
  left_->Close();
  // Usually already closed at the end of DrainAndBuild; closing again is a
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
