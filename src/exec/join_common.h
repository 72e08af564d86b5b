#ifndef TMDB_EXEC_JOIN_COMMON_H_
#define TMDB_EXEC_JOIN_COMMON_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "exec/exec_context.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "expr/expr.h"
#include "types/type.h"
#include "values/value.h"
#include "values/value_ops.h"

namespace tmdb {

/// The join flavours every join implementation supports. kNestJoin is the
/// paper's operator: one output tuple per left row, extended with the set of
/// G-images of its matches (dangling rows get ∅).
enum class JoinMode {
  kInner,
  kSemi,
  kAnti,
  kLeftOuter,
  kNestJoin,
};

std::string JoinModeName(JoinMode mode);

/// Parameters shared by all join implementations.
struct JoinSpec {
  JoinMode mode = JoinMode::kInner;
  std::string left_var;
  std::string right_var;
  /// Full predicate for nested-loop joins; *residual* predicate (after key
  /// extraction) for hash and merge joins. Expr::True() if none.
  Expr pred;
  /// NestJoin G function (over left_var, right_var). Unused otherwise.
  Expr func;
  /// NestJoin grouped-attribute label. Unused otherwise.
  std::string label;
  /// Row type of the right input; needed by kLeftOuter to pad dangling
  /// tuples even when the right input is empty.
  Type right_type;
};

/// One equi-key pair: left expression over left_var, right expression over
/// right_var, such that the conjunct `left = right` held in the original
/// predicate. Hash and merge joins match on the vector of all keys.
struct EquiKey {
  Expr left;
  Expr right;
};

/// Evaluates the composite key [k1, ..., kn] of `row` bound to `var`.
/// Returned as a list value so it hashes/compares as one unit.
Result<Value> EvalCompositeKey(const std::vector<Expr>& keys,
                               const std::string& var, const Value& row,
                               ExecContext* ctx);

/// Evaluates `spec.pred` with both variables bound.
Result<bool> EvalJoinPred(const JoinSpec& spec, const Value& left_row,
                          const Value& right_row, ExecContext* ctx);

/// Evaluates `spec.func` (the nest join G) with both variables bound.
Result<Value> EvalJoinFunc(const JoinSpec& spec, const Value& left_row,
                           const Value& right_row, ExecContext* ctx);

/// Match iterator over a row vector: a merge join's equal-key run, the
/// nested-loop join's whole right input.
struct RowVecIter {
  const std::vector<Value>* rows;
  size_t i = 0;

  bool done() const { return i >= rows->size(); }
  const Value& row() const { return (*rows)[i]; }
  void advance() { ++i; }
};

/// The per-mode match rules, written once for every join implementation
/// and every execution path (serial, morsel, raw-key, Grace spill). Match
/// takes one left row and an iterator over its candidate right rows and
/// appends that left row's complete output:
///
///   kInner / kLeftOuter  every matching concatenation; an outer join pads
///                        a left row without matches with NULLs
///   kSemi / kAnti        the left row itself if it has a match (semi) or
///                        none (anti); the scan stops at the first match
///   kNestJoin            one tuple extending the left row with the set of
///                        G-images of its matches (∅ when dangling)
///
/// Iterators expose done() / row() / advance() (RowVecIter, or the hash
/// join's chain walk).
class JoinMatcher {
 public:
  /// Decides the shortcuts for `spec`, which must outlive the matcher. A
  /// literal-true predicate still counts one predicate_eval per considered
  /// pair, and an identity G (= right_var) hands back the right row — both
  /// exactly what the evaluator would produce. `checkpoint_pairs` adds a
  /// guard checkpoint every kExecBatchSize predicate evaluations, for
  /// quadratic inner scans.
  explicit JoinMatcher(const JoinSpec& spec, bool checkpoint_pairs = false);

  template <typename Iter>
  Status Match(const Value& left_row, Iter it, ExecContext* ctx,
               std::vector<Value>* out) const;

  bool pred_is_true() const { return pred_is_true_; }
  bool func_is_right_ident() const { return func_is_right_ident_; }

 private:
  const JoinSpec& spec_;
  bool checkpoint_pairs_;
  bool pred_is_true_;
  bool func_is_right_ident_;
};

template <typename Iter>
Status JoinMatcher::Match(const Value& left_row, Iter it, ExecContext* ctx,
                          std::vector<Value>* out) const {
  auto eval_pred = [&](const Value& right_row) -> Result<bool> {
    if (checkpoint_pairs_) {
      TMDB_RETURN_IF_ERROR(
          PeriodicCheckGuard(ctx, ctx->stats->predicate_evals));
    }
    if (pred_is_true_) {
      ctx->stats->predicate_evals++;
      return true;
    }
    return EvalJoinPred(spec_, left_row, right_row, ctx);
  };
  switch (spec_.mode) {
    case JoinMode::kInner:
    case JoinMode::kLeftOuter: {
      bool matched = false;
      for (; !it.done(); it.advance()) {
        const Value& right_row = it.row();
        TMDB_ASSIGN_OR_RETURN(bool match, eval_pred(right_row));
        if (match) {
          matched = true;
          TMDB_ASSIGN_OR_RETURN(Value o, ConcatTuples(left_row, right_row));
          out->push_back(std::move(o));
        }
      }
      if (spec_.mode == JoinMode::kLeftOuter && !matched) {
        // Pad with NULLs in the right attribute positions — the relational
        // fix that avoids losing dangling tuples.
        TMDB_ASSIGN_OR_RETURN(
            Value o, ConcatTuples(left_row, NullTupleOfType(spec_.right_type)));
        out->push_back(std::move(o));
      }
      return Status::OK();
    }
    case JoinMode::kSemi:
    case JoinMode::kAnti: {
      bool matched = false;
      for (; !it.done(); it.advance()) {
        TMDB_ASSIGN_OR_RETURN(bool match, eval_pred(it.row()));
        if (match) {
          matched = true;
          break;
        }
      }
      if (matched == (spec_.mode == JoinMode::kSemi)) out->push_back(left_row);
      return Status::OK();
    }
    case JoinMode::kNestJoin: {
      // An output tuple can be produced only once the entire match set is
      // known (paper, Section 6).
      std::vector<Value> group;
      for (; !it.done(); it.advance()) {
        const Value& right_row = it.row();
        TMDB_ASSIGN_OR_RETURN(bool match, eval_pred(right_row));
        if (!match) continue;
        if (func_is_right_ident_) {
          group.push_back(right_row);
        } else {
          TMDB_ASSIGN_OR_RETURN(Value g,
                                EvalJoinFunc(spec_, left_row, right_row, ctx));
          group.push_back(std::move(g));
        }
      }
      TMDB_ASSIGN_OR_RETURN(Value o, ExtendTuple(left_row, spec_.label,
                                                 Value::Set(std::move(group))));
      out->push_back(std::move(o));
      return Status::OK();
    }
  }
  return Status::Internal("unhandled join mode");
}

/// The output side of every join's NextBatch. A refill appends one left
/// row's complete output (JoinMatcher::Match), and Serve hands buffered
/// rows out across calls, so a caller may drain at any `max`. The buffer
/// holds at most one left row's output — except after Load, which the
/// materialising paths (morsel probe, Grace spill) use for their whole
/// output.
class JoinServe {
 public:
  void Clear() {
    rows_.clear();
    pos_ = 0;
  }
  /// Replaces the buffer with a fully materialised output.
  void Load(std::vector<Value> rows) {
    rows_ = std::move(rows);
    pos_ = 0;
  }

  /// Moves up to `max` rows to `out`, calling `refill(&buffer)` whenever the
  /// buffer runs dry; refill returns false at end of input. Counts the
  /// rows served in rows_emitted and returns how many; 0 means end of
  /// stream.
  template <typename Refill>
  Result<size_t> Serve(std::vector<Value>* out, size_t max, ExecContext* ctx,
                       Refill refill);

 private:
  std::vector<Value> rows_;
  size_t pos_ = 0;
};

template <typename Refill>
Result<size_t> JoinServe::Serve(std::vector<Value>* out, size_t max,
                                ExecContext* ctx, Refill refill) {
  TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
  size_t served = 0;
  while (served < max) {
    if (pos_ == rows_.size()) {
      Clear();
      TMDB_ASSIGN_OR_RETURN(bool more, refill(&rows_));
      if (!more) break;
      continue;
    }
    const size_t take = std::min(max - served, rows_.size() - pos_);
    auto first = rows_.begin() + static_cast<ptrdiff_t>(pos_);
    out->insert(out->end(), std::make_move_iterator(first),
                std::make_move_iterator(first + static_cast<ptrdiff_t>(take)));
    pos_ += take;
    served += take;
  }
  ctx->stats->rows_emitted += served;
  return served;
}

}  // namespace tmdb

#endif  // TMDB_EXEC_JOIN_COMMON_H_
