#ifndef TMDB_EXEC_HASH_JOIN_H_
#define TMDB_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/columnar.h"
#include "exec/join_common.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "exec/spill_util.h"
#include "values/column_store.h"

namespace tmdb {

/// Hash implementation of all join modes over equi-key predicates.
///
/// The *right* operand is always the build side. For inner joins that is
/// merely a heuristic simplification; for the nest join it is the paper's
/// correctness restriction (Section 6, "Implementation"): output must be
/// grouped by left tuples, so with a non-key join attribute only the right
/// operand may be the build table.
///
/// Every path — serial, morsel-parallel, raw-key and Grace spill — builds
/// the same table (BuildTable) and reads it through the same probe
/// (ProcessLeftRow, feeding JoinMatcher::Match). The table keeps the build
/// rows in input order with one key per row, linked into power-of-two
/// hash chains in ascending row order, so a probe sees its matches in
/// build-input order. The key is raw (i64 / f64 / string dictionary code)
/// when a FastKeySpec resolves, unless the build can spill (a memory budget
/// with ExecContext::spill set), and the composite key Value otherwise. A
/// budget without spill keeps the raw keys: a trip fails the query either
/// way, and the raw table, dictionary included, is charged to the guard
/// and charges less than the composite one.
///
/// With ExecContext::parallel_enabled(), the composite build keys and
/// their hashes are evaluated in morsels, and the probe side is probed one
/// left batch (kExecBatchSize rows) per refill, split into parallel
/// morsels, so the probe holds one batch's input and output at a time, as
/// the serial probe holds one row's. Both are bit-identical to serial
/// execution: the chains are linked serially, morsel outputs are
/// concatenated in probe order, and worker-local stats merge
/// deterministically.
///
/// When ExecContext::spill is set and the memory budget trips while the
/// build side materialises, the operator degrades to Grace-style
/// partitioned execution instead of failing (hash_join_spill.cc, over the
/// shared Grace mechanics in spill_util.h): build and probe sides partition
/// to disk on the composite key's hash, partitions
/// are processed one at a time (recursing on partitions that still exceed
/// the budget, to a bounded depth), and spilled bytes are refunded to the
/// guard. Rows that share a key always land in the same partition, so every
/// join mode — nest join grouping and dangling-row semantics included —
/// behaves exactly as in memory, and a per-left-row tag restores the
/// original output order bit for bit.
class HashJoinOp final : public PhysicalOp {
 public:
  /// `left_keys[i] = right_keys[i]` are the extracted equi-conjuncts;
  /// `spec.pred` holds only the residual predicate (True if none).
  ///
  /// `fast_keys` (from ResolveFastKeys) enables raw keys: each build key is
  /// read straight from its field, and each probe hashes its raw key
  /// instead of materialising a composite key Value. The build verifies
  /// the keys' runtime kinds (strict Int / strict non-NaN Real / strict
  /// String per the spec) and switches the table to composite keys when
  /// any key deviates, so results and stats stay bit-identical.
  HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, JoinSpec spec,
             std::vector<Expr> left_keys, std::vector<Expr> right_keys,
             std::optional<FastKeySpec> fast_keys = std::nullopt)
      : left_(std::move(left)),
        right_(std::move(right)),
        spec_(std::move(spec)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        matcher_(spec_),
        fast_spec_(std::move(fast_keys)) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Chain sentinel for Table::heads / Table::next.
  static constexpr uint32_t kNil = 0xffffffffu;

  /// The build table. Row i's key is raw[i] (kI64: the int64 bits, kF64:
  /// the double bits, kStr: a `dict` code) or keys[i] (kValue).
  struct Table {
    /// The raw kinds mirror FastKeySpec::Kind (BuildTable casts).
    enum class Kind : uint8_t { kI64, kF64, kStr, kValue };
    Kind kind = Kind::kValue;
    std::vector<Value> rows;
    std::vector<uint64_t> raw;
    std::vector<Value> keys;
    StringDict dict;
    std::vector<uint32_t> heads;
    std::vector<uint32_t> next;
    uint64_t mask = 0;
    GuardReservation res;  // key, dictionary, head and next arrays

    /// Hash of row i's key.
    uint64_t RowHash(size_t i) const;
    /// Sizes the chains for `n` rows, charging them to `res`.
    Status Reserve(size_t n);
    /// Links row i, whose key is stored, at the head of its chain. A
    /// composite key equal to an earlier row's comes to share its rep, so
    /// the table holds one key Value per distinct key, not per row.
    void Link(uint32_t i);
    /// Reverses every chain into ascending row order, the order in which a
    /// probe must meet its matches.
    void Finish();
    /// Empties the table and refunds its charge.
    void Clear();
  };
  /// Match iterator over one hash chain (defined in the .cc).
  struct ChainIter;

  /// Materialises the build side and builds table_, diverting to the
  /// spill path when the budget trips.
  Status DrainAndBuild(ExecContext* ctx);
  /// Builds table_ from `rows`, moving them in only on success: a memory
  /// trip leaves `rows` intact so the caller can divert to the spill path.
  /// (A Grace partition fills table_ record by record instead, with the
  /// same Reserve / Link / Finish.)
  Status BuildTable(ExecContext* ctx, std::vector<Value>* rows);
  /// Probes the next left batch with parallel morsels, appending its output
  /// to `out` in probe order; false at end of input.
  Result<bool> ProbeBatchParallel(std::vector<Value>* out);
  /// Appends the join output rows of one left row to `out` (all modes).
  /// `left_key` is the row's composite key when the caller already has it
  /// (a Grace partition); null means evaluate it here.
  Status ProcessLeftRow(const Value& left_row, const Value* left_key,
                        ExecContext* ctx, std::vector<Value>* out) const;

  // --- Grace spill path (hash_join_spill.cc) ---

  /// Diverts the build to disk: partitions the salvaged (and any remaining)
  /// build rows plus the whole probe side, then processes partitions one at
  /// a time into serve_. `right_open` says the build input still has rows.
  Status SpillBuildAndProbe(ExecContext* ctx, std::vector<Value> build_rows,
                            bool right_open);
  /// Joins each co-partitioned pair of files of `build` and `probe`.
  Status JoinSpillFans(ExecContext* ctx, const SpillFan& build,
                       const SpillFan& probe, TaggedRows* out);
  /// Loads one partition's build file into table_ and probes its probe
  /// file, appending (left-row tag, output row) pairs. Repartitions both
  /// files one level deeper when the partition alone exceeds the budget.
  Status ProcessSpillPartition(ExecContext* ctx, const std::string& build_path,
                               uint64_t build_records,
                               const std::string& probe_path, int depth,
                               TaggedRows* out);

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  JoinSpec spec_;
  std::vector<Expr> left_keys_;
  std::vector<Expr> right_keys_;
  JoinMatcher matcher_;
  std::optional<FastKeySpec> fast_spec_;
  ExecContext* ctx_ = nullptr;

  Table table_;

  // Probe side, one left row (serial) or batch (morsels) per refill, and
  // the output handed out by NextBatch.
  BatchReader left_in_;
  JoinServe serve_;

  // True once serve_ holds the rest of the output: the Grace spill path
  // loaded all of it at Open, or the morsel probe reached the end of the
  // left input (so later refills stop without another pull).
  bool probe_done_ = false;

  // Bytes charged to the guard for build/probe materialisation.
  GuardReservation build_res_;

  // Nest-join group memo: first-matching-build-row id → (group set, match
  // count). Only enabled with raw keys, no memory budget (its groups are
  // uncharged), serial, literal-true pred and identity G, so it cannot race
  // or shift budget behaviour; hits add the recorded match count to
  // predicate_evals, mirroring re-evaluation.
  bool memo_enabled_ = false;
  mutable std::unordered_map<uint32_t, std::pair<Value, uint64_t>> memo_;
};

}  // namespace tmdb

#endif  // TMDB_EXEC_HASH_JOIN_H_
