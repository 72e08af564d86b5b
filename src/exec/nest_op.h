#ifndef TMDB_EXEC_NEST_OP_H_
#define TMDB_EXEC_NEST_OP_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "exec/spill_util.h"
#include "expr/expr.h"
#include "values/value.h"

namespace tmdb {

/// ν (and the ν* variant): hash-groups child rows by `group_attrs`,
/// emitting one tuple per group — the key attributes extended with
/// (label = { elem(var := row) | row ∈ group }).
///
/// With null_group_to_empty (ν*, after Scholl), elements that are NULL or
/// tuples consisting solely of NULLs are dropped, so groups that exist only
/// because of outerjoin padding become the empty set. This is what makes
/// the Ganski–Wong outerjoin strategy equivalent to the nest join (paper,
/// Section 6, "Algebraic Properties").
///
/// Every path groups through one Grouper, fed (tag, key, elem) in input
/// order, where the tag is the row's input index: the serial path over the
/// drained rows, each parallel partition, and each spill partition.
///
/// With ExecContext::parallel_enabled(), grouping is hash-partitioned:
/// workers evaluate keys/elements over morsels, then each of `num_threads`
/// workers groups one disjoint partition; groups are merged by
/// first-occurrence row index, reproducing the serial output (group
/// insertion order) exactly.
///
/// Memory-bounded execution: a spill-eligible memory trip during the drain
/// or the grouping (serial and parallel paths alike) degrades to
/// Grace-style partitioned grouping on disk (nest_op_spill.cc, over the
/// shared Grace mechanics in spill_util.h) — tag|key|elem records are
/// hash-partitioned by group key, each partition is grouped in read order
/// (= input order), a partition whose group state still overflows
/// repartitions recursively, and the collected group tuples are
/// stable-sorted by first-occurrence tag, reproducing the serial group
/// insertion order bit for bit.
class NestOp final : public PhysicalOp {
 public:
  NestOp(PhysicalOpPtr child, std::vector<std::string> group_attrs,
         std::string var, Expr elem, std::string label,
         bool null_group_to_empty)
      : child_(std::move(child)),
        group_attrs_(std::move(group_attrs)),
        var_(std::move(var)),
        elem_(std::move(elem)),
        label_(std::move(label)),
        null_group_to_empty_(null_group_to_empty) {}

  Status Open(ExecContext* ctx) override;
  Result<size_t> NextBatch(std::vector<Value>* out, size_t max) override;
  void Close() override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> children() const override {
    return {child_.get()};
  }

 private:
  /// Both grouping paths read `*rows` without disturbing it, so a memory
  /// trip mid-grouping leaves the caller's rows intact for the spill path.
  Status OpenSerial(std::vector<Value>* rows);
  Status OpenParallel(std::vector<Value>* rows);

  /// Spill path (nest_op_spill.cc): partitions `rows` plus the rest of the
  /// child (when !drained) to disk and groups partition by partition.
  Status SpillGroup(std::vector<Value> rows, bool drained);
  /// Groups each partition of `fan` into (first tag, group tuple) pairs.
  Status GroupSpillFan(const SpillFan& fan, TaggedRows* out);
  /// Groups one partition file, repartitioning it one level deeper when
  /// its group state overflows the budget.
  Status ProcessNestPartition(const std::string& path, int depth,
                              TaggedRows* out);

  /// The row's group key: its projection onto group_attrs_.
  Result<Value> GroupKey(const Value& row) const;
  /// The row's element image, elem(var := row).
  Result<Value> ElemOf(const Value& row, const ExecContext* ctx) const;

  /// True for the values ν* discards: NULL itself, or a tuple whose
  /// attributes are all NULL (the image of an outerjoin-padded row).
  static bool IsNullPadding(const Value& v);

  /// ν's group index: groups in first-occurrence order, each with its key,
  /// its elements in arrival order (ν* drops null padding), and the tag of
  /// its first row.
  class Grouper {
   public:
    explicit Grouper(const NestOp& op, size_t expected_rows = 0);
    /// Adds one row. Moves from `key` only when it opens a group and from
    /// `elem` only when the group keeps it, so what the grouper does not
    /// keep stays where the caller holds it.
    void Add(uint64_t tag, Value& key, Value& elem);
    size_t size() const { return keys_.size(); }
    uint64_t first_tag(size_t g) const { return first_tag_[g]; }
    /// Group g's output tuple, key extended with (label = {elements});
    /// moves the elements out.
    Result<Value> Take(size_t g);

   private:
    const NestOp& op_;
    std::unordered_map<Value, size_t, ValueHash, ValueEq> index_;
    std::vector<Value> keys_;
    std::vector<std::vector<Value>> groups_;
    std::vector<uint64_t> first_tag_;
  };

  PhysicalOpPtr child_;
  std::vector<std::string> group_attrs_;
  std::string var_;
  Expr elem_;
  std::string label_;
  bool null_group_to_empty_;

  ExecContext* ctx_ = nullptr;
  std::vector<Value> output_;  // materialised at Open
  size_t pos_ = 0;
  GuardReservation build_res_;  // bytes charged for materialised input/output
};

}  // namespace tmdb

#endif  // TMDB_EXEC_NEST_OP_H_
