#ifndef TMDB_EXEC_SPILL_UTIL_H_
#define TMDB_EXEC_SPILL_UTIL_H_

// The Grace-partitioning mechanics, written once for the two operators that
// hash-partition state to disk: the hash join (hash_join_spill.cc) and ν/ν*
// (nest_op_spill.cc). A spill writes rows out through a SpillFan, reads a
// partition back with ScanSpillFile, splits an overflowing partition one
// level deeper with RepartitionSpillFile, and puts the collected output
// back in input order with RestoreTagOrder.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"
#include "exec/exec_context.h"
#include "exec/physical_op.h"
#include "exec/query_guard.h"
#include "spill/partition.h"
#include "spill/spill_file.h"
#include "spill/spill_manager.h"

namespace tmdb {

/// True when a failed status is a memory-budget trip that disk can relieve:
/// spill is configured and the guard recorded the trip kind as memory at
/// trip time. Only a *memory* trip is relieved by disk; max_rows also
/// surfaces as kResourceExhausted but bounds work, not residency — and a
/// live memory_over_budget() reading here would already be stale, since
/// unwinding to the catch site frees scratch. Shared by every operator that
/// degrades to disk (hash/nest join, merge join, ν/ν* grouping, the subplan
/// cache's insertion path).
inline bool SpillEligibleTrip(const ExecContext* ctx, const Status& s) {
  return s.code() == StatusCode::kResourceExhausted && ctx != nullptr &&
         ctx->spill != nullptr && ctx->guard != nullptr &&
         ctx->guard->last_trip_was_memory();
}

/// Records that a partition at recursion `depth` (0 = the first write-out)
/// is being processed.
inline void NoteSpillDepth(ExecContext* ctx, int depth) {
  ctx->stats->spill_max_depth = std::max<uint64_t>(
      ctx->stats->spill_max_depth, static_cast<uint64_t>(depth) + 1);
}

/// kSpillFanout spill files for one side of one recursion level, named
/// "<prefix>-d<level>-p<p>". A record goes to the partition its key hash
/// maps to at this level (SpillPartitionOf), so rows that share a key
/// always land in the same file.
class SpillFan {
 public:
  /// Creates and opens the files. `counts_partitions` says whether Finish
  /// adds kSpillFanout to spill_partitions (a hash join counts a build and
  /// probe file pair once, on its build fan).
  Status Open(ExecContext* ctx, std::string_view prefix, int level,
              bool counts_partitions = true);
  /// Appends `record` to the partition of `key_hash`, checkpointing the
  /// guard when the append flushed a block.
  Status Append(uint64_t key_hash, std::string_view record);
  /// Flushes and closes every file, freeing its block buffer, and adds the
  /// bytes written to spill_bytes_written.
  Status Finish();

  int level() const { return level_; }
  const std::string& path(size_t p) const { return paths_[p]; }
  uint64_t records(size_t p) const { return records_[p]; }

 private:
  ExecContext* ctx_ = nullptr;
  int level_ = 0;
  bool counts_partitions_ = true;
  std::array<std::string, kSpillFanout> paths_;
  std::array<uint64_t, kSpillFanout> records_{};
  std::array<std::unique_ptr<SpillWriter>, kSpillFanout> writers_;
};

/// Writes `rows`, then (when `source` is non-null) the rest of `source`
/// batch by batch, through `write(Value row)` — the write-out of every
/// operator that diverts to disk mid-drain (the Grace paths here, the merge
/// join's external sort). Each row is moved out as it
/// goes, so memory falls during the write-out. The guard checkpoints every
/// kExecBatchSize salvaged rows and before each source batch; source rows
/// count in rows_built when `count_built`.
template <typename Write>
Status SpillRows(ExecContext* ctx, std::vector<Value> rows, PhysicalOp* source,
                 bool count_built, Write&& write) {
  for (size_t i = 0; i < rows.size(); ++i) {
    TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(ctx, i));
    TMDB_RETURN_IF_ERROR(write(std::exchange(rows[i], Value())));
  }
  rows = std::vector<Value>();
  if (source == nullptr) return Status::OK();
  std::vector<Value> batch;
  while (true) {
    TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
    batch.clear();
    TMDB_ASSIGN_OR_RETURN(size_t got, source->NextBatch(&batch, kExecBatchSize));
    if (got == 0) return Status::OK();
    if (count_built) ctx->stats->rows_built += got;
    for (Value& row : batch) {
      TMDB_RETURN_IF_ERROR(write(std::exchange(row, Value())));
    }
  }
}

/// Reads the spill file at `path` record by record into `fn(record)`. The
/// guard checkpoints at each block boundary and every kExecBatchSize
/// records; the bytes read count in spill_bytes_read, and the file is
/// closed on every exit.
template <typename Fn>
Status ScanSpillFile(ExecContext* ctx, const std::string& path, Fn&& fn) {
  SpillReader reader(path, ctx->spill->injector());
  Status scanned = [&]() -> Status {
    TMDB_RETURN_IF_ERROR(reader.Open());
    for (size_t i = 0;; ++i) {
      std::string_view rec;
      bool eof = false;
      TMDB_RETURN_IF_ERROR(reader.Next(&rec, &eof));
      if (eof) return Status::OK();
      if (reader.TookBlockBoundary()) TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
      TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(ctx, i));
      TMDB_RETURN_IF_ERROR(fn(rec));
    }
  }();
  ctx->stats->spill_bytes_read += reader.stats().bytes;
  reader.Close();
  return scanned;
}

/// Splits the spill file `src` into `fan` (opened, one level below `src`)
/// with the memory comparison suspended, then finishes `fan` and removes
/// `src`. Records are routed on their key — the first encoded value, after
/// a varint tag when `tagged` — and move verbatim, so a row is never
/// re-encoded and read order stays write order all the way down.
Status RepartitionSpillFile(ExecContext* ctx, const std::string& src,
                            bool tagged, SpillFan* fan);

/// (tag, row) pairs collected partition by partition, where a tag is the
/// input index the row's output belongs at.
using TaggedRows = std::vector<std::pair<uint64_t, Value>>;

/// The rows of `tagged` in tag order; rows that share a tag keep their
/// collection order.
std::vector<Value> RestoreTagOrder(TaggedRows tagged);

}  // namespace tmdb

#endif  // TMDB_EXEC_SPILL_UTIL_H_
