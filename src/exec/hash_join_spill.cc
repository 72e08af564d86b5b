// Grace-style spill path of HashJoinOp (all join modes, nest join
// included). Engaged by Open/DrainAndBuild when a memory-budget trip is
// spill-eligible; see the class comment in hash_join.h for the invariants
// (co-partitioning of equal keys, tag-restored output order, guard refund).
// The file mechanics live in spill_util.h.
//
// Build records are key|row; probe records are tag|key|row, the tag being
// the left row's input index.

#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "exec/hash_join.h"
#include "spill/value_codec.h"

namespace tmdb {

Status HashJoinOp::SpillBuildAndProbe(ExecContext* ctx,
                                      std::vector<Value> build_rows,
                                      bool right_open) {
  probe_done_ = true;

  // Everything the reservation covered either moves to disk below or is
  // freed as it goes — refund it all so the guard's accounting tracks what
  // is actually resident. (Writer block buffers are small and bounded:
  // fanout × block_bytes per fan, freed as each fan finishes.)
  build_res_.Release();

  SpillFan build;
  SpillFan probe;
  {
    // Write-out sheds memory; suspend only the memory comparison (cancel,
    // deadline, max_rows, and injected faults stay live — see QueryGuard).
    MemoryCheckSuspension suspend(ctx->guard);
    std::string scratch;

    TMDB_RETURN_IF_ERROR(build.Open(ctx, "hj-build", /*level=*/0));
    TMDB_RETURN_IF_ERROR(SpillRows(
        ctx, std::move(build_rows), right_open ? right_.get() : nullptr,
        /*count_built=*/true, [&](Value row) -> Status {
          TMDB_ASSIGN_OR_RETURN(Value key, EvalCompositeKey(right_keys_,
                                                            spec_.right_var,
                                                            row, ctx));
          scratch.clear();
          EncodeValue(key, &scratch);
          EncodeValue(row, &scratch);
          return build.Append(key.Hash(), scratch);
        }));
    right_->Close();
    TMDB_RETURN_IF_ERROR(build.Finish());

    // The probe side, co-partitioned on the same hash.
    TMDB_RETURN_IF_ERROR(left_->Open(ctx));
    TMDB_RETURN_IF_ERROR(
        probe.Open(ctx, "hj-probe", /*level=*/0, /*counts_partitions=*/false));
    uint64_t tag = 0;
    TMDB_RETURN_IF_ERROR(SpillRows(
        ctx, {}, left_.get(), /*count_built=*/false, [&](Value row) -> Status {
          TMDB_ASSIGN_OR_RETURN(Value key, EvalCompositeKey(left_keys_,
                                                            spec_.left_var,
                                                            row, ctx));
          scratch.clear();
          PutVarint(tag++, &scratch);
          EncodeValue(key, &scratch);
          EncodeValue(row, &scratch);
          return probe.Append(key.Hash(), scratch);
        }));
    left_->Close();
    TMDB_RETURN_IF_ERROR(probe.Finish());
  }

  TaggedRows tagged;
  TMDB_RETURN_IF_ERROR(JoinSpillFans(ctx, build, probe, &tagged));
  serve_.Load(RestoreTagOrder(std::move(tagged)));
  return Status::OK();
}

Status HashJoinOp::JoinSpillFans(ExecContext* ctx, const SpillFan& build,
                                 const SpillFan& probe, TaggedRows* out) {
  for (size_t p = 0; p < kSpillFanout; ++p) {
    TMDB_RETURN_IF_ERROR(ProcessSpillPartition(
        ctx, build.path(p), build.records(p), probe.path(p), build.level(),
        out));
  }
  return Status::OK();
}

Status HashJoinOp::ProcessSpillPartition(ExecContext* ctx,
                                         const std::string& build_path,
                                         uint64_t build_records,
                                         const std::string& probe_path,
                                         int depth, TaggedRows* out) {
  const size_t out_base = out->size();
  NoteSpillDepth(ctx, depth);

  // A memory trip while this partition is joined means it alone exceeds
  // the budget: split both of its files one level deeper and join those,
  // up to the depth bound.
  auto recurse_or_fail = [&](const Status& failed,
                             const char* bottom_out) -> Status {
    if (!SpillEligibleTrip(ctx, failed)) return failed;
    if (depth >= kMaxSpillDepth) {
      return failed.WithContext(StrCat("spill recursion limit ",
                                       kMaxSpillDepth, " reached; ",
                                       bottom_out));
    }
    SpillFan build;
    SpillFan probe;
    TMDB_RETURN_IF_ERROR(build.Open(ctx, "hj-build", depth + 1));
    TMDB_RETURN_IF_ERROR(
        RepartitionSpillFile(ctx, build_path, /*tagged=*/false, &build));
    TMDB_RETURN_IF_ERROR(
        probe.Open(ctx, "hj-probe", depth + 1, /*counts_partitions=*/false));
    TMDB_RETURN_IF_ERROR(
        RepartitionSpillFile(ctx, probe_path, /*tagged=*/true, &probe));
    return JoinSpillFans(ctx, build, probe, out);
  };

  // Load the build half into table_, linking each record as it is decoded
  // so equal keys share one rep from the start. The memory check is live
  // again here.
  Table& t = table_;
  t.res.Reset(ctx->guard);
  Status load = t.Reserve(build_records);
  if (load.ok()) {
    load = ScanSpillFile(ctx, build_path, [&](std::string_view rec) -> Status {
      const size_t i = t.rows.size();
      if (i == build_records) {
        return Status::Internal("spill partition outgrew its record count");
      }
      size_t pos = 0;
      TMDB_RETURN_IF_ERROR(DecodeValue(rec, &pos, &t.keys.emplace_back()));
      TMDB_RETURN_IF_ERROR(DecodeValue(rec, &pos, &t.rows.emplace_back()));
      TMDB_RETURN_IF_ERROR(t.res.Add(2 * sizeof(Value)));
      t.Link(static_cast<uint32_t>(i));
      return Status::OK();
    });
  }
  if (!load.ok()) {
    t.Clear();
    return recurse_or_fail(
        load, "partition too skewed for the memory budget");
  }
  t.Finish();

  // Stream the co-partitioned probe half against the table. Decoded left
  // rows are transient; only output rows stay resident (charged below).
  std::vector<Value> row_out;
  Status probed =
      ScanSpillFile(ctx, probe_path, [&](std::string_view rec) -> Status {
        size_t pos = 0;
        uint64_t tag = 0;
        Value key;
        Value left_row;
        TMDB_RETURN_IF_ERROR(GetVarint(rec, &pos, &tag));
        TMDB_RETURN_IF_ERROR(DecodeValue(rec, &pos, &key));
        TMDB_RETURN_IF_ERROR(DecodeValue(rec, &pos, &left_row));
        row_out.clear();
        TMDB_RETURN_IF_ERROR(ProcessLeftRow(left_row, &key, ctx, &row_out));
        if (!row_out.empty()) {
          TMDB_RETURN_IF_ERROR(build_res_.Add(
              row_out.size() * sizeof(std::pair<uint64_t, Value>)));
          for (Value& v : row_out) out->emplace_back(tag, std::move(v));
        }
        return Status::OK();
      });
  t.Clear();
  if (!probed.ok()) {
    // A memory trip *during the probe* means table + accumulated output no
    // longer fit together. Recursing still helps — it shrinks the table's
    // share — so drop this partition's partial output (refunding its
    // charge) and retry one level deeper. Only when the output alone
    // exhausts the budget does the recursion bottom out and fail.
    if (SpillEligibleTrip(ctx, probed) && depth < kMaxSpillDepth) {
      build_res_.Shrink((out->size() - out_base) *
                        sizeof(std::pair<uint64_t, Value>));
      out->resize(out_base);
    }
    return recurse_or_fail(
        probed, "join output alone exceeds the memory budget");
  }

  // This partition is fully joined; its files go away now, not at query
  // end, so peak disk stays one recursion path, not the whole input.
  ctx->spill->RemoveFile(build_path);
  ctx->spill->RemoveFile(probe_path);
  return Status::OK();
}

}  // namespace tmdb
