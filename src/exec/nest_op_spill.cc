// Grace-style spill path of NestOp (ν and ν*). Engaged by Open when a
// memory trip during the drain or the grouping is spill-eligible; serial
// and parallel grouping paths both divert here (the spill path itself is
// serial, and its tag discipline reproduces the same output either way).
// The file mechanics live in spill_util.h.
//
// Rows are hash-partitioned by group key into spill files, each record
// carrying its input row index as a varint tag plus the encoded key and
// element image. A partition is grouped in read order — which equals input
// order, because writes are sequential and repartitioning moves records
// verbatim — so element order inside each group matches the in-memory
// paths. Group tuples collect as (first-occurrence tag, row) pairs and a
// final stable sort by tag restores the serial group insertion order bit
// for bit.

#include <string>
#include <utility>
#include <vector>

#include "exec/nest_op.h"
#include "spill/value_codec.h"

namespace tmdb {

Status NestOp::SpillGroup(std::vector<Value> rows, bool drained) {
  // Everything the reservation covered either moves to disk below or is
  // freed as it goes — refund it all so the guard tracks actual residency.
  build_res_.Release();

  SpillFan fan;
  {
    // Write-out sheds memory; suspend only the memory comparison (cancel,
    // deadline, max_rows, and injected faults stay live).
    MemoryCheckSuspension suspend(ctx_->guard);
    TMDB_RETURN_IF_ERROR(fan.Open(ctx_, "nest", /*level=*/0));
    std::string scratch;
    uint64_t tag = 0;  // input row index; restores group insertion order
    TMDB_RETURN_IF_ERROR(SpillRows(
        ctx_, std::move(rows), drained ? nullptr : child_.get(),
        /*count_built=*/true, [&](Value row) -> Status {
          // The element image is evaluated here, once per row in input
          // order — the same evaluation sequence as the serial in-memory
          // path — and spilled, so a group's elements never need to be
          // resident together until its own partition is processed.
          TMDB_ASSIGN_OR_RETURN(Value key, GroupKey(row));
          TMDB_ASSIGN_OR_RETURN(Value elem, ElemOf(row, ctx_));
          scratch.clear();
          PutVarint(tag++, &scratch);
          EncodeValue(key, &scratch);
          EncodeValue(elem, &scratch);
          return fan.Append(key.Hash(), scratch);
        }));
    child_->Close();
    TMDB_RETURN_IF_ERROR(fan.Finish());
  }

  TaggedRows tagged;
  TMDB_RETURN_IF_ERROR(GroupSpillFan(fan, &tagged));
  output_ = RestoreTagOrder(std::move(tagged));
  return Status::OK();
}

Status NestOp::GroupSpillFan(const SpillFan& fan, TaggedRows* out) {
  for (size_t p = 0; p < kSpillFanout; ++p) {
    TMDB_RETURN_IF_ERROR(ProcessNestPartition(fan.path(p), fan.level(), out));
  }
  return Status::OK();
}

Status NestOp::ProcessNestPartition(const std::string& path, int depth,
                                    TaggedRows* out) {
  const size_t out_base = out->size();
  NoteSpillDepth(ctx_, depth);

  // Group this partition in read order (= input order). The memory check is
  // live on the first pass: a trip with several distinct keys in sight means
  // the partition can still be split, and we recurse. A partition that
  // cannot split further — one group key, or the depth bound reached — runs
  // a forced pass with the memory comparison suspended instead: its groups
  // must become resident output rows no matter what, which is exactly the
  // accounting the in-memory paths apply to their own output.
  size_t keys_seen = 0;
  auto load_and_emit = [&](bool forced) -> Status {
    MemoryCheckSuspension suspend(forced ? ctx_->guard : nullptr);
    Grouper grouper(*this);
    GuardReservation slots;
    slots.Reset(ctx_->guard);
    Status load = [&]() -> Status {
      TMDB_RETURN_IF_ERROR(
          ScanSpillFile(ctx_, path, [&](std::string_view rec) -> Status {
            size_t pos = 0;
            uint64_t tag = 0;
            Value key;
            Value elem;
            TMDB_RETURN_IF_ERROR(GetVarint(rec, &pos, &tag));
            TMDB_RETURN_IF_ERROR(DecodeValue(rec, &pos, &key));
            TMDB_RETURN_IF_ERROR(DecodeValue(rec, &pos, &elem));
            TMDB_RETURN_IF_ERROR(slots.Add(2 * sizeof(Value)));
            grouper.Add(tag, key, elem);
            return Status::OK();
          }));
      // Emit this partition's groups; the output rows are resident state
      // and charge the operator's main reservation.
      for (size_t g = 0; g < grouper.size(); ++g) {
        TMDB_RETURN_IF_ERROR(PeriodicCheckGuard(ctx_, g));
        TMDB_ASSIGN_OR_RETURN(Value row, grouper.Take(g));
        TMDB_RETURN_IF_ERROR(
            build_res_.Add(sizeof(std::pair<uint64_t, Value>)));
        out->emplace_back(grouper.first_tag(g), std::move(row));
      }
      return Status::OK();
    }();
    keys_seen = grouper.size();  // partial on failure = keys at trip time
    slots.Release();
    return load;
  };

  Status load = load_and_emit(/*forced=*/false);
  if (!load.ok()) {
    if (!SpillEligibleTrip(ctx_, load)) return load;
    // Drop this pass's partial output, refunding its charge; the spill file
    // is only removed on success, so the retry re-reads it cleanly.
    build_res_.Shrink((out->size() - out_base) *
                      sizeof(std::pair<uint64_t, Value>));
    out->resize(out_base);
    if (keys_seen > 1 && depth < kMaxSpillDepth) {
      SpillFan fan;
      TMDB_RETURN_IF_ERROR(fan.Open(ctx_, "nest", depth + 1));
      TMDB_RETURN_IF_ERROR(
          RepartitionSpillFile(ctx_, path, /*tagged=*/true, &fan));
      return GroupSpillFan(fan, out);
    }
    TMDB_RETURN_IF_ERROR(load_and_emit(/*forced=*/true));
  }

  // This partition is fully grouped; its file goes away now, not at query
  // end, so peak disk stays one recursion path, not the whole input.
  ctx_->spill->RemoveFile(path);
  return Status::OK();
}

}  // namespace tmdb
