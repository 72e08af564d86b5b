#include "exec/spill_util.h"

#include <algorithm>

#include "base/string_util.h"
#include "spill/value_codec.h"

namespace tmdb {

Status SpillFan::Open(ExecContext* ctx, std::string_view prefix, int level,
                      bool counts_partitions) {
  ctx_ = ctx;
  level_ = level;
  counts_partitions_ = counts_partitions;
  SpillManager* mgr = ctx->spill;
  for (size_t p = 0; p < kSpillFanout; ++p) {
    TMDB_ASSIGN_OR_RETURN(paths_[p],
                          mgr->NewFilePath(StrCat(prefix, "-d", level, "-p", p)));
    writers_[p] = std::make_unique<SpillWriter>(paths_[p], mgr->block_bytes(),
                                                mgr->injector());
    TMDB_RETURN_IF_ERROR(writers_[p]->Open());
  }
  return Status::OK();
}

Status SpillFan::Append(uint64_t key_hash, std::string_view record) {
  SpillWriter& w = *writers_[SpillPartitionOf(key_hash, level_)];
  TMDB_RETURN_IF_ERROR(w.Append(record));
  if (w.TookBlockBoundary()) TMDB_RETURN_IF_ERROR(CheckGuard(ctx_));
  return Status::OK();
}

Status SpillFan::Finish() {
  for (size_t p = 0; p < kSpillFanout; ++p) {
    TMDB_RETURN_IF_ERROR(writers_[p]->Finish());
    ctx_->stats->spill_bytes_written += writers_[p]->stats().bytes;
    records_[p] = writers_[p]->stats().records;
    writers_[p].reset();
  }
  if (counts_partitions_) ctx_->stats->spill_partitions += kSpillFanout;
  return Status::OK();
}

Status RepartitionSpillFile(ExecContext* ctx, const std::string& src,
                            bool tagged, SpillFan* fan) {
  MemoryCheckSuspension suspend(ctx->guard);
  TMDB_RETURN_IF_ERROR(
      ScanSpillFile(ctx, src, [&](std::string_view rec) -> Status {
        size_t pos = 0;
        uint64_t tag = 0;
        if (tagged) TMDB_RETURN_IF_ERROR(GetVarint(rec, &pos, &tag));
        Value key;
        TMDB_RETURN_IF_ERROR(DecodeValue(rec, &pos, &key));
        return fan->Append(key.Hash(), rec);
      }));
  TMDB_RETURN_IF_ERROR(fan->Finish());
  ctx->spill->RemoveFile(src);
  return Status::OK();
}

std::vector<Value> RestoreTagOrder(TaggedRows tagged) {
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Value> rows;
  rows.reserve(tagged.size());
  for (auto& entry : tagged) rows.push_back(std::move(entry.second));
  return rows;
}

}  // namespace tmdb
