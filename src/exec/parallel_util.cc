#include "exec/parallel_util.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "base/string_util.h"
#include "exec/query_guard.h"

namespace tmdb {

std::vector<MorselRange> SplitMorsels(size_t n, int num_threads) {
  std::vector<MorselRange> morsels;
  if (n == 0) return morsels;
  const size_t threads =
      static_cast<size_t>(num_threads < 1 ? 1 : num_threads);
  // Row-aware granularity: target-sized morsels, floored at one morsel per
  // permitted thread (when the input has that many rows), capped so huge
  // inputs keep a bounded dispatch count.
  size_t count = (n + kMorselTargetRows - 1) / kMorselTargetRows;
  count = std::max(count, std::min(n, threads));
  count = std::min({count, kMaxMorselsPerDispatch, n});
  const size_t base = n / count;
  const size_t extra = n % count;
  size_t begin = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    morsels.push_back({begin, begin + len});
    begin += len;
  }
  return morsels;
}

namespace {

void MergeStats(const ExecStats& from, ExecStats* into) {
  for (const StatCounter& counter : kStatCounters) {
    uint64_t& total = into->*counter.field;
    const uint64_t value = from.*counter.field;
    total = counter.merge == StatMerge::kMax ? std::max(total, value)
                                             : total + value;
  }
}

// Task boundary: checkpoint first (a tripped guard skips the work), then
// run the body with exceptions converted to Status so nothing escapes into
// the exception-free engine or wedges a scheduler worker.
Status RunMorselTask(QueryGuard* guard,
                     const std::function<Status(size_t, MorselRange)>& body,
                     size_t index, MorselRange range) {
  if (guard != nullptr) {
    Status status = guard->Check();
    if (!status.ok()) return status;
  }
  try {
    return body(index, range);
  } catch (const std::exception& e) {
    return Status::Internal(StrCat("parallel task threw: ", e.what()));
  } catch (...) {
    return Status::Internal("parallel task threw a non-standard exception");
  }
}

}  // namespace

Status ParallelForMorsels(
    QuerySched* sched, QueryGuard* guard,
    const std::vector<MorselRange>& morsels,
    const std::function<Status(size_t, MorselRange)>& body) {
  if (morsels.empty()) return Status::OK();
  if (sched == nullptr) {
    // Inline fallback: identical task boundary and first-error-in-order
    // semantics, no scheduler interaction at all.
    Status first = Status::OK();
    for (size_t i = 0; i < morsels.size(); ++i) {
      Status status = RunMorselTask(guard, body, i, morsels[i]);
      if (first.ok() && !status.ok()) first = std::move(status);
    }
    return first;
  }
  return Scheduler::Global().RunTaskSet(
      sched, morsels.size(), [&body, guard, &morsels](size_t i) {
        return RunMorselTask(guard, body, i, morsels[i]);
      });
}

Status ParallelForMorselsWithStats(
    const ExecContext* ctx, const std::vector<MorselRange>& morsels,
    const std::function<Status(size_t, MorselRange, ExecContext*)>& body) {
  std::vector<ExecStats> local_stats(morsels.size());
  std::vector<std::unique_ptr<SubplanEvaluator>> forked(morsels.size());
  if (ctx->subplans != nullptr) {
    for (size_t m = 0; m < morsels.size(); ++m) {
      forked[m] = ctx->subplans->Fork(&local_stats[m]);
    }
  }
  TMDB_RETURN_IF_ERROR(ParallelForMorsels(
      ctx->sched, ctx->guard, morsels,
      [&](size_t m, MorselRange range) -> Status {
        ExecContext wctx;
        wctx.outer_env = ctx->outer_env;
        wctx.subplans = forked[m] != nullptr ? forked[m].get() : ctx->subplans;
        wctx.stats = &local_stats[m];
        wctx.guard = ctx->guard;
        return body(m, range, &wctx);
      }));
  for (const ExecStats& local : local_stats) MergeStats(local, ctx->stats);
  return Status::OK();
}

}  // namespace tmdb
