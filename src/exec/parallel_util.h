#ifndef TMDB_EXEC_PARALLEL_UTIL_H_
#define TMDB_EXEC_PARALLEL_UTIL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "base/result.h"
#include "exec/exec_context.h"
#include "sched/scheduler.h"

namespace tmdb {

/// A contiguous index range [begin, end) — one unit of parallel work.
struct MorselRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Rows per morsel the splitter aims for: big enough that dispatch cost is
/// noise against the work, small enough that a straggler holds at most one
/// morsel's worth of skew.
inline constexpr size_t kMorselTargetRows = 1024;
/// Upper bound on morsels per dispatch, so a huge input does not turn into
/// tens of thousands of claim-cursor bumps and per-morsel stat blocks.
inline constexpr size_t kMaxMorselsPerDispatch = 256;

/// Splits [0, n) into contiguous morsels for dynamic dispatch. The count
/// is row-aware rather than a blind multiple of the thread count:
///   - ~kMorselTargetRows rows per morsel, so huge inputs expose plenty of
///     steal parallelism at bounded granularity;
///   - at least min(n, num_threads) morsels, so a small-but-parallelizable
///     input can still occupy every permitted thread;
///   - at most kMaxMorselsPerDispatch (and never more than n), so tiny
///     inputs stop paying dispatch overhead per handful of rows.
std::vector<MorselRange> SplitMorsels(size_t n, int num_threads);

class QueryGuard;

/// Runs body(morsel_index, range) for every morsel via the process-wide
/// work-stealing scheduler and waits for all of them. The calling thread
/// participates, idle workers steal morsels up to `sched`'s parallelism
/// cap, and a skewed morsel therefore delays only itself. Returns the
/// first non-OK status in morsel order, so error reporting is
/// deterministic regardless of scheduling. Each task runs a guard
/// checkpoint before its body (when `guard` is non-null), so a tripped
/// guard drains the remaining morsels cheaply instead of doing their
/// work. A task that throws is caught at the task boundary and converted
/// to kInternal — the engine is exception-free and the scheduler must
/// never be poisoned by a rogue expression. `sched` == nullptr runs every
/// morsel inline on the calling thread (serial semantics, same checkpoint
/// discipline).
Status ParallelForMorsels(QuerySched* sched, QueryGuard* guard,
                          const std::vector<MorselRange>& morsels,
                          const std::function<Status(size_t, MorselRange)>& body);

/// ParallelForMorsels for operator work that evaluates expressions. Each
/// morsel's body gets its own serial worker ExecContext: the caller's outer
/// environment and guard, a private ExecStats block, and a subplan
/// evaluator forked onto that block, so subplan-bearing expressions run
/// safely inside worker tasks (no serial fallback for correlated
/// subqueries). When `ctx->subplans` cannot fork, workers share it, which
/// the Fork contract then requires to be thread-safe. On success the blocks
/// merge into `ctx->stats` in morsel order under each counter's merge rule,
/// so a parallel run reports exactly the counters of its serial equivalent.
Status ParallelForMorselsWithStats(
    const ExecContext* ctx, const std::vector<MorselRange>& morsels,
    const std::function<Status(size_t, MorselRange, ExecContext*)>& body);

}  // namespace tmdb

#endif  // TMDB_EXEC_PARALLEL_UTIL_H_
