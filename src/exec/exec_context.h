#ifndef TMDB_EXEC_EXEC_CONTEXT_H_
#define TMDB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <string>

#include "expr/eval.h"

namespace tmdb {

class QueryGuard;
class QuerySched;
class SpillManager;

/// How a counter combines when per-morsel blocks fold into the query's.
enum class StatMerge { kSum, kMax };

/// Whether a counter is deterministic work (fixed by the data and the plan,
/// so serial and parallel runs must agree) or schedule- and strategy-
/// dependent telemetry.
enum class StatKind { kWork, kTelemetry };

/// The one counter table: X(name, merge, kind) per counter. Table order is
/// the struct's field order, ToString's order and the stats wire payload's
/// order, so append new counters at the end. Adding a counter is one line
/// here plus the code that increments it.
///
/// Work counters expose what a strategy does (the quantity the paper's
/// argument is about), free of wall-clock noise: a nested-loop plan shows
/// quadratic predicate_evals where the unnested plan shows linear probes.
/// Telemetry: guard_checkpoints depends on where batches and morsels fall;
/// strategy_chosen is 1 + the Strategy enum value (0 = unrecorded, see
/// StrategyStatCode); morsels_dispatched is the sum of the morsel-set sizes
/// the query submitted (it depends on the thread cap) and morsels_stolen
/// the subset run via another worker's deque (timing-dependent), exposed so
/// starvation shows up as numbers instead of latency.
#define TMDB_EXEC_STATS(X)                                                     \
  X(rows_emitted, kSum, kWork)                 /* rows leaving any operator */ \
  X(predicate_evals, kSum, kWork)              /* join/select pred. evals */   \
  X(subplan_evals, kSum, kWork)                /* subplan runs, not hits */    \
  X(hash_probes, kSum, kWork)                  /* hash table lookups */        \
  X(rows_built, kSum, kWork)                   /* rows in build tables */      \
  X(spill_partitions, kSum, kWork)             /* partition files written */   \
  X(spill_bytes_written, kSum, kWork)          /* bytes via spill writers */   \
  X(spill_bytes_read, kSum, kWork)             /* bytes via spill readers */   \
  X(spill_max_depth, kMax, kWork)              /* deepest repartition level */ \
  X(spill_sort_runs, kSum, kWork)              /* external-sort runs */        \
  X(subplan_cache_hits, kSum, kWork)           /* memoized results served */   \
  X(subplan_cache_misses, kSum, kWork)         /* distinct corr. keys run */   \
  X(subplan_cache_evictions, kSum, kWork)      /* dropped under pressure */    \
  X(subplan_cache_disk_evictions, kSum, kWork) /* moved to spill blocks */     \
  X(subplan_cache_disk_faults, kSum, kWork)    /* read back from disk */       \
  X(guard_checkpoints, kSum, kTelemetry)       /* QueryGuard::Check calls */   \
  X(strategy_chosen, kSum, kTelemetry)         /* 1 + Strategy; 0 = unset */   \
  X(strategy_switches, kSum, kTelemetry)       /* adaptive re-plans taken */   \
  X(est_distinct_corr, kSum, kTelemetry)       /* cost model's estimate */     \
  X(morsels_dispatched, kSum, kTelemetry)      /* morsels the sched ran */     \
  X(morsels_stolen, kSum, kTelemetry)          /* of those, stolen */

/// Counters accumulated during one execution, one field per table entry.
struct ExecStats {
#define TMDB_STAT_FIELD(name, merge, kind) uint64_t name = 0;
  TMDB_EXEC_STATS(TMDB_STAT_FIELD)
#undef TMDB_STAT_FIELD

  void Reset() { *this = ExecStats(); }
  /// Every counter in table order as `name=value`, space-separated.
  std::string ToString() const;
};

/// One table entry, for code that iterates the counters.
struct StatCounter {
  const char* name;
  uint64_t ExecStats::*field;
  StatMerge merge;
  StatKind kind;
};

inline constexpr StatCounter kStatCounters[] = {
#define TMDB_STAT_ENTRY(name, merge, kind) \
  {#name, &ExecStats::name, StatMerge::merge, StatKind::kind},
    TMDB_EXEC_STATS(TMDB_STAT_ENTRY)
#undef TMDB_STAT_ENTRY
};

/// Default batch size used by the executor when draining a plan, and the
/// period of the row-granularity guard checkpoints (PeriodicCheckGuard).
inline constexpr size_t kExecBatchSize = 1024;
static_assert((kExecBatchSize & (kExecBatchSize - 1)) == 0,
              "periodic guard checks mask against kExecBatchSize");

/// Per-execution state threaded through the physical operators.
struct ExecContext {
  /// Environment of the enclosing evaluation: non-null while running a
  /// correlated subplan, so inner predicates can see the outer variables.
  const Environment* outer_env = nullptr;
  /// Evaluates kSubplan expressions (implemented by the Executor).
  SubplanEvaluator* subplans = nullptr;
  /// Work counters; never null during execution.
  ExecStats* stats = nullptr;
  /// This query's registration with the process-wide work-stealing
  /// scheduler (intra-operator parallelism: morsel-wise key evaluation,
  /// partitioned ν grouping, morsel-wise probes). nullptr, or num_threads == 1, means fully serial
  /// execution — the seed behaviour. Operators submit morsel sets only
  /// from the coordinating thread; worker tasks never dispatch themselves.
  QuerySched* sched = nullptr;
  /// Per-query max-parallelism cap (also the number of build partitions).
  /// A cap, not a pool size: threads come from the shared scheduler.
  int num_threads = 1;
  /// Resource governor: cancellation flag, deadline, row/memory budgets,
  /// fault injection. Operators call CheckGuard(ctx) at batch and morsel
  /// boundaries; nullptr means ungoverned (tests driving ops directly).
  QueryGuard* guard = nullptr;
  /// Spill-to-disk facility. nullptr disables spilling: a memory trip then
  /// fails the query with kResourceExhausted exactly as before.
  SpillManager* spill = nullptr;

  bool parallel_enabled() const { return sched != nullptr && num_threads > 1; }
};

}  // namespace tmdb

#endif  // TMDB_EXEC_EXEC_CONTEXT_H_
