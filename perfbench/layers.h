#ifndef TMDB_PERFBENCH_LAYERS_H_
#define TMDB_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "core/database.h"
#include "exec/executor.h"
#include "net/wire.h"
#include "trace.h"
#include "values/value.h"
#include "workloads.h"

namespace perfbench {

/// The wire request a client sends for `query`.
tmdb::WireRequest MakeRequest(const WorkloadSpec& workload,
                              const QuerySpec& query);

/// The RunOptions the server derives for `query` from a default admission
/// grant (ServerOptions defaults): the parallelism cap the request asked
/// for and the grant's memory slice, clamped by the request's own budget.
tmdb::RunOptions ServerRunOptions(const WorkloadSpec& workload,
                                  const QuerySpec& query,
                                  const std::string& spill_dir);

/// The memory slice a default AdmissionConfig grants every query.
uint64_t DefaultGrantBytes();

struct LayeredResult {
  std::vector<tmdb::Value> rows;
  tmdb::ExecStats stats;
  /// Wire bytes of the encoded result rows.
  uint64_t response_bytes = 0;
};

/// Runs `query` the way Database::RunWith does, but calls each layer's
/// public entry point in turn — ParseQuery, Binder::BindQuery,
/// ChooseStrategy (auto only), PlanForStrategy, Planner::Plan,
/// Executor::RunPhysical — then encodes and decodes the rows with the wire
/// codec. With a tracer, each call is a span under one root span per
/// request; without, the same calls run with no clock reads.
tmdb::Result<LayeredResult> RunLayered(tmdb::Database* db,
                                       const std::string& query,
                                       const tmdb::RunOptions& options,
                                       tmdb::Executor* executor,
                                       Tracer* tracer);

/// Order-insensitive digest of a result: row count plus the sum of a
/// 64-bit hash of each row's canonical encoding.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Digest& other) const {
    return rows == other.rows && sum == other.sum;
  }
  bool operator!=(const Digest& other) const { return !(*this == other); }
};
Digest RowsDigest(const std::vector<tmdb::Value>& rows);

/// The ExecStats counters that are fixed by the data, the plan and the
/// parallelism cap: every counter except guard_checkpoints and
/// morsels_stolen, which depend on scheduling. Pairs of (name, value).
std::vector<std::pair<const char*, uint64_t>> DeterministicCounters(
    const tmdb::ExecStats& stats);

/// "" when the deterministic counters agree, else the first difference.
std::string CounterMismatch(const tmdb::ExecStats& expected,
                            const tmdb::ExecStats& actual);

}  // namespace perfbench

#endif  // TMDB_PERFBENCH_LAYERS_H_
