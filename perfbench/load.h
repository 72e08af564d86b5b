#ifndef TMDB_PERFBENCH_LOAD_H_
#define TMDB_PERFBENCH_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "exec/exec_context.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

/// Outcome of driving a workload's clients against a server.
struct LoadResult {
  double elapsed_s = 0;
  uint64_t attempted = 0;
  /// Errors, admission rejections and wrong answers.
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  /// Per query of the mix: its read latencies, and each distinct set of
  /// deterministic counters its responses carried (capped).
  std::vector<std::vector<double>> read_ms_by_query;
  std::vector<std::vector<tmdb::ExecStats>> observed_stats;
  double peak_rss_mb = 0;
  /// Adds `other`'s attempted, failed and failures only.
  void AddOutcomes(const LoadResult& other);
  /// Adds everything, latencies and observed counters included.
  void Merge(const LoadResult& other);
  void Fail(std::string message);
};

/// A result with one (empty) slot per query of `workload`'s mix.
LoadResult EmptyLoadResult(const WorkloadSpec& workload);

class Client;

/// The workload's client connections, one synchronous QueryClient each.
/// They stay open from set-up to the end of the run: the server frees a
/// closed session's executor while later queries run, and the engine's
/// memory accounting is process-wide, so that free would shift the spill
/// decisions of a budgeted query running at the same moment.
class ClientPool {
 public:
  ClientPool(const WorkloadSpec& workload, int port,
             const std::vector<Digest>& expected);
  ~ClientPool();
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  tmdb::Status Connect();

  /// Sends each distinct query of the mix once, in order, on the first
  /// connection or on every connection, and checks every answer. Used to
  /// warm the server up (every session's executor runs each query once
  /// before timing) and, on a quiescent server, to read back each query's
  /// counters.
  LoadResult RunEachOnce(bool every_connection);

  /// The timed closed loop: one thread per connection sends its next
  /// request only when the previous one has been answered, until
  /// `seconds` have passed. Every answer is checked; the process's
  /// resident set size is sampled throughout.
  LoadResult RunClosedLoop(double seconds, uint64_t seed);

 private:
  const WorkloadSpec& workload_;
  std::vector<std::unique_ptr<Client>> clients_;
};

/// Current resident set size of this process, in MiB.
double CurrentRssMb();

}  // namespace perfbench

#endif  // TMDB_PERFBENCH_LOAD_H_
