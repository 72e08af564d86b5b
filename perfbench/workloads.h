#ifndef TMDB_PERFBENCH_WORKLOADS_H_
#define TMDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/database.h"

namespace perfbench {

/// One distinct read request of a workload's mix.
struct QuerySpec {
  std::string name;
  std::string text;
  /// Wire strategy name ("nestjoin", "outerjoin", "auto", ...).
  std::string strategy = "nestjoin";
  /// Copies of this request in each client's mix cycle.
  int weight = 1;
  /// Per-request budget; 0 = inherit the server's admission grant.
  uint64_t memory_budget_bytes = 0;
  bool enable_spill = false;
  /// True when the query reads S, which the workload's INSERTs grow: its
  /// rows stay fixed but its work counters grow with the table.
  bool reads_write_table = false;
  /// Strategies run in process, unbudgeted, to form the expected result.
  /// One entry is the naive ground truth; two entries are cross-checked
  /// against each other where naive would take too long. "+merge" after
  /// a strategy forces sort-merge joins.
  std::vector<std::string> reference = {"naive"};
};

/// A closed-loop traffic mix over one generated database.
struct WorkloadSpec {
  std::string name;
  int clients = 1;
  /// Requested parallelism of every request (also its admission weight).
  uint32_t num_threads = 1;
  /// Every `write_every`-th request of a client is an INSERT into S, with
  /// a key no read's join ever matches; 0 = reads only.
  int write_every = 0;
  std::vector<QuerySpec> queries;
  /// Creates the workload's tables from `seed`.
  tmdb::Status (*load)(tmdb::Database* db, uint64_t seed) = nullptr;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The INSERT statement for the `key`-th write (key >= 1; keys are unique
/// across clients) and the acknowledgement the server returns.
std::string WriteStatement(uint64_t key);
std::string WriteAcknowledgement();

}  // namespace perfbench

#endif  // TMDB_PERFBENCH_WORKLOADS_H_
