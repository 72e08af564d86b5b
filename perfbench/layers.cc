#include "layers.h"

#include <algorithm>

#include "base/string_util.h"
#include "net/admission.h"
#include "optimizer/cost_model.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "sema/binder.h"
#include "spill/value_codec.h"
#include "translate/strategies.h"

namespace perfbench {
namespace {

using tmdb::ExecStats;
using tmdb::Executor;
using tmdb::LogicalOpPtr;
using tmdb::PhysicalOpPtr;
using tmdb::Result;
using tmdb::RunOptions;
using tmdb::Status;
using tmdb::Strategy;
using tmdb::Value;

// Mirrors the governance Database::RunWith applies to a reused executor.
void ApplyGovernance(const RunOptions& options, Executor* executor) {
  tmdb::GuardLimits limits;
  limits.timeout_ms = options.timeout_ms;
  limits.memory_budget_bytes = options.memory_budget_bytes;
  limits.max_rows = options.max_rows;
  executor->set_limits(limits);
  executor->set_fault_injector(nullptr);
  executor->set_spill_options(options.enable_spill, options.spill_dir,
                              options.spill_block_bytes);
  executor->set_subplan_cache_bytes(options.subplan_cache_bytes);
}

tmdb::Planner MakePlanner(const RunOptions& options) {
  tmdb::PlannerOptions planner;
  planner.join_impl = options.join_impl;
  planner.num_threads = options.num_threads;
  planner.spill_available = options.enable_spill;
  planner.enable_columnar = options.enable_columnar;
  return tmdb::Planner(planner);
}

// Rewrite, physical plan and execution of one strategy's attempt.
Result<std::vector<Value>> PlanAndRun(const LogicalOpPtr& naive,
                                      Strategy strategy,
                                      const RunOptions& options,
                                      Executor* executor, Tracer* tracer,
                                      bool planning_armed) {
  Result<LogicalOpPtr> plan = [&] {
    ScopedSpan span(tracer, "rewrite.unnest");
    return tmdb::PlanForStrategy(naive, strategy);
  }();
  if (!plan.ok()) {
    if (planning_armed) executor->AbortPlanning();
    return plan.status();
  }
  Result<PhysicalOpPtr> physical = [&] {
    ScopedSpan span(tracer, "optimizer.plan");
    return MakePlanner(options).Plan(*plan);
  }();
  if (!physical.ok()) {
    if (planning_armed) executor->AbortPlanning();
    return physical.status();
  }
  ScopedSpan span(tracer, "exec.run");
  return executor->RunPhysical(physical->get());
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // Finalise so that summing row hashes does not cancel low bits.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

tmdb::WireRequest MakeRequest(const WorkloadSpec& workload,
                              const QuerySpec& query) {
  tmdb::WireRequest request;
  request.query = query.text;
  request.strategy = query.strategy;
  request.num_threads = workload.num_threads;
  request.memory_budget_bytes = query.memory_budget_bytes;
  request.enable_spill = query.enable_spill;
  return request;
}

uint64_t DefaultGrantBytes() {
  const tmdb::AdmissionConfig config;
  return config.total_memory_bytes /
         static_cast<uint64_t>(config.max_concurrent);
}

RunOptions ServerRunOptions(const WorkloadSpec& workload,
                            const QuerySpec& query,
                            const std::string& spill_dir) {
  RunOptions options;
  if (!tmdb::ParseStrategyName(query.strategy, &options.strategy)) {
    options.strategy = Strategy::kNestJoin;
  }
  options.num_threads = static_cast<int>(workload.num_threads);
  const uint64_t grant = DefaultGrantBytes();
  options.memory_budget_bytes =
      query.memory_budget_bytes == 0
          ? grant
          : std::min(query.memory_budget_bytes, grant);
  options.enable_spill = query.enable_spill;
  options.spill_dir = spill_dir;
  return options;
}

Result<LayeredResult> RunLayered(tmdb::Database* db, const std::string& query,
                                 const RunOptions& options, Executor* executor,
                                 Tracer* tracer) {
  if (tracer != nullptr) tracer->NewQuery();
  ScopedSpan root(tracer, "query");
  Result<tmdb::AstPtr> ast = [&] {
    ScopedSpan span(tracer, "parser.parse");
    return tmdb::ParseQuery(query);
  }();
  TMDB_RETURN_IF_ERROR(ast.status());
  Result<LogicalOpPtr> naive = [&] {
    ScopedSpan span(tracer, "sema.bind");
    tmdb::Binder binder(db->catalog());
    return binder.BindQuery(**ast);
  }();
  TMDB_RETURN_IF_ERROR(naive.status());

  executor->set_num_threads(options.num_threads);
  ApplyGovernance(options, executor);
  executor->mutable_stats()->Reset();

  Strategy chosen = options.strategy;
  uint64_t switches = 0;
  uint64_t est_distinct_corr = 0;
  Result<std::vector<Value>> rows = Status::Internal("not run");
  if (options.strategy != Strategy::kAuto) {
    rows = PlanAndRun(*naive, chosen, options, executor, tracer, false);
  } else {
    // Database::RunAuto, step by step: sampling shares the run's guard
    // window, and memoized naive arms the adaptive switch.
    executor->ArmPlanningGuard();
    Result<tmdb::StrategyDecision> decision = [&] {
      ScopedSpan span(tracer, "optimizer.cost");
      tmdb::CostModelOptions cm;
      cm.sample_rows = options.cost_sample_rows;
      cm.sample_seed = options.cost_sample_seed;
      cm.memo_enabled = options.subplan_cache_bytes > 0;
      cm.guard = executor->guard();
      tmdb::CostModel model(cm);
      return tmdb::ChooseStrategy(*naive, model);
    }();
    if (!decision.ok()) {
      executor->AbortPlanning();
      return decision.status();
    }
    chosen = decision->chosen;
    est_distinct_corr = decision->est_distinct_corr;
    Strategy fallback = Strategy::kNestJoin;
    if (decision->costed && chosen == Strategy::kNaive &&
        options.subplan_cache_bytes > 0 && decision->BestUnnested(&fallback)) {
      tmdb::AdaptiveConfig config;
      config.predicted_hit_ratio = decision->est_hit_ratio;
      config.switch_threshold = options.adaptive_switch_threshold;
      config.probe_acquires = options.adaptive_probe_acquires;
      executor->ArmAdaptive(config);
    }
    rows = PlanAndRun(*naive, chosen, options, executor, tracer, true);
    if (!rows.ok() &&
        rows.status().code() == tmdb::StatusCode::kStrategySwitch) {
      // No timeout or row budget is set on this path, so the remaining
      // budgets equal the original ones.
      switches = 1;
      ApplyGovernance(options, executor);
      chosen = fallback;
      rows = PlanAndRun(*naive, chosen, options, executor, tracer, false);
    }
  }
  TMDB_RETURN_IF_ERROR(rows.status());

  LayeredResult result;
  result.stats = executor->stats();
  result.stats.strategy_chosen = tmdb::StrategyStatCode(chosen);
  if (options.strategy == Strategy::kAuto) {
    result.stats.strategy_switches = switches;
    result.stats.est_distinct_corr = est_distinct_corr;
  }
  std::string payload;
  {
    ScopedSpan span(tracer, "net.encode");
    tmdb::EncodeRowsPayload(*rows, 0, rows->size(), &payload);
  }
  result.response_bytes = payload.size();
  {
    ScopedSpan span(tracer, "net.decode");
    TMDB_RETURN_IF_ERROR(tmdb::DecodeRowsPayload(payload, &result.rows));
  }
  return result;
}

Digest RowsDigest(const std::vector<Value>& rows) {
  Digest digest;
  std::string bytes;
  for (const Value& row : rows) {
    bytes.clear();
    tmdb::EncodeValue(row, &bytes);
    digest.sum += Fnv1a(bytes);
    ++digest.rows;
  }
  return digest;
}

std::vector<std::pair<const char*, uint64_t>> DeterministicCounters(
    const ExecStats& s) {
  return {
      {"rows_emitted", s.rows_emitted},
      {"predicate_evals", s.predicate_evals},
      {"subplan_evals", s.subplan_evals},
      {"hash_probes", s.hash_probes},
      {"rows_built", s.rows_built},
      {"spill_partitions", s.spill_partitions},
      {"spill_bytes_written", s.spill_bytes_written},
      {"spill_bytes_read", s.spill_bytes_read},
      {"spill_max_depth", s.spill_max_depth},
      {"spill_sort_runs", s.spill_sort_runs},
      {"subplan_cache_hits", s.subplan_cache_hits},
      {"subplan_cache_misses", s.subplan_cache_misses},
      {"subplan_cache_evictions", s.subplan_cache_evictions},
      {"subplan_cache_disk_evictions", s.subplan_cache_disk_evictions},
      {"subplan_cache_disk_faults", s.subplan_cache_disk_faults},
      {"strategy_chosen", s.strategy_chosen},
      {"strategy_switches", s.strategy_switches},
      {"est_distinct_corr", s.est_distinct_corr},
      {"morsels_dispatched", s.morsels_dispatched},
  };
}

std::string CounterMismatch(const ExecStats& expected,
                            const ExecStats& actual) {
  const auto want = DeterministicCounters(expected);
  const auto got = DeterministicCounters(actual);
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].second != got[i].second) {
      return tmdb::StrCat(want[i].first, " expected ", want[i].second,
                          " got ", got[i].second);
    }
  }
  return "";
}

}  // namespace perfbench
