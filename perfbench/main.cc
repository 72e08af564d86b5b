// End-to-end benchmark of the TMDB query service.
//
// Starts an in-process QueryServer on an ephemeral port, loads a generated
// paper-schema database from --seed, and drives one workload's closed loop
// of synchronous QueryClients for --seconds, checking every answer. With
// --trace 1 it then replays the same mix in process, one layer call at a
// time, and reports the per-layer split. The last line of standard output
// is one JSON object; the lines before it name every metric with its unit.
//
//   perfbench --workload interactive|analytic|spill --seed N --seconds S
//             --trace 0|1 --spill-dir DIR [--trace-file FILE]
//             [--source ID] [--corrupt-reference]

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "core/database.h"
#include "load.h"
#include "layers.h"
#include "net/server.h"
#include "trace.h"
#include "translate/strategies.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Numbers from an unoptimised or sanitizer build are never reported.
#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spill_dir;
  std::string trace_file;
  std::string source = "unknown";
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spill-dir") {
      args->spill_dir = value;
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else if (flag == "--source") {
      args->source = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->spill_dir.empty() &&
         args->seconds > 0;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated percentile (p in [0, 1]) of `values`.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Expected result of every query of the mix, computed in process without
/// a memory budget. Naive is the ground truth; where it would take too
/// long, two correct strategies must agree.
tmdb::Result<std::vector<Digest>> ComputeReferences(
    tmdb::Database* db, const WorkloadSpec& workload) {
  std::map<std::string, Digest> by_text;
  std::vector<Digest> expected;
  for (const QuerySpec& q : workload.queries) {
    auto known = by_text.find(q.text);
    if (known != by_text.end()) {
      expected.push_back(known->second);
      continue;
    }
    Digest first;
    for (size_t i = 0; i < q.reference.size(); ++i) {
      // "strategy" or "strategy+merge" (sort-merge joins instead of the
      // planner's hash joins).
      const std::string& ref = q.reference[i];
      const size_t plus = ref.find('+');
      tmdb::RunOptions options;
      if (!tmdb::ParseStrategyName(ref.substr(0, plus), &options.strategy)) {
        return tmdb::Status::InvalidArgument("unknown reference " + ref);
      }
      if (plus != std::string::npos) options.join_impl = tmdb::JoinImpl::kMerge;
      options.num_threads = static_cast<int>(workload.num_threads);
      const Clock::time_point start = Clock::now();
      TMDB_ASSIGN_OR_RETURN(tmdb::QueryResult result, db->Run(q.text, options));
      const Digest digest = RowsDigest(result.rows);
      std::printf("info: reference %s by %s: %zu rows in %.3f s\n",
                  q.name.c_str(), ref.c_str(), result.rows.size(),
                  SecondsSince(start));
      std::fflush(stdout);
      if (i == 0) {
        first = digest;
      } else if (digest != first) {
        return tmdb::Status::Internal(tmdb::StrCat(
            q.name, ": reference strategies ", q.reference[0], " and ",
            q.reference[i], " disagree (", first.rows, " vs ", digest.rows,
            " rows)"));
      }
    }
    by_text[q.text] = first;
    expected.push_back(first);
  }
  return expected;
}

/// A loaded database with a started server and connected clients.
struct Service {
  std::unique_ptr<tmdb::Database> db;
  std::unique_ptr<tmdb::QueryServer> server;
  std::unique_ptr<ClientPool> clients;

  ~Service() { Stop(); }
  void Stop() {
    clients.reset();
    if (server) server->Shutdown();
    server.reset();
  }
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Counts the traced run's counters into its per-request metrics.
struct CounterTotals {
  double requests = 0;
  double auto_requests = 0;
  double result_rows = 0;
  double response_bytes = 0;
  tmdb::ExecStats sum;
  uint64_t max_spill_depth = 0;

  void Add(const LayeredResult& r, bool is_auto) {
    requests += 1;
    auto_requests += is_auto ? 1 : 0;
    result_rows += static_cast<double>(r.rows.size());
    response_bytes += static_cast<double>(r.response_bytes);
    const tmdb::ExecStats& s = r.stats;
    sum.rows_emitted += s.rows_emitted;
    sum.rows_built += s.rows_built;
    sum.predicate_evals += s.predicate_evals;
    sum.hash_probes += s.hash_probes;
    sum.guard_checkpoints += s.guard_checkpoints;
    sum.subplan_evals += s.subplan_evals;
    sum.subplan_cache_hits += s.subplan_cache_hits;
    sum.subplan_cache_misses += s.subplan_cache_misses;
    sum.subplan_cache_evictions += s.subplan_cache_evictions;
    sum.morsels_dispatched += s.morsels_dispatched;
    sum.morsels_stolen += s.morsels_stolen;
    sum.spill_bytes_written += s.spill_bytes_written;
    sum.spill_bytes_read += s.spill_bytes_read;
    sum.spill_partitions += s.spill_partitions;
    sum.spill_sort_runs += s.spill_sort_runs;
    sum.strategy_switches += s.strategy_switches;
    max_spill_depth = std::max(max_spill_depth, s.spill_max_depth);
  }
  double PerRequest(uint64_t total) const {
    return requests > 0 ? static_cast<double>(total) / requests : 0;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --spill-dir DIR [--trace-file FILE] "
                 "[--source ID] [--corrupt-reference]\n");
    return 2;
  }
  if (!kOptimizedBuild || kSanitizedBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build\n",
                 kSanitizedBuild ? "sanitizer" : "debug/unoptimised");
    return 2;
  }
  const WorkloadSpec* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string context = tmdb::StrCat(
      "{\"workload\": \"", workload->name, "\", \"seed\": ", args.seed,
      ", \"seconds\": ", FormatNumber(args.seconds), ", \"trace\": ",
      args.trace ? 1 : 0, ", \"nproc\": ", std::thread::hardware_concurrency(),
      ", \"build_type\": \"", PERFBENCH_BUILD_TYPE, "\", \"compiler\": \"",
      PERFBENCH_COMPILER, "\", \"source\": \"", args.source, "\"}");
  std::printf("context: %s\n", context.c_str());

  std::error_code ec;
  std::filesystem::remove_all(args.spill_dir, ec);
  std::filesystem::create_directories(args.spill_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.spill_dir.c_str());
    return 2;
  }
  tmdb::ServerOptions server_options;
  server_options.spill_dir = args.spill_dir;

  // ------------------------------------------------------------- set-up
  // Set-up (load, server start, one checked warm-up pass over every
  // distinct query) runs kSetups times on identical data (once when
  // tracing); the median is reported and the last service is kept for the
  // timed phase. The in-process references are computed once and not
  // timed.
  LoadResult checks = EmptyLoadResult(*workload);
  std::vector<Digest> expected;
  std::vector<double> setup_s;
  Service service;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    service.Stop();
    service.db = std::make_unique<tmdb::Database>();
    Clock::time_point start = Clock::now();
    if (tmdb::Status s = workload->load(service.db.get(), args.seed); !s.ok()) {
      std::fprintf(stderr, "perfbench: load failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    double seconds = SecondsSince(start);
    if (expected.empty()) {
      tmdb::Result<std::vector<Digest>> refs =
          ComputeReferences(service.db.get(), *workload);
      if (!refs.ok()) {
        std::fprintf(stderr, "perfbench: reference failed: %s\n",
                     refs.status().ToString().c_str());
        return 2;
      }
      expected = std::move(*refs);
      if (args.corrupt_reference) expected[0].sum ^= 1;
    }
    start = Clock::now();
    service.server =
        std::make_unique<tmdb::QueryServer>(service.db.get(), server_options);
    if (tmdb::Status s = service.server->Start(); !s.ok()) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    service.clients = std::make_unique<ClientPool>(
        *workload, service.server->port(), expected);
    if (tmdb::Status s = service.clients->Connect(); !s.ok()) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    checks.AddOutcomes(service.clients->RunEachOnce(true));
    setup_s.push_back(seconds + SecondsSince(start));
  }
  malloc_trim(0);

  // --------------------------------------------------------- timed phase
  LoadResult load = service.clients->RunClosedLoop(args.seconds, args.seed);

  // ------------------------------------------------------- counter check
  // A quiescent pass reads back every query's counters over the wire; the
  // in-process layered path (the traced run's path) must produce the same
  // deterministic counters, and so must every timed response of a query
  // whose tables the INSERTs leave alone.
  LoadResult quiescent = service.clients->RunEachOnce(false);
  // Like a server session, the layered path's executor runs each query
  // once before its counters count: the first budgeted run on a fresh
  // executor can spill differently from later ones.
  tmdb::Executor executor;
  for (const QuerySpec& spec : workload->queries) {
    (void)RunLayered(service.db.get(), spec.text,
                     ServerRunOptions(*workload, spec, args.spill_dir),
                     &executor, nullptr);
  }
  std::vector<LayeredResult> layered;
  for (size_t q = 0; q < workload->queries.size(); ++q) {
    const QuerySpec& spec = workload->queries[q];
    tmdb::Result<LayeredResult> r = RunLayered(
        service.db.get(), spec.text,
        ServerRunOptions(*workload, spec, args.spill_dir), &executor, nullptr);
    ++checks.attempted;
    if (!r.ok()) {
      checks.Fail(spec.name + ": layered run failed: " + r.status().ToString());
      layered.emplace_back();
      continue;
    }
    if (RowsDigest(r->rows) != expected[q]) {
      checks.Fail(spec.name + ": layered run gave a wrong answer");
    }
    // A query that may spill must spill, and no other query may: a change
    // that fits the spill workload in memory must not pass unnoticed.
    if (spec.enable_spill && r->stats.spill_partitions == 0) {
      checks.Fail(spec.name + ": expected to spill but did not");
    }
    if (!spec.enable_spill && r->stats.spill_bytes_written != 0) {
      checks.Fail(spec.name + ": spilled without enable_spill");
    }
    const std::vector<tmdb::ExecStats>& wire_now = quiescent.observed_stats[q];
    if (!wire_now.empty()) {
      const std::string diff = CounterMismatch(r->stats, wire_now[0]);
      if (!diff.empty()) {
        checks.Fail(spec.name +
                    ": wire counters differ from the layered run: " + diff);
      }
    }
    if (!spec.reads_write_table) {
      for (const tmdb::ExecStats& seen : load.observed_stats[q]) {
        const std::string diff = CounterMismatch(r->stats, seen);
        if (!diff.empty()) {
          checks.Fail(spec.name + ": timed-run counters differ from the "
                                  "layered run: " + diff);
        }
      }
    }
    layered.push_back(std::move(*r));
  }
  checks.AddOutcomes(quiescent);

  // ---------------------------------------------------------- traced run
  std::vector<Metric> metrics;
  if (args.trace) {
    // Replay the mix in process: each pass runs every query (by weight)
    // once untraced and once traced, alternating which goes first, on one
    // reused executor with the server's options.
    Tracer tracer;
    CounterTotals totals;
    std::vector<std::vector<double>> traced_us(workload->queries.size());
    double untraced_s = 0;
    double traced_s = 0;
    const Clock::time_point replay_start = Clock::now();
    for (int pass = 0;
         pass < 2 || (SecondsSince(replay_start) < args.seconds / 5 &&
                      pass < 1000);
         ++pass) {
      for (int round = 0; round < 2; ++round) {
        const bool traced = (pass + round) % 2 == 1;
        const Clock::time_point start = Clock::now();
        for (size_t q = 0; q < workload->queries.size(); ++q) {
          const QuerySpec& spec = workload->queries[q];
          for (int w = 0; w < spec.weight; ++w) {
            const size_t first_span = tracer.spans().size();
            tmdb::Result<LayeredResult> r = RunLayered(
                service.db.get(), spec.text,
                ServerRunOptions(*workload, spec, args.spill_dir), &executor,
                traced ? &tracer : nullptr);
            if (!r.ok()) {
              checks.Fail(spec.name + ": traced run failed: " +
                          r.status().ToString());
              continue;
            }
            if (!traced) continue;
            const std::string diff =
                CounterMismatch(layered[q].stats, r->stats);
            if (!diff.empty()) {
              checks.Fail(spec.name + ": traced counters differ: " + diff);
            }
            totals.Add(*r, spec.strategy == "auto");
            const Span& root = tracer.spans()[first_span];
            traced_us[q].push_back(
                static_cast<double>(root.end_ns - root.start_ns) / 1e3);
          }
        }
        (traced ? traced_s : untraced_s) += SecondsSince(start);
      }
    }
    std::map<std::string, double> self_us = tracer.SelfTimeUs();
    const tmdb::ServerStatsSnapshot server_stats = service.server->stats();
    // TCP latency minus the in-process span sum, per read query, averaged
    // by the query's weight in the mix.
    double overhead_us = 0;
    double weights = 0;
    for (size_t q = 0; q < workload->queries.size(); ++q) {
      if (load.read_ms_by_query[q].empty() || traced_us[q].empty()) continue;
      const double w = workload->queries[q].weight;
      overhead_us += w * (Percentile(load.read_ms_by_query[q], 0.5) * 1e3 -
                          Percentile(traced_us[q], 0.5));
      weights += w;
    }
    const tmdb::ExecStats& s = totals.sum;
    const double n = totals.requests;
    auto per = [&](const char* span) { return Ratio(self_us[span], n); };
    metrics = {
        {"parser.parse_us", per("parser.parse"), "us"},
        {"sema.bind_us", per("sema.bind"), "us"},
        {"rewrite.unnest_us", per("rewrite.unnest"), "us"},
        {"optimizer.cost_us",
         Ratio(self_us["optimizer.cost"], totals.auto_requests), "us"},
        {"optimizer.plan_us", per("optimizer.plan"), "us"},
        {"optimizer.strategy_switches", totals.PerRequest(s.strategy_switches),
         "count"},
        {"exec.run_us", per("exec.run"), "us"},
        {"exec.rows_emitted", totals.PerRequest(s.rows_emitted), "count"},
        {"exec.rows_built", totals.PerRequest(s.rows_built), "count"},
        {"exec.predicate_evals", totals.PerRequest(s.predicate_evals),
         "count"},
        {"exec.hash_probes", totals.PerRequest(s.hash_probes), "count"},
        {"exec.guard_checkpoints", totals.PerRequest(s.guard_checkpoints),
         "count"},
        {"exec.rows_examined_per_result",
         Ratio(static_cast<double>(s.rows_emitted + s.rows_built),
               totals.result_rows),
         "ratio"},
        {"subplan_cache.hit_ratio",
         Ratio(static_cast<double>(s.subplan_cache_hits),
               static_cast<double>(s.subplan_cache_hits +
                                   s.subplan_cache_misses)),
         "ratio"},
        {"subplan_cache.evals", totals.PerRequest(s.subplan_evals), "count"},
        {"subplan_cache.evictions",
         totals.PerRequest(s.subplan_cache_evictions), "count"},
        {"sched.morsels_dispatched", totals.PerRequest(s.morsels_dispatched),
         "count"},
        {"sched.steal_ratio",
         Ratio(static_cast<double>(s.morsels_stolen),
               static_cast<double>(s.morsels_dispatched)),
         "ratio"},
        {"spill.bytes_written", totals.PerRequest(s.spill_bytes_written),
         "bytes"},
        {"spill.bytes_read", totals.PerRequest(s.spill_bytes_read), "bytes"},
        {"spill.partitions", totals.PerRequest(s.spill_partitions), "count"},
        {"spill.max_depth", static_cast<double>(totals.max_spill_depth),
         "count"},
        {"spill.sort_runs", totals.PerRequest(s.spill_sort_runs), "count"},
        {"net.encode_us", per("net.encode"), "us"},
        {"net.decode_us", per("net.decode"), "us"},
        {"net.response_bytes", Ratio(totals.response_bytes, n), "bytes"},
        {"net.round_trip_overhead_us", Ratio(overhead_us, weights), "us"},
        {"net.queries_rejected",
         static_cast<double>(server_stats.queries_rejected), "count"},
        {"net.wire_errors", static_cast<double>(server_stats.wire_errors),
         "count"},
        {"trace.overhead_ratio", Ratio(traced_s, untraced_s), "ratio"},
        {"latency_p95_ms", Percentile(load.read_ms, 0.95), "ms"},
        {"write_latency_p50_ms", Percentile(load.write_ms, 0.5), "ms"},
    };
    if (!args.trace_file.empty() &&
        !tracer.WriteJson(args.trace_file, context)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_file.c_str());
    }
  }
  service.Stop();
  std::filesystem::remove_all(args.spill_dir, ec);

  // Warm-up, quiescent and in-process checks count with the timed
  // requests; only the timed requests give latencies.
  checks.AddOutcomes(load);
  const uint64_t attempted = checks.attempted;
  const uint64_t failed = checks.failed;
  const double error_rate =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  const size_t completed = load.read_ms.size() + load.write_ms.size();
  if (args.trace) {
    metrics.push_back({"error_rate", error_rate, "ratio"});
  } else {
    metrics = {
        {"qps", Ratio(static_cast<double>(completed), load.elapsed_s), "1/s"},
        {"latency_p50_ms", Percentile(load.read_ms, 0.5), "ms"},
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"peak_rss_mb", load.peak_rss_mb, "MiB"},
    };
    std::printf("info: latency_p95_ms %s ms\n",
                FormatNumber(Percentile(load.read_ms, 0.95)).c_str());
    std::printf("info: error_rate %s ratio\n",
                FormatNumber(error_rate).c_str());
    std::printf("info: write_latency_p50_ms %s ms\n",
                FormatNumber(Percentile(load.write_ms, 0.5)).c_str());
  }
  std::printf("info: reads %zu writes %zu in %.3f s\n", load.read_ms.size(),
              load.write_ms.size(), load.elapsed_s);
  for (double s : setup_s) std::printf("info: setup %.4f s\n", s);
  for (size_t q = 0; q < workload->queries.size(); ++q) {
    std::printf("info: query %s p50 %.3f ms p95 %.3f ms over %zu reads\n",
                workload->queries[q].name.c_str(),
                Percentile(load.read_ms_by_query[q], 0.5),
                Percentile(load.read_ms_by_query[q], 0.95),
                load.read_ms_by_query[q].size());
  }
  for (const std::string& f : checks.failures) {
    std::printf("failure: %s\n", f.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric: %s %s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(),
                m.unit.c_str());
  }
  std::string out = tmdb::StrCat(
      "{\"correct\": ", failed == 0 ? "true" : "false",
      ", \"attempted\": ", attempted, ", \"failed\": ", failed,
      ", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += tmdb::StrCat(i > 0 ? ", " : "", "\"", metrics[i].name,
                        "\": {\"value\": ", FormatNumber(metrics[i].value),
                        ", \"unit\": \"", metrics[i].unit, "\"}");
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
