#include "load.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <cstdio>
#include <thread>
#include <utility>

#include "base/random.h"
#include "base/string_util.h"
#include "net/client.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMaxFailuresKept = 8;
constexpr size_t kMaxDistinctStats = 4;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

/// One synchronous connection plus the checks applied to its answers.
class Client {
 public:
  Client(const WorkloadSpec& workload, int port,
         const std::vector<Digest>& expected)
      : workload_(workload), port_(port), expected_(expected) {}

  tmdb::Status Connect() { return client_.Connect("127.0.0.1", port_); }

  /// Sends read `q`, checks the answer and records it in `log`.
  void Read(size_t q, LoadResult* log) {
    const tmdb::WireRequest request =
        MakeRequest(workload_, workload_.queries[q]);
    const Clock::time_point start = Clock::now();
    tmdb::Result<tmdb::ClientResult> result = Send(request);
    const double ms = MsSince(start);
    ++log->attempted;
    const std::string& name = workload_.queries[q].name;
    if (!result.ok()) {
      log->Fail(tmdb::StrCat(name, ": ", result.status().ToString()));
      return;
    }
    if (RowsDigest(result->rows) != expected_[q]) {
      log->Fail(tmdb::StrCat(name, ": wrong answer (", result->rows.size(),
                              " rows, expected ", expected_[q].rows, ")"));
      return;
    }
    if (!result->has_grant ||
        result->grant.granted_memory_bytes != DefaultGrantBytes() ||
        result->grant.granted_threads < workload_.num_threads) {
      log->Fail(tmdb::StrCat(name, ": admission grant differs from the "
                                    "traced path's options"));
      return;
    }
    log->read_ms.push_back(ms);
    log->read_ms_by_query[q].push_back(ms);
    Observe(q, result->stats, log);
  }

  /// Sends the INSERT with `key`, checks its acknowledgement and records
  /// it in `log`.
  void Write(uint64_t key, LoadResult* log) {
    tmdb::WireRequest request;
    request.query = WriteStatement(key);
    const Clock::time_point start = Clock::now();
    tmdb::Result<tmdb::ClientResult> result = Send(request);
    const double ms = MsSince(start);
    ++log->attempted;
    if (!result.ok()) {
      log->Fail("write: " + result.status().ToString());
      return;
    }
    if (result->message != WriteAcknowledgement()) {
      log->Fail("write: unexpected acknowledgement '" + result->message +
                 "'");
      return;
    }
    log->write_ms.push_back(ms);
  }

 private:
  tmdb::Result<tmdb::ClientResult> Send(const tmdb::WireRequest& request) {
    if (!client_.connected()) {
      TMDB_RETURN_IF_ERROR(client_.Connect("127.0.0.1", port_));
    }
    return client_.Run(request);
  }

  static void Observe(size_t q, const tmdb::ExecStats& stats,
                      LoadResult* log) {
    std::vector<tmdb::ExecStats>& seen = log->observed_stats[q];
    for (const tmdb::ExecStats& s : seen) {
      if (CounterMismatch(s, stats).empty()) return;
    }
    if (seen.size() < kMaxDistinctStats) seen.push_back(stats);
  }

  const WorkloadSpec& workload_;
  const int port_;
  const std::vector<Digest>& expected_;
  tmdb::QueryClient client_;
};

namespace {

/// Samples the resident set size until stopped; keeps the maximum.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return peak_mb_;
  }

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      peak_mb_ = std::max(peak_mb_, CurrentRssMb());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    peak_mb_ = std::max(peak_mb_, CurrentRssMb());
  }

  std::atomic<bool> stop_{false};
  double peak_mb_ = 0;  // written only by the sampler thread until joined
  std::thread thread_;
};

}  // namespace

void LoadResult::Fail(std::string message) {
  ++failed;
  if (failures.size() < kMaxFailuresKept) {
    failures.push_back(std::move(message));
  }
}

void LoadResult::AddOutcomes(const LoadResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < kMaxFailuresKept) failures.push_back(f);
  }
}

void LoadResult::Merge(const LoadResult& other) {
  AddOutcomes(other);
  read_ms.insert(read_ms.end(), other.read_ms.begin(), other.read_ms.end());
  write_ms.insert(write_ms.end(), other.write_ms.begin(), other.write_ms.end());
  for (size_t q = 0; q < read_ms_by_query.size(); ++q) {
    read_ms_by_query[q].insert(read_ms_by_query[q].end(),
                               other.read_ms_by_query[q].begin(),
                               other.read_ms_by_query[q].end());
    for (const tmdb::ExecStats& s : other.observed_stats[q]) {
      bool known = false;
      for (const tmdb::ExecStats& mine : observed_stats[q]) {
        known = known || CounterMismatch(mine, s).empty();
      }
      if (!known && observed_stats[q].size() < kMaxDistinctStats) {
        observed_stats[q].push_back(s);
      }
    }
  }
}

LoadResult EmptyLoadResult(const WorkloadSpec& workload) {
  LoadResult log;
  log.read_ms_by_query.resize(workload.queries.size());
  log.observed_stats.resize(workload.queries.size());
  return log;
}

double CurrentRssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages_total = 0;
  long pages_resident = 0;
  const int read = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (read != 2) return 0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

ClientPool::ClientPool(const WorkloadSpec& workload, int port,
                       const std::vector<Digest>& expected)
    : workload_(workload) {
  for (int c = 0; c < workload.clients; ++c) {
    clients_.push_back(std::make_unique<Client>(workload, port, expected));
  }
}

ClientPool::~ClientPool() = default;

tmdb::Status ClientPool::Connect() {
  for (const std::unique_ptr<Client>& client : clients_) {
    TMDB_RETURN_IF_ERROR(client->Connect());
  }
  return tmdb::Status::OK();
}

LoadResult ClientPool::RunEachOnce(bool every_connection) {
  LoadResult log = EmptyLoadResult(workload_);
  const size_t connections = every_connection ? clients_.size() : 1;
  for (size_t c = 0; c < connections; ++c) {
    for (size_t q = 0; q < workload_.queries.size(); ++q) {
      clients_[c]->Read(q, &log);
    }
  }
  return log;
}

LoadResult ClientPool::RunClosedLoop(double seconds, uint64_t seed) {
  const WorkloadSpec& workload = workload_;
  std::vector<LoadResult> logs(clients_.size(), EmptyLoadResult(workload));
  RssSampler rss;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < workload.clients; ++c) {
    threads.emplace_back([&, c] {
      // Each client cycles through its own seeded shuffle of the weighted
      // mix; every write_every-th request is an INSERT instead.
      std::vector<size_t> cycle;
      for (size_t q = 0; q < workload.queries.size(); ++q) {
        for (int w = 0; w < workload.queries[q].weight; ++w) cycle.push_back(q);
      }
      tmdb::Random rng(seed * 1000003 + static_cast<uint64_t>(c));
      for (size_t i = cycle.size(); i > 1; --i) {
        std::swap(cycle[i - 1], cycle[rng.Uniform(i)]);
      }
      LoadResult* log = &logs[static_cast<size_t>(c)];
      Client& client = *clients_[static_cast<size_t>(c)];
      uint64_t writes = 0;
      size_t next_read = 0;
      for (uint64_t n = 1; Clock::now() < deadline; ++n) {
        if (workload.write_every > 0 && n % workload.write_every == 0) {
          ++writes;
          client.Write(static_cast<uint64_t>(c) * 100000000ULL + writes, log);
        } else {
          client.Read(cycle[next_read], log);
          next_read = (next_read + 1) % cycle.size();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult total = EmptyLoadResult(workload);
  total.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  total.peak_rss_mb = rss.Stop();
  for (const LoadResult& log : logs) total.Merge(log);
  return total;
}

}  // namespace perfbench
