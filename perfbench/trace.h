#ifndef TMDB_PERFBENCH_TRACE_H_
#define TMDB_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval. Spans of one traced request share `query_id`;
/// `parent` indexes the span that caused this one (-1 for a request's
/// root span).
struct Span {
  uint64_t query_id = 0;
  std::string name;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder for the traced run. Spans are recorded from the
/// benchmark's own code, around each call into an engine layer, and only
/// written out (WriteJson) once the run has ended. Single-threaded.
class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name);
  void End(int index);

  /// Starts a new request: the next Begin opens its root span.
  void NewQuery() { ++query_id_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of self time (duration minus the time covered by child spans)
  /// per span name, in microseconds.
  std::map<std::string, double> SelfTimeUs() const;

  /// Writes every span as JSON, one object per line inside a list.
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  int64_t NowNs() const;

  const std::chrono::steady_clock::time_point epoch_;
  uint64_t query_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing, so the untraced path runs the
/// same code with no clock reads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  const int index_;
};

}  // namespace perfbench

#endif  // TMDB_PERFBENCH_TRACE_H_
