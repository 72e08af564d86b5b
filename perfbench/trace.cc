#include "trace.h"

#include <fstream>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  Span span;
  span.query_id = query_id_;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatched close by
  // popping through to the span being ended.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::map<std::string, double> Tracer::SelfTimeUs() const {
  // Children of one parent run one after another, never overlapping, so
  // the time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self_us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self_us[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e3;
  }
  return self_us;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& header) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"context\": " << header << ",\n \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"query\": " << s.query_id << ", \"id\": " << i
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
