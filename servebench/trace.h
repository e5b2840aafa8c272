// In-memory spans for the benchmark's traced run. Spans are recorded by
// the benchmark around its own calls into each layer (no in-program
// tracing), one SpanLane per recording thread, and written out once at the
// end in Chrome trace-event form (B/E pairs plus thread_name metadata), the
// format tools/validate_trace.py checks.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. `parent` indexes the enclosing span in the same
/// lane (-1 for a root); all spans of one request share `request_id`.
struct Span {
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request_id = 0;
  /// Up to three numeric annotations (e.g. server-reported handle time).
  const char* arg_names[3] = {nullptr, nullptr, nullptr};
  double arg_values[3] = {0.0, 0.0, 0.0};
};

/// Spans of one thread, in begin order. Not thread-safe: one per thread.
class SpanLane {
 public:
  explicit SpanLane(std::string name) : name_(std::move(name)) {}

  /// Opens a span starting now; returns its index for End().
  int Begin(const char* name, uint64_t request_id, int parent) {
    Span span;
    span.name = name;
    span.start_ns = NowNs();
    span.parent = parent;
    span.request_id = request_id;
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int index) { spans_[index].end_ns = NowNs(); }

  /// Appends a span with explicit times; returns its index.
  int Add(const Span& span) {
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }

  Span& at(int index) { return spans_[index]; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLane* lane, const char* name, uint64_t request_id,
             int parent)
      : lane_(lane), index_(lane->Begin(name, request_id, parent)) {}
  ~ScopedSpan() { lane_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLane* lane_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; the parts of
/// a child outside its parent count nothing).
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[span.parent];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (lo < hi) covered[span.parent].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    int64_t union_ns = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [lo, hi] : parts) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

/// Writes every lane as one Chrome trace-event document. Lanes become
/// threads (tid = position + 1) named by thread_name metadata; each span
/// becomes a B/E pair, children nested inside their parent, timestamps in
/// microseconds from the earliest span.
inline void WriteChromeTrace(const std::vector<const SpanLane*>& lanes,
                             std::ostream& out) {
  int64_t base_ns = INT64_MAX;
  for (const SpanLane* lane : lanes) {
    for (const Span& span : lane->spans()) {
      base_ns = std::min(base_ns, span.start_ns);
    }
  }
  auto us = [base_ns](int64_t ns) {
    return static_cast<double>(ns - base_ns) / 1000.0;
  };
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"traceEvents\":[";
  bool first = true;
  auto separator = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (std::size_t t = 0; t < lanes.size(); ++t) {
    separator();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
        << "\"tid\":" << t + 1 << ",\"args\":{\"name\":\"" << lanes[t]->name()
        << "\"}}";
  }
  for (std::size_t t = 0; t < lanes.size(); ++t) {
    const std::vector<Span>& spans = lanes[t]->spans();
    std::vector<std::vector<int>> children(spans.size());
    std::vector<int> roots;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0) {
        roots.push_back(static_cast<int>(i));
      } else {
        children[spans[i].parent].push_back(static_cast<int>(i));
      }
    }
    const std::size_t tid = t + 1;
    // Iterative DFS: (span, entered) pairs.
    std::vector<std::pair<int, bool>> stack;
    for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
      stack.push_back({*it, false});
    }
    while (!stack.empty()) {
      auto [index, entered] = stack.back();
      stack.pop_back();
      const Span& span = spans[index];
      separator();
      if (entered) {
        out << "{\"name\":\"" << span.name << "\",\"ph\":\"E\",\"ts\":"
            << us(span.end_ns) << ",\"pid\":1,\"tid\":" << tid << "}";
        continue;
      }
      out << "{\"name\":\"" << span.name << "\",\"ph\":\"B\",\"ts\":"
          << us(span.start_ns) << ",\"pid\":1,\"tid\":" << tid
          << ",\"args\":{\"request_id\":" << span.request_id;
      for (int a = 0; a < 3; ++a) {
        if (span.arg_names[a] != nullptr) {
          out << ",\"" << span.arg_names[a] << "\":" << span.arg_values[a];
        }
      }
      out << "}}";
      stack.push_back({index, true});
      const std::vector<int>& kids = children[index];
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back({*it, false});
      }
    }
  }
  out << "]}\n";
}

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
