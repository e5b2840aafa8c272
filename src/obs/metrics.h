// Process-wide metrics registry: named counters, gauges, timers and
// histograms that the instrumentation macros in obs/obs.h update from the
// hot subsystems (search nodes, GAC revisions, semijoin passes, fixpoint
// deltas, ...). Handles returned by the registry are stable for the
// process lifetime, so a call site pays the name lookup once (the macros
// cache the handle in a function-local static) and then a relaxed atomic
// add per update. Every build records; the engines add their per-run
// totals once per run rather than once per event.

#ifndef CSPDB_OBS_METRICS_H_
#define CSPDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "obs/histogram.h"
#include "util/sync.h"

namespace cspdb::obs {

/// A monotonically increasing event count. Thread-safe-enough: relaxed
/// atomics, no ordering guarantees between counters.
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A last-written or high-watermark value (peak queue length, peak
/// intermediate rows).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

  /// Raises the gauge to `v` if `v` is larger (high-watermark semantics).
  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Accumulated wall time across scoped measurements of one named region.
class Timer {
 public:
  void Record(int64_t ns) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> total_ns_{0};
};

/// A point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct TimerValue {
    int64_t count = 0;
    int64_t total_ns = 0;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, TimerValue> timers;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// The process-wide registry. Registration takes a writer lock and
/// snapshots a reader lock; increments on returned handles are
/// lock-free. Names are conventionally dot-separated, subsystem first
/// ("csp.nodes", "gac.revisions", "db.semijoin.rows_removed").
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the counter/gauge/timer registered under `name`, creating it
  /// on first use. The reference stays valid for the process lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Timer& GetTimer(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// The snapshot rendered as a JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "timers": {name: {"count": c, "total_ns": t}, ...},
  ///    "histograms": {name: {"count": c, "sum": s, "min": m, "max": M,
  ///                          "p50": ..., "p90": ..., "p99": ...,
  ///                          "p999": ...,
  ///                          "buckets": [[lo, hi, count], ...]}, ...}}
  /// Histogram buckets are emitted sparsely (nonzero only) as
  /// [inclusive lower bound, exclusive upper bound, count] triples in
  /// ascending order — the shape tools/validate_metrics.py checks.
  std::string SnapshotJson() const;

  /// Zeroes every registered metric (handles stay valid). Test support;
  /// production code accumulates for the process lifetime.
  void ResetAll();

 private:
  MetricsRegistry() = default;

  // Leaf lock: nothing is acquired while holding it. The maps are
  // guarded; the Counter/Gauge/Timer objects they own are not (their
  // state is atomic, and handle addresses are stable across
  // registrations because the maps are node-based).
  mutable util::SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CSPDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CSPDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_
      CSPDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CSPDB_GUARDED_BY(mu_);
};

}  // namespace cspdb::obs

#endif  // CSPDB_OBS_METRICS_H_
