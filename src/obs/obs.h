// Instrumentation macros: the one header hot subsystems include.
//
// Every build compiles them. A counter add is one relaxed atomic on a
// handle cached in a function-local static, a timer or histogram scope
// reads the clock twice, and a trace macro tests one flag unless a
// session is active (CSPDB_TRACE=<path>). Keep them out of per-event
// inner loops: an engine that already counts its work in a per-run stats
// struct records those totals once per run.
//
// Macro summary (names must be string literals or otherwise outlive the
// process):
//   CSPDB_COUNT(name)            increment counter `name` by 1
//   CSPDB_COUNT_N(name, n)       increment counter `name` by n
//   CSPDB_GAUGE_SET(name, v)     set gauge `name` to v
//   CSPDB_GAUGE_MAX(name, v)     raise gauge `name` to v (high watermark)
//   CSPDB_TIMER_SCOPE(name)      RAII: accumulate this scope's wall time
//                                into timer `name` AND emit a trace span
//   CSPDB_HISTO_NS(name, ns)     record ns into latency histogram `name`
//   CSPDB_HISTO_SCOPE(name)      RAII: record this scope's wall time into
//                                histogram `name` AND emit a trace span
//   CSPDB_TRACE_SPAN(name)       RAII: trace span only (no timer)
//   CSPDB_TRACE_INSTANT(name)    instant event in the trace
//   CSPDB_TRACE_COUNTER(name, v) counter track sample in the trace
//   CSPDB_TRACE_FLOW_BEGIN(name, id)  flow-start: arrow from the
//                                enclosing span (requires an open span)
//   CSPDB_TRACE_FLOW_END(name, id)    matching flow-end in the enclosing
//                                span of another thread's lane
//
// CSPDB_TIMER_SCOPE / CSPDB_TRACE_SPAN declare local objects: use them as
// statements inside a block, not as the body of a braceless `if`.

#ifndef CSPDB_OBS_OBS_H_
#define CSPDB_OBS_OBS_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cspdb::obs {

/// RAII helper behind CSPDB_TIMER_SCOPE: records elapsed wall time into a
/// registry timer and brackets the scope with trace begin/end events when
/// a trace session is active.
class TimedSpan {
 public:
  TimedSpan(const char* name, Timer& timer)
      : name_(name),
        timer_(timer),
        tracing_(TraceSession::Global().enabled()),
        start_(std::chrono::steady_clock::now()) {
    if (tracing_) TraceSession::Global().BeginSpan(name_);
  }
  ~TimedSpan() {
    timer_.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    if (tracing_) TraceSession::Global().EndSpan(name_);
  }
  TimedSpan(const TimedSpan&) = delete;
  TimedSpan& operator=(const TimedSpan&) = delete;

 private:
  const char* name_;
  Timer& timer_;
  bool tracing_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII helper behind CSPDB_HISTO_SCOPE: records elapsed wall time into a
/// registry histogram and brackets the scope with trace begin/end events
/// when a trace session is active.
class HistoSpan {
 public:
  HistoSpan(const char* name, Histogram& histogram)
      : name_(name),
        histogram_(histogram),
        tracing_(TraceSession::Global().enabled()),
        start_(std::chrono::steady_clock::now()) {
    if (tracing_) TraceSession::Global().BeginSpan(name_);
  }
  ~HistoSpan() {
    histogram_.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count());
    if (tracing_) TraceSession::Global().EndSpan(name_);
  }
  HistoSpan(const HistoSpan&) = delete;
  HistoSpan& operator=(const HistoSpan&) = delete;

 private:
  const char* name_;
  Histogram& histogram_;
  bool tracing_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cspdb::obs

#define CSPDB_OBS_CONCAT_INNER(a, b) a##b
#define CSPDB_OBS_CONCAT(a, b) CSPDB_OBS_CONCAT_INNER(a, b)

#define CSPDB_COUNT(name) CSPDB_COUNT_N(name, 1)

#define CSPDB_COUNT_N(name, n)                                      \
  do {                                                              \
    static ::cspdb::obs::Counter& cspdb_obs_counter =               \
        ::cspdb::obs::MetricsRegistry::Global().GetCounter((name)); \
    cspdb_obs_counter.Add((n));                                     \
  } while (false)

#define CSPDB_GAUGE_SET(name, v)                                  \
  do {                                                            \
    static ::cspdb::obs::Gauge& cspdb_obs_gauge =                 \
        ::cspdb::obs::MetricsRegistry::Global().GetGauge((name)); \
    cspdb_obs_gauge.Set((v));                                     \
  } while (false)

#define CSPDB_GAUGE_MAX(name, v)                                  \
  do {                                                            \
    static ::cspdb::obs::Gauge& cspdb_obs_gauge =                 \
        ::cspdb::obs::MetricsRegistry::Global().GetGauge((name)); \
    cspdb_obs_gauge.UpdateMax((v));                               \
  } while (false)

#define CSPDB_TIMER_SCOPE(name)                                            \
  static ::cspdb::obs::Timer& CSPDB_OBS_CONCAT(cspdb_obs_timer_,           \
                                               __LINE__) =                 \
      ::cspdb::obs::MetricsRegistry::Global().GetTimer((name));            \
  ::cspdb::obs::TimedSpan CSPDB_OBS_CONCAT(cspdb_obs_span_, __LINE__)(     \
      (name), CSPDB_OBS_CONCAT(cspdb_obs_timer_, __LINE__))

#define CSPDB_HISTO_NS(name, ns)                                      \
  do {                                                                \
    static ::cspdb::obs::Histogram& cspdb_obs_histogram =             \
        ::cspdb::obs::MetricsRegistry::Global().GetHistogram((name)); \
    cspdb_obs_histogram.Record((ns));                                 \
  } while (false)

#define CSPDB_HISTO_SCOPE(name)                                            \
  static ::cspdb::obs::Histogram& CSPDB_OBS_CONCAT(cspdb_obs_histo_,       \
                                                   __LINE__) =             \
      ::cspdb::obs::MetricsRegistry::Global().GetHistogram((name));        \
  ::cspdb::obs::HistoSpan CSPDB_OBS_CONCAT(cspdb_obs_hspan_, __LINE__)(    \
      (name), CSPDB_OBS_CONCAT(cspdb_obs_histo_, __LINE__))

#define CSPDB_TRACE_SPAN(name) \
  ::cspdb::obs::ScopedSpan CSPDB_OBS_CONCAT(cspdb_obs_span_, __LINE__)((name))

#define CSPDB_TRACE_INSTANT(name)                                      \
  do {                                                                 \
    if (::cspdb::obs::TraceSession::Global().enabled()) {              \
      ::cspdb::obs::TraceSession::Global().Instant((name));            \
    }                                                                  \
  } while (false)

#define CSPDB_TRACE_COUNTER(name, v)                                   \
  do {                                                                 \
    if (::cspdb::obs::TraceSession::Global().enabled()) {              \
      ::cspdb::obs::TraceSession::Global().CounterValue((name), (v));  \
    }                                                                  \
  } while (false)

#define CSPDB_TRACE_FLOW_BEGIN(name, id)                               \
  do {                                                                 \
    if (::cspdb::obs::TraceSession::Global().enabled()) {              \
      ::cspdb::obs::TraceSession::Global().FlowStart((name), (id));    \
    }                                                                  \
  } while (false)

#define CSPDB_TRACE_FLOW_END(name, id)                                 \
  do {                                                                 \
    if (::cspdb::obs::TraceSession::Global().enabled()) {              \
      ::cspdb::obs::TraceSession::Global().FlowEnd((name), (id));      \
    }                                                                  \
  } while (false)

#endif  // CSPDB_OBS_OBS_H_
