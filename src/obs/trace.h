// Span tracer emitting Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing. A session buffers begin/end/instant events in memory
// (one small POD per event, names must be string literals) and writes the
// {"traceEvents": [...]} object on Stop()/Flush(), which also runs at
// process exit.
//
// Activation: the first touch of TraceSession::Global() reads the
// CSPDB_TRACE environment variable; if set, the session opens that path
// and enables itself. Tests and tools can instead call Start(path)
// programmatically. When disabled, emitting is a single relaxed atomic
// load, so the instrumentation macros stay cheap when no trace is
// requested.

#ifndef CSPDB_OBS_TRACE_H_
#define CSPDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/sync.h"

namespace cspdb::obs {

/// Request-scoped trace context, propagated across thread hops so a
/// request's spans stitch into one logical lane via flow events. The
/// current context is thread-local; exec::ThreadPool::Submit captures it
/// at enqueue time and re-installs it inside the task wrapper, so any
/// code running on behalf of a request can ask "which request?" without
/// plumbing an argument through every layer. `request_id` 0 means "no
/// request" (nothing is captured or emitted).
struct TraceContext {
  uint64_t request_id = 0;
};

/// The calling thread's current context ({0} when none is installed).
TraceContext CurrentTraceContext();

/// RAII: installs `ctx` as the calling thread's context, restoring the
/// previous one on destruction (contexts nest like scopes).
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// The process-wide trace session.
class TraceSession {
 public:
  /// Lazily constructed singleton; first call honors CSPDB_TRACE.
  static TraceSession& Global();

  /// The calling thread's trace track id: a small sequential integer
  /// assigned on first use (0 for the first thread that emits, 1 for the
  /// next, ...). Stable for the thread's lifetime and collision-free,
  /// unlike hashing std::thread::id.
  static uint64_t CurrentTid();

  /// Names the calling thread's track ("exec.worker.0.3"). Remembered
  /// across Start()/Stop() cycles and emitted as a thread_name metadata
  /// event in every written trace, so worker threads register once at
  /// spawn. Safe to call whether or not a session is recording.
  static void SetCurrentThreadName(const char* name);

  /// True if events are currently being recorded.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts recording to `path` (overwrites). A running session is
  /// stopped and flushed first.
  void Start(const std::string& path);

  /// Flushes buffered events to the file and disables recording.
  /// No-op if not recording.
  void Stop();

  /// Writes the events buffered so far without ending the session.
  void Flush();

  /// Emits a duration-begin event ("ph":"B"). `name` must outlive the
  /// session (string literals in practice). Balanced by EndSpan — use the
  /// RAII wrappers below rather than calling these directly.
  void BeginSpan(const char* name);

  /// Emits the matching duration-end event ("ph":"E").
  void EndSpan(const char* name);

  /// Emits an instant event ("ph":"i", thread scope).
  void Instant(const char* name);

  /// Emits a counter event ("ph":"C") so numeric series (queue lengths,
  /// delta sizes) render as tracks in the viewer.
  void CounterValue(const char* name, int64_t value);

  /// Emits a flow-start event ("ph":"s"). Chrome/Perfetto draw an arrow
  /// from the duration span enclosing this event to the span enclosing
  /// the matching FlowEnd — which is how a request's spans link across
  /// worker-thread lanes. Lifetime rules (validated by
  /// tools/validate_trace.py): a flow event must be emitted while a
  /// span is open on its thread (it binds to that span), and every
  /// started id must be finished exactly once before the session ends.
  void FlowStart(const char* name, uint64_t id);

  /// Emits the matching flow-end event ("ph":"f", "bp":"e" — binds to
  /// the *enclosing* span rather than the next one to start).
  void FlowEnd(const char* name, uint64_t id);

 private:
  TraceSession();

  struct Event {
    char phase;        // 'B', 'E', 'i', 'C', 's', or 'f'
    const char* name;  // not owned; must outlive the session
    int64_t ts_ns;     // relative to session start
    uint64_t tid;
    int64_t arg;  // counter value for 'C'; flow id for 's'/'f'
  };

  void Record(char phase, const char* name, int64_t arg);
  // Session-relative timestamp; reads t0_ns_, so the caller holds mu_.
  int64_t NowNs() const CSPDB_REQUIRES(mu_);
  // Rewrites the output file from the full event buffer (the file is
  // valid JSON after every flush).
  void WriteFileLocked() CSPDB_REQUIRES(mu_);
  // Disables recording and flushes; shared by Stop() and Start().
  void StopLocked() CSPDB_REQUIRES(mu_);

  // enabled_ is the lock-free fast-path flag read by every emit site;
  // its transitions happen only under mu_, so Start/Stop/Record cannot
  // interleave half-switched (a racer past the relaxed fast path
  // re-checks under the lock).
  std::atomic<bool> enabled_{false};
  mutable util::Mutex mu_;
  std::string path_ CSPDB_GUARDED_BY(mu_);
  std::vector<Event> events_ CSPDB_GUARDED_BY(mu_);
  // tid -> human-readable track name; persists across Start/Stop cycles.
  std::map<uint64_t, std::string> thread_names_ CSPDB_GUARDED_BY(mu_);
  int64_t t0_ns_ CSPDB_GUARDED_BY(mu_) = 0;
};

/// RAII span: begin on construction, end on destruction. Does nothing if
/// the session is disabled at construction time.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name), active_(TraceSession::Global().enabled()) {
    if (active_) TraceSession::Global().BeginSpan(name_);
  }
  ~ScopedSpan() {
    if (active_) TraceSession::Global().EndSpan(name_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_;
};

}  // namespace cspdb::obs

#endif  // CSPDB_OBS_TRACE_H_
