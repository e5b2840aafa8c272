// Fixed-size thread pool — the execution substrate behind the serving
// layer's request work. One mutex-guarded FIFO queue feeds every worker:
// Submit pushes at the back and workers pop at the front, so a backlog
// runs oldest first. Every engine runs serially inside its task; nothing
// forks work from inside the pool.
//
// Tasks must not throw (the codebase reports failure via CSPDB_CHECK,
// which aborts). Cooperative cancellation and deadlines are handled above
// this layer with exec::CancellationToken — the pool itself never drops
// submitted work.
//
// Every worker registers a stable "exec.worker.<pool>.<i>" name with the
// tracer (obs/trace.h), so spans emitted from pool tasks land on
// readable, per-worker tracks in Perfetto.

#ifndef CSPDB_EXEC_THREAD_POOL_H_
#define CSPDB_EXEC_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace cspdb::exec {

/// A fixed-size pool of worker threads sharing one FIFO task queue.
/// Construction spawns the workers and returns once each is running;
/// destruction runs every task still queued, joins the workers, and
/// CHECKs that nothing was submitted after they stopped.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. `num_threads <= 0` means one worker
  /// per hardware thread.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide default pool, sized to the hardware concurrency.
  /// Never destroyed (leaked singleton, like the obs registries).
  ///
  /// Exit-ordering contract: because the pool is leaked, its workers
  /// survive static destruction and atexit, so objects with static
  /// storage duration may still drain work through Global() from their
  /// destructors — CspdbService relies on this to drain pending
  /// submissions whenever it is destroyed. Ordering with the tracer:
  /// TraceSession::Start registers an atexit flush; spans emitted by pool
  /// workers *after* that flush has run (e.g. during a later static
  /// destructor's drain) are silently dropped by the tracer's
  /// enabled-flag guard — never a crash, at worst missing tail spans. A
  /// locally constructed pool, by contrast, must outlive every object
  /// that submits to it, so declare the pool before the service.
  static ThreadPool& Global();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Appends a fire-and-forget task to the queue. `fn` must not throw.
  ///
  /// Trace-context propagation: if the submitting thread has a non-zero
  /// obs::TraceContext installed (a request id), the task is wrapped so
  /// the same context is installed on the worker thread for the task's
  /// duration — request-scoped flow events keep working across the hop.
  void Submit(std::function<void()> fn);

  /// Tasks pushed and not yet popped. A sampling gauge, not a
  /// synchronization primitive: the value is already stale when returned.
  int64_t queued() const;

 private:
  // Registers `name` as the worker's trace track, then runs tasks until
  // the pool stops and the queue is empty.
  void WorkerLoop(const std::string& name);

  // Leaf lock: guards the queue, the stop flag and the startup count.
  mutable util::Mutex mu_;
  util::CondVar cv_;  // signalled on every push and on stop
  std::deque<std::function<void()>> tasks_ CSPDB_GUARDED_BY(mu_);
  bool stop_ CSPDB_GUARDED_BY(mu_) = false;

  // Startup latch: only the constructor waits on started_cv_, so a
  // starting worker wakes it without waking its idle siblings.
  util::CondVar started_cv_;
  int started_ CSPDB_GUARDED_BY(mu_) = 0;

  std::vector<std::thread> workers_;
};

}  // namespace cspdb::exec

#endif  // CSPDB_EXEC_THREAD_POOL_H_
