// Fixed-size work-stealing thread pool — the execution substrate behind
// the serving layer's request work and the parallel natural join. Each
// worker owns a deque: the owner pushes and pops at the back (LIFO,
// cache-warm), idle workers steal from the front of a victim's deque
// (FIFO, oldest first), so nested fork/join load-balances without a
// global queue bottleneck.
//
// Scheduling primitives:
//   * Submit(fn)            — fire-and-forget task.
//   * TaskGroup             — spawn tasks, Wait() for all; Wait() *helps*
//                             by draining pool tasks, so groups can be
//                             created and awaited from inside pool tasks
//                             (nested fork/join) without deadlock.
//   * ParallelFor(b, e, g)  — blocking data-parallel loop over [b, e) in
//                             chunks of `grain`; the caller participates,
//                             so a 1-thread pool degenerates to a plain
//                             serial loop.
//
// Tasks must not throw (the codebase reports failure via CSPDB_CHECK,
// which aborts). Cooperative cancellation and deadlines are handled above
// this layer with exec::CancellationToken — the pool itself never drops
// submitted work.
//
// Every worker registers a stable "exec.worker.<pool>.<i>" name with the
// tracer
// (obs/trace.h), so spans emitted from pool tasks land on readable,
// per-worker tracks in Perfetto.

#ifndef CSPDB_EXEC_THREAD_POOL_H_
#define CSPDB_EXEC_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace cspdb::exec {

class TaskGroup;

/// A fixed-size pool of worker threads with per-worker work-stealing
/// deques. Construction spawns the workers; destruction drains nothing —
/// callers are expected to Wait() on their TaskGroups / ParallelFor calls
/// before dropping the pool (the destructor CHECKs the queues are empty).
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
  /// Exit-ordering contract (audited for the serving layer, ISSUE 5):
  /// because the pool is leaked, its workers survive static destruction
  /// and atexit, so objects with static storage duration may still drain
  /// work through Global() from their destructors — CspdbService relies
  /// on this to drain pending submissions whenever it is destroyed.
  /// Ordering with the tracer: TraceSession::Start registers an atexit
  /// flush; spans emitted by pool workers *after* that flush has run
  /// (e.g. during a later static destructor's drain) are silently
  /// dropped by the tracer's enabled-flag guard — never a crash, at
  /// worst missing tail spans. A locally constructed pool, by contrast,
  /// must outlive every object that submits to it (its destructor CHECKs
  /// the queues are empty), so declare the pool before the service.
  static ThreadPool& Global();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a fire-and-forget task on the least recently targeted
  /// worker deque. `fn` must not throw.
  ///
  /// Trace-context propagation: if the submitting thread has a non-zero
  /// obs::TraceContext installed (a request id), the task is wrapped so
  /// the same context is installed on the worker thread for the task's
  /// duration — request-scoped flow events keep working across the hop.
  void Submit(std::function<void()> fn);

  /// Tasks pushed and not yet popped, across every worker deque. A
  /// sampling gauge, not a synchronization primitive: the value is
  /// already stale when returned.
  int64_t queued() const { return queued_.load(std::memory_order_relaxed); }

  /// Runs `body(lo, hi)` over disjoint chunks covering [begin, end), each
  /// at most `grain` long. Blocks until every chunk completed. The calling
  /// thread executes chunks too, so this is safe (just serial) on a pool
  /// with one worker and safe to call from inside a pool task.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

 private:
  friend class TaskGroup;

  struct WorkerQueue {
    // Leaf lock in the pool: nothing else is acquired while holding it
    // (Submit releases it before touching idle_mu_).
    util::Mutex mu;
    std::deque<std::function<void()>> tasks CSPDB_GUARDED_BY(mu);
  };

  void WorkerLoop(int worker_index);

  // Pops a task preferring `home`'s deque back, then stealing from the
  // front of the others. Returns an empty function if no work was found.
  std::function<void()> TakeTask(int home);

  // Runs one pending task if any is available. Used by TaskGroup::Wait to
  // help instead of blocking. Returns false if every deque was empty.
  bool RunOneTask();

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::vector<std::string> worker_names_;

  std::atomic<uint64_t> submit_cursor_{0};
  std::atomic<int64_t> queued_{0};  // tasks pushed, not yet popped
  std::atomic<bool> stop_{false};

  // Sleep/wake management for idle workers. Never held together with a
  // WorkerQueue::mu.
  util::Mutex idle_mu_;
  util::CondVar idle_cv_;

  // Startup latch: the constructor blocks until every worker has entered
  // its loop and registered its trace track.
  int started_ CSPDB_GUARDED_BY(idle_mu_) = 0;
  util::CondVar started_cv_;
};

/// A fork/join scope: Run() spawns tasks on the pool, Wait() blocks until
/// all of them (including tasks they spawned into the same group) have
/// finished. Wait() helps execute pending pool tasks while it waits, so
/// nested groups inside pool tasks cannot deadlock.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn` on the pool as part of this group. May be called from
  /// inside a task of the same group (the group stays open until every
  /// transitively spawned task finishes). `fn` must not throw.
  void Run(std::function<void()> fn);

  /// Blocks until every task Run() so far (and any they spawned) is done.
  void Wait();

 private:
  ThreadPool* pool_;
  // Acquired only after every pool lock is released (tasks run lock-free;
  // Wait helps via RunOneTask before touching mu_).
  util::Mutex mu_;
  util::CondVar cv_;
  int64_t pending_ CSPDB_GUARDED_BY(mu_) = 0;
};

}  // namespace cspdb::exec

#endif  // CSPDB_EXEC_THREAD_POOL_H_
