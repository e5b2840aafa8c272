#include "exec/thread_pool.h"

#include <atomic>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace cspdb::exec {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  // Pool instances are numbered so worker track names stay unique even
  // when a process runs several pools.
  static std::atomic<int> next_pool_id{0};
  const int pool_id = next_pool_id.fetch_add(1, std::memory_order_relaxed);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    std::string name = "exec.worker." + std::to_string(pool_id) + "." +
                       std::to_string(i);
    workers_.emplace_back(
        [this, name = std::move(name)] { WorkerLoop(name); });
  }
  // Wait until every worker has entered its loop (and registered its
  // trace track): callers may start a trace session or tear the pool
  // down immediately after construction, and both must observe fully
  // started workers.
  util::MutexLock lock(mu_);
  while (started_ != num_threads) started_cv_.Wait(mu_);
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  // Workers stop only once the queue is empty, so a task left here was
  // submitted after they stopped: dropping it would be a bug.
  util::MutexLock lock(mu_);
  CSPDB_CHECK_MSG(tasks_.empty(),
                  "ThreadPool destroyed with tasks still queued");
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::Submit(std::function<void()> fn) {
  CSPDB_DCHECK(fn != nullptr);
  // Carry the submitter's request context across the thread hop. Only
  // wrap when a context is actually installed.
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  if (ctx.request_id != 0) {
    fn = [ctx, inner = std::move(fn)] {
      obs::TraceContextScope scope(ctx);
      inner();
    };
  }
  {
    util::MutexLock lock(mu_);
    tasks_.push_back(std::move(fn));
  }
  cv_.NotifyOne();
}

int64_t ThreadPool::queued() const {
  util::MutexLock lock(mu_);
  return static_cast<int64_t>(tasks_.size());
}

void ThreadPool::WorkerLoop(const std::string& name) {
  obs::TraceSession::SetCurrentThreadName(name.c_str());  // copies the name
  {
    util::MutexLock lock(mu_);
    ++started_;
  }
  started_cv_.NotifyOne();
  while (true) {
    std::function<void()> fn;
    {
      util::MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) cv_.Wait(mu_);
      if (tasks_.empty()) return;  // stopped, and every task has run
      fn = std::move(tasks_.front());
      tasks_.pop_front();
    }
    fn();
  }
}

}  // namespace cspdb::exec
