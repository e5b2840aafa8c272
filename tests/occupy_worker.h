// Test helper for admission and queueing tests: parks a pool worker so
// that work submitted after it stays queued until the test opens a gate.

#ifndef CSPDB_TESTS_OCCUPY_WORKER_H_
#define CSPDB_TESTS_OCCUPY_WORKER_H_

#include <future>

#include "exec/thread_pool.h"

namespace cspdb {

// Parks a blocking task on `pool`'s worker and returns once the worker
// has actually picked it up, so everything submitted afterwards stays
// queued (and counted by queued()) until the gate opens.
inline void OccupyWorker(exec::ThreadPool* pool,
                         std::shared_future<void> gate) {
  std::promise<void> started;
  std::future<void> started_future = started.get_future();
  pool->Submit([gate, &started] {
    started.set_value();
    gate.wait();
  });
  started_future.wait();
}

}  // namespace cspdb

#endif  // CSPDB_TESTS_OCCUPY_WORKER_H_
