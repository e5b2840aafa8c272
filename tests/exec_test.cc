// The execution substrate: work-stealing thread pool, fork/join task
// groups, data-parallel loops, and cooperative cancellation tokens.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cancellation.h"
#include "exec/thread_pool.h"

namespace cspdb::exec {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Run([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(3, 4, 10, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPool, SingleThreadPoolDegeneratesToSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  // Caller participates, so with one worker the chunks run in order on
  // the calling thread (no data race on `order`).
  pool.ParallelFor(0, 10, 3, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) order.push_back(static_cast<int>(i));
  });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, NestedParallelForInsideTasksDoesNotDeadlock) {
  ThreadPool pool(3);
  std::atomic<int64_t> total{0};
  TaskGroup group(&pool);
  for (int t = 0; t < 8; ++t) {
    group.Run([&] {
      pool.ParallelFor(0, 50, 5, [&](int64_t lo, int64_t hi) {
        total.fetch_add(hi - lo, std::memory_order_relaxed);
      });
    });
  }
  group.Wait();
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ThreadPool, TaskGroupTasksMaySpawnIntoSameGroup) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 10; ++i) {
    group.Run([&] {
      done.fetch_add(1, std::memory_order_relaxed);
      group.Run([&] { done.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, GlobalPoolExistsAndWorks) {
  std::atomic<int> done{0};
  ThreadPool::Global().ParallelFor(0, 16, 1, [&](int64_t lo, int64_t hi) {
    done.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 16);
  EXPECT_GE(ThreadPool::Global().num_threads(), 1);
}

TEST(Cancellation, RequestCancelLatches) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());  // stays set
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, DeadlineFires) {
  CancellationToken token;
  token.CancelAfter(std::chrono::milliseconds(5));
  EXPECT_FALSE(token.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, TokenStopsPoolWorkCooperatively) {
  ThreadPool pool(4);
  CancellationToken token;
  std::atomic<int64_t> done{0};
  token.RequestCancel();
  pool.ParallelFor(0, 1000, 10, [&](int64_t lo, int64_t hi) {
    if (token.cancelled()) return;  // kernels poll at chunk granularity
    done.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 0);
}

}  // namespace
}  // namespace cspdb::exec
