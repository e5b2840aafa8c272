// The execution substrate: the FIFO thread pool and cooperative
// cancellation tokens.
//
// Every latch or result a task touches is declared before the pool, so
// the pool's destructor joins the workers before those objects die.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cancellation.h"
#include "exec/thread_pool.h"
#include "occupy_worker.h"

namespace cspdb::exec {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> done{0};
  std::latch finished(100);
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done, &finished] {
      done.fetch_add(1, std::memory_order_relaxed);
      finished.count_down();
    });
  }
  finished.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, TasksStartInSubmissionOrder) {
  std::vector<int> order;
  std::latch finished(8);
  std::promise<void> release;
  ThreadPool pool(1);
  // With the only worker parked, all eight tasks queue before any runs;
  // the worker then runs them one at a time, so `order` needs no lock.
  OccupyWorker(&pool, release.get_future().share());
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&order, &finished, i] {
      order.push_back(i);
      finished.count_down();
    });
  }
  EXPECT_EQ(pool.queued(), 8);
  release.set_value();
  finished.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPool, DestructorRunsEveryQueuedTask) {
  std::atomic<int> ran{0};
  std::promise<void> release;
  std::thread opener;
  {
    ThreadPool pool(1);
    OccupyWorker(&pool, release.get_future().share());
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Open the gate from outside once the destructor is (almost surely)
    // already waiting, so the stop request finds all eight tasks queued.
    opener = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.set_value();
    });
  }
  opener.join();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, GlobalPoolExistsAndWorks) {
  // The global pool outlives this test, so the task co-owns its latch.
  auto finished = std::make_shared<std::latch>(16);
  for (int i = 0; i < 16; ++i) {
    ThreadPool::Global().Submit([finished] { finished->count_down(); });
  }
  finished->wait();
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
  CancellationToken token;
  std::atomic<int64_t> done{0};
  std::latch finished(100);
  ThreadPool pool(4);
  token.RequestCancel();
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&token, &done, &finished] {
      // Tasks poll the token at their safe points.
      if (!token.cancelled()) done.fetch_add(1, std::memory_order_relaxed);
      finished.count_down();
    });
  }
  finished.wait();
  EXPECT_EQ(done.load(), 0);
}

}  // namespace
}  // namespace cspdb::exec
