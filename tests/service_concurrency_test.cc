// Concurrency tests for the serving layer, written to run under
// ThreadSanitizer (the CI tsan job includes the ServiceConcurrency
// suite). The load-bearing assertions: N concurrent identical requests
// cause exactly one engine invocation (single-flight), a leader whose
// deadline expires mid-engine hands its flight to a waiting follower
// (promotion), and a mixed-key stampede stays data-race-free.
//
// The slow instance: RandomBinaryCsp(50, 10, 250, 0.34) with seed 3
// takes ~440ms of deterministic search (16k nodes) through the service's
// canonical path on this hardware class — a wide-enough window that all
// threads released by a barrier join the leader's flight microseconds
// after it starts.

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "csp/instance.h"
#include "gen/generators.h"
#include "service/server.h"
#include "service/workload.h"
#include "util/rng.h"

namespace cspdb::service {
namespace {

CspInstance SlowInstance() {
  Rng rng(3);
  return RandomBinaryCsp(/*num_variables=*/50, /*num_values=*/10,
                         /*num_constraints=*/250, /*tightness=*/0.34, &rng);
}

// Spin barrier: all participants enter Handle within microseconds of
// each other (std::barrier would do, but a spin keeps the wake tight).
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : remaining_(n) {}
  void ArriveAndWait() {
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
    while (remaining_.load(std::memory_order_acquire) > 0) {
    }
  }

 private:
  std::atomic<int> remaining_;
};

TEST(ServiceConcurrency, IdenticalConcurrentRequestsRunEngineExactlyOnce) {
  CspdbService service;
  const CspInstance csp = SlowInstance();
  constexpr int kThreads = 8;
  SpinBarrier barrier(kThreads);
  std::vector<Response> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      barrier.ArriveAndWait();
      responses[i] = service.Handle(SolveCspRequest{csp});
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly one caller ran the engine; everyone else coalesced onto its
  // flight (or, if scheduled very late, hit the cache it populated).
  EXPECT_EQ(service.stats().engine_invocations, 1);
  std::optional<std::vector<int>> reference;
  int coalesced_or_hit = 0;
  for (const Response& r : responses) {
    ASSERT_EQ(r.status, StatusCode::kOk);
    const CspAnswer& answer = std::get<CspAnswer>(r.answer);
    ASSERT_TRUE(answer.solution.has_value());
    EXPECT_TRUE(csp.IsSolution(*answer.solution));
    if (!reference.has_value()) {
      reference = answer.solution;
    } else {
      // Verified *identical* answers: the determinism contract across
      // the coalesced path.
      EXPECT_EQ(*reference, *answer.solution);
    }
    if (r.coalesced || r.cache_hit) ++coalesced_or_hit;
  }
  EXPECT_EQ(coalesced_or_hit, kThreads - 1);
  EXPECT_EQ(service.stats().coalesced + service.stats().cache_hits,
            kThreads - 1);
}

TEST(ServiceConcurrency, ExpiredLeaderHandsFlightToWaitingFollower) {
  const CspInstance csp = SlowInstance();

  // Calibrate on this build/sanitizer: one untimed cold run measures the
  // engine time (sanitizers slow it 10-20x). The leader then gets a
  // quarter of it — two orders of magnitude more than canonicalization,
  // so it reliably reaches the engine, and far too little to finish.
  int64_t engine_ns;
  {
    ServiceOptions probe_options;
    probe_options.enable_cache = false;
    CspdbService probe(probe_options);
    const auto t0 = std::chrono::steady_clock::now();
    Response r = probe.Handle(SolveCspRequest{csp});
    engine_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ASSERT_EQ(r.status, StatusCode::kOk);
  }

  CspdbService service;
  Response leader;
  std::thread leader_thread([&] {
    leader = service.Handle(SolveCspRequest{csp},
                            /*timeout_ns=*/engine_ns / 4);
  });
  // Followers must join the leader's flight before it resolves. Instead
  // of a wall-clock fraction of the calibrated engine time (flaky under
  // scheduler jitter), wait for the event itself: engine_invocations_ is
  // bumped at the top of RunEngine, strictly after the flight is
  // registered in the single-flight table, so once it reads >= 1 the
  // followers are guaranteed to coalesce rather than start a new flight.
  while (service.stats().engine_invocations < 1) std::this_thread::yield();
  Response followers[2];
  std::thread follower_threads[2];
  for (int i = 0; i < 2; ++i) {
    follower_threads[i] = std::thread([&, i] {
      followers[i] = service.Handle(SolveCspRequest{csp});
    });
  }
  leader_thread.join();
  for (std::thread& t : follower_threads) t.join();

  // The leader was shed; its failure did not poison the followers — one
  // was promoted, recomputed under its own (unlimited) deadline, and
  // both got the verified answer.
  EXPECT_EQ(leader.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().shed_deadline, 1);
  EXPECT_EQ(service.stats().engine_invocations, 2);
  std::optional<std::vector<int>> reference;
  for (const Response& r : followers) {
    ASSERT_EQ(r.status, StatusCode::kOk);
    const CspAnswer& answer = std::get<CspAnswer>(r.answer);
    ASSERT_TRUE(answer.solution.has_value());
    EXPECT_TRUE(csp.IsSolution(*answer.solution));
    if (!reference.has_value()) {
      reference = answer.solution;
    } else {
      EXPECT_EQ(*reference, *answer.solution);
    }
  }
}

TEST(ServiceConcurrency, MixedKeyStampedeIsRaceFreeAndAllAnswered) {
  // 4 threads replay overlapping slices of a skewed stream against one
  // service: cache LRU updates, single-flight table churn, and the stats
  // atomics all run concurrently. TSan validates the synchronization;
  // the assertions validate the overload contract (everything answered).
  CspdbService service;
  WorkloadOptions workload;
  workload.num_requests = 120;
  workload.pool_size = 6;
  workload.zipf_s = 1.2;
  workload.seed = 99;
  const std::vector<ServiceRequest> stream = GenerateRequestStream(workload);

  constexpr int kThreads = 4;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < stream.size(); i += kThreads) {
        Response r = service.Handle(stream[i]);
        if (r.status == StatusCode::kOk) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), static_cast<int>(stream.size()));
  EXPECT_EQ(service.stats().requests, static_cast<int64_t>(stream.size()));
  EXPECT_GT(service.stats().cache_hits, 0);
}

}  // namespace
}  // namespace cspdb::service
