// Unit tests for the serving layer: cache semantics (byte budget,
// negative caching, the cache-only Probe), admission control, deadline
// shedding, destructor drain, and the static-storage / exit-ordering
// regression for services built on ThreadPool::Global().

#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "boolean/hell_nesetril.h"
#include "csp/instance.h"
#include "datalog/program.h"
#include "exec/thread_pool.h"
#include "gen/generators.h"
#include "net/wire.h"
#include "occupy_worker.h"
#include "service/fingerprint.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/workload.h"
#include "util/rng.h"

namespace cspdb::service {
namespace {

// n variables, pairwise distinct, d values: satisfiable iff n <= d.
// With n > d this is the pigeonhole instance — exponential for
// backtracking search, the deterministic "slow engine" of these tests.
CspInstance AllDifferent(int n, int d) {
  std::vector<Tuple> neq;
  for (int x = 0; x < d; ++x) {
    for (int y = 0; y < d; ++y) {
      if (x != y) neq.push_back({x, y});
    }
  }
  CspInstance csp(n, d);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) csp.AddConstraint({u, v}, neq);
  }
  return csp;
}

ServiceRequest SolveRequest(CspInstance csp) {
  return SolveCspRequest{std::move(csp)};
}

// `k` disjoint directed 3-cycles with identical not-equal constraints
// over 3 values (3-colorable, trivially solvable). Every vertex occurs
// once at scope position 0 and once at position 1 with identical edge
// content, so color refinement cannot split anything and the canonical
// labeling search must branch 3k * 3(k-1) * ... ways — past its leaf
// budget for k >= 5. The deterministic "pathologically symmetric"
// instance of these tests.
CspInstance DisjointTriangles(int k) {
  std::vector<Tuple> neq = {{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}};
  CspInstance csp(3 * k, 3);
  for (int c = 0; c < k; ++c) {
    const int base = 3 * c;
    csp.AddConstraint({base, base + 1}, neq);
    csp.AddConstraint({base + 1, base + 2}, neq);
    csp.AddConstraint({base + 2, base}, neq);
  }
  return csp;
}

// The same instance with its variables numbered in reverse: an
// isomorphic relabeling, so it shares the original's fingerprint.
CspInstance ReverseVariables(const CspInstance& csp) {
  CspInstance renamed(csp.num_variables(), csp.num_values());
  const int n = csp.num_variables();
  for (const Constraint& c : csp.constraints()) {
    std::vector<int> scope;
    for (int v : c.scope) scope.push_back(n - 1 - v);
    renamed.AddConstraint(std::move(scope), c.allowed);
  }
  return renamed;
}

TEST(ServiceTest, RepeatAndIsomorphicRequestsHitTheCache) {
  CspdbService service;
  Rng rng(7);
  CspInstance csp = RandomBinaryCsp(8, 3, 10, 0.3, &rng);

  Response first = service.Handle(SolveRequest(csp));
  ASSERT_EQ(first.status, StatusCode::kOk);
  EXPECT_FALSE(first.cache_hit);

  Response repeat = service.Handle(SolveRequest(csp));
  ASSERT_EQ(repeat.status, StatusCode::kOk);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(std::get<CspAnswer>(first.answer).solution,
            std::get<CspAnswer>(repeat.answer).solution);

  // An isomorphic copy (variables reversed) hits too, and its answer is
  // valid for *its* labeling.
  CspInstance renamed = ReverseVariables(csp);
  Response iso = service.Handle(SolveRequest(renamed));
  ASSERT_EQ(iso.status, StatusCode::kOk);
  EXPECT_TRUE(iso.cache_hit);
  const CspAnswer& answer = std::get<CspAnswer>(iso.answer);
  ASSERT_TRUE(answer.solution.has_value());
  EXPECT_TRUE(renamed.IsSolution(*answer.solution));

  EXPECT_EQ(service.stats().engine_invocations, 1);
  EXPECT_EQ(service.stats().cache_hits, 2);
}

// Probe() is the cache-only half of the request path: it canonicalizes
// and looks up, and counts only what it serves.
TEST(ServiceTest, ProbeMissReportsTheFingerprintAndCountsNothing) {
  CspdbService service;
  Rng rng(53);
  const CspInstance csp = RandomBinaryCsp(8, 3, 10, 0.3, &rng);
  Fingerprint fingerprint;
  fingerprint.lo = fingerprint.hi = 0x5a5a5a5a;
  EXPECT_FALSE(service.Probe(SolveRequest(csp), &fingerprint).has_value());
  EXPECT_EQ(fingerprint, CanonicalizeCsp(csp).fingerprint);
  EXPECT_TRUE(fingerprint.exact);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.ok, 0);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 0);
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(stats.engine_invocations, 0);
  EXPECT_EQ(stats.shed_deadline, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.uncacheable, 0);
  EXPECT_EQ(service.stats_store().size(), 0u);
}

TEST(ServiceTest, ProbeHitsAnIsomorphicRelabelingLikeHandle) {
  CspdbService service;
  Rng rng(7);
  const CspInstance csp = RandomBinaryCsp(8, 3, 10, 0.3, &rng);
  ASSERT_EQ(service.Handle(SolveRequest(csp)).status, StatusCode::kOk);
  const ServiceStats before = service.stats();

  const CspInstance renamed = ReverseVariables(csp);
  Fingerprint fingerprint;
  std::optional<Response> probed =
      service.Probe(SolveRequest(renamed), &fingerprint);
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(probed->status, StatusCode::kOk);
  EXPECT_TRUE(probed->cache_hit);
  EXPECT_EQ(fingerprint, CanonicalizeCsp(csp).fingerprint);
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.requests - before.requests, 1);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 1);
  EXPECT_EQ(after.ok - before.ok, 1);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  EXPECT_EQ(after.engine_invocations, before.engine_invocations);

  // Mapped back into the relabeling's own variable order, byte for byte
  // what Handle serves it.
  const CspAnswer& answer = std::get<CspAnswer>(probed->answer);
  ASSERT_TRUE(answer.solution.has_value());
  EXPECT_TRUE(renamed.IsSolution(*answer.solution));
  EXPECT_EQ(net::AnswerBytes(*probed),
            net::AnswerBytes(service.Handle(SolveRequest(renamed))));
}

TEST(ServiceTest, ProbeNeverServesAnInexactFingerprint) {
  CspdbService service;
  const ServiceRequest request = SolveRequest(DisjointTriangles(5));
  ASSERT_EQ(service.Handle(request).status, StatusCode::kOk);
  Fingerprint fingerprint;
  EXPECT_FALSE(service.Probe(request, &fingerprint).has_value());
  EXPECT_FALSE(fingerprint.exact);
  EXPECT_EQ(service.stats().requests, 1);
  EXPECT_EQ(service.stats().uncacheable, 1);
}

TEST(ServiceTest, NegativeAnswersAreCached) {
  CspdbService service;
  // Unsatisfiable: 3 pigeons, 2 holes.
  ServiceRequest request = SolveRequest(AllDifferent(3, 2));
  Response first = service.Handle(request);
  ASSERT_EQ(first.status, StatusCode::kOk);
  EXPECT_FALSE(std::get<CspAnswer>(first.answer).solution.has_value());

  Response repeat = service.Handle(request);
  ASSERT_EQ(repeat.status, StatusCode::kOk);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_FALSE(std::get<CspAnswer>(repeat.answer).solution.has_value());
  EXPECT_EQ(service.stats().engine_invocations, 1);
}

TEST(ServiceTest, CacheCanBeDisabled) {
  ServiceOptions options;
  options.enable_cache = false;
  CspdbService service(options);
  Rng rng(13);
  ServiceRequest request = SolveRequest(RandomBinaryCsp(8, 3, 10, 0.3, &rng));
  service.Handle(request);
  Response repeat = service.Handle(request);
  EXPECT_FALSE(repeat.cache_hit);
  EXPECT_EQ(service.stats().engine_invocations, 2);
  EXPECT_EQ(service.stats().cache_hits, 0);
}

TEST(ServiceTest, HighlySymmetricInstanceDegradesToUncacheable) {
  // Five identical disjoint triangles: the canonical labeling search
  // blows its leaf budget, so the fingerprint is inexact and the request
  // bypasses cache and single-flight (soundness over hit rate).
  CspdbService service;
  ServiceRequest request = SolveRequest(DisjointTriangles(5));
  Response first = service.Handle(request);
  ASSERT_EQ(first.status, StatusCode::kOk);
  EXPECT_TRUE(std::get<CspAnswer>(first.answer).solution.has_value());
  Response repeat = service.Handle(request);
  ASSERT_EQ(repeat.status, StatusCode::kOk);
  EXPECT_FALSE(repeat.cache_hit);
  EXPECT_EQ(service.stats().uncacheable, 2);
  EXPECT_EQ(service.stats().engine_invocations, 2);
}

// --- ResultCache unit tests ---

std::shared_ptr<const EngineAnswer> RowsOfBytes(int ints) {
  RowsAnswer rows;
  rows.arity = 1;
  rows.num_rows = ints;
  rows.rows.assign(ints, 42);
  return std::make_shared<const EngineAnswer>(std::move(rows));
}

TEST(ResultCacheTest, ByteBudgetDrivesLruEviction) {
  CacheConfig config;
  config.max_bytes = 4096;
  config.num_shards = 1;
  ResultCache cache(config);
  // Each entry ~128B overhead + 400B payload; ~7 fit in 4096.
  for (uint64_t i = 0; i < 32; ++i) {
    cache.Insert({i, i, true}, RequestKind::kEvalCq, RowsOfBytes(100));
    EXPECT_LE(cache.stats().bytes, config.max_bytes) << "after insert " << i;
  }
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.entries, 0);
  // Oldest gone, newest resident.
  EXPECT_EQ(cache.Lookup({0, 0, true}, RequestKind::kEvalCq), nullptr);
  EXPECT_NE(cache.Lookup({31, 31, true}, RequestKind::kEvalCq), nullptr);
}

TEST(ResultCacheTest, OversizedEntryIsDropped) {
  CacheConfig config;
  config.max_bytes = 1024;
  config.num_shards = 1;
  ResultCache cache(config);
  cache.Insert({9, 9, true}, RequestKind::kEvalCq, RowsOfBytes(10000));
  EXPECT_EQ(cache.Lookup({9, 9, true}, RequestKind::kEvalCq), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ResultCacheTest, InexactKeysNeverStoredOrHit) {
  ResultCache cache(CacheConfig{});
  Fingerprint inexact{5, 6, false};
  cache.Insert(inexact, RequestKind::kSolveCsp, RowsOfBytes(4));
  EXPECT_EQ(cache.Lookup(inexact, RequestKind::kSolveCsp), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

// --- admission / deadline behaviour ---

TEST(ServiceTest, AdmissionRejectsBeyondMaxPending) {
  exec::ThreadPool pool(1);
  // Occupy the pool's only worker so admitted submissions stay pending.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  OccupyWorker(&pool, gate);

  ServiceOptions options;
  options.pool = &pool;
  options.max_pending = 2;
  Rng rng(17);
  CspInstance csp = RandomBinaryCsp(6, 3, 7, 0.3, &rng);
  {
    CspdbService service(options);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 5; ++i) {
      futures.push_back(service.Submit(SolveRequest(csp)));
    }
    // Beyond max_pending the service rejects immediately, without
    // touching the (blocked) pool.
    int rejected = 0;
    for (int i = 2; i < 5; ++i) {
      ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      if (futures[i].get().status == StatusCode::kRejected) ++rejected;
    }
    EXPECT_EQ(rejected, 3);
    EXPECT_EQ(service.stats().rejected, 3);

    release.set_value();
    EXPECT_EQ(futures[0].get().status, StatusCode::kOk);
    EXPECT_EQ(futures[1].get().status, StatusCode::kOk);
  }  // service drains before the pool is destroyed
}

TEST(ServiceTest, DeadlinePassedWhileQueuedShedsExplicitly) {
  exec::ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  OccupyWorker(&pool, gate);

  ServiceOptions options;
  options.pool = &pool;
  Rng rng(19);
  CspInstance csp = RandomBinaryCsp(6, 3, 7, 0.3, &rng);
  {
    CspdbService service(options);
    std::future<Response> future =
        service.Submit(SolveRequest(csp), /*timeout_ns=*/1'000'000);  // 1ms
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.set_value();
    Response response = future.get();
    EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
    EXPECT_EQ(service.stats().shed_deadline, 1);
    EXPECT_EQ(service.stats().engine_invocations, 0);
  }
}

TEST(ServiceTest, QueuedSubmissionsRunOldestFirst) {
  std::vector<int> order;  // appended only by the pool's one worker
  std::latch finished(6);
  std::promise<void> release;
  exec::ThreadPool pool(1);
  ServiceOptions options;
  options.pool = &pool;
  CspdbService service(options);
  OccupyWorker(&pool, release.get_future().share());
  Rng rng(53);
  for (int i = 0; i < 6; ++i) {
    service.Submit(SolveRequest(RandomBinaryCsp(6, 3, 7, 0.3, &rng)),
                   /*timeout_ns=*/-1, [&order, &finished, i](Response) {
                     order.push_back(i);
                     finished.count_down();
                   });
  }
  release.set_value();
  finished.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ServiceTest, ExpiredDeadlineShedsBeforeTheEngine) {
  CspdbService service;
  Rng rng(23);
  Response response =
      service.Handle(SolveRequest(RandomBinaryCsp(6, 3, 7, 0.3, &rng)),
                     /*timeout_ns=*/1);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().engine_invocations, 0);
}

TEST(ServiceTest, NodeBudgetAbortsSearchMidEngine) {
  // Pigeonhole 11-into-10 is exponential; a small node budget aborts the
  // search deterministically (no wall-clock dependence) and the service
  // reports the shed explicitly. Nothing is cached for the aborted run.
  ServiceOptions options;
  options.solver_node_limit = 200;
  CspdbService service(options);
  ServiceRequest request = SolveRequest(AllDifferent(11, 10));
  Response response = service.Handle(request);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().engine_invocations, 1);
  Response again = service.Handle(request);
  EXPECT_EQ(again.status, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(service.stats().engine_invocations, 2);
}

TEST(ServiceTest, DeadlineCancelsSolverMidSearch) {
  CspdbService service;
  // Exponential instance, 50ms budget: the cancellation token stops the
  // search long before it completes.
  Response response = service.Handle(SolveRequest(AllDifferent(40, 39)),
                                     /*timeout_ns=*/50'000'000);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_GE(service.stats().shed_deadline, 1);
}

TEST(ServiceTest, DeadlineStopsDatalogBetweenRounds) {
  // Transitive closure over a directed path of 2,000 nodes takes about
  // 2,000 rounds; with a 20 ms budget the token stops the fixpoint
  // between two of them. The stopped run is not an answer, so nothing is
  // cached: a repeat is no cache hit.
  DatalogProgram program;
  program.AddRule({{"T", {0, 1}}, {{"E", {0, 1}}}, 2});
  program.AddRule({{"T", {0, 1}}, {{"T", {0, 2}}, {"E", {2, 1}}}, 3});
  program.SetGoal("T");
  const int n = 2000;
  Structure path(GraphVocabulary(), n);
  for (int i = 0; i + 1 < n; ++i) path.AddTuple(0, {i, i + 1});
  const ServiceRequest request =
      DatalogFixpointRequest{std::move(program), std::move(path)};
  CspdbService service;
  Response response = service.Handle(request, /*timeout_ns=*/20'000'000);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  Response again = service.Handle(request, /*timeout_ns=*/20'000'000);
  EXPECT_EQ(again.status, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_GE(service.stats().shed_deadline, 2);
}

// The complete digraph on `n` elements, with or without loops.
Structure CompleteDigraph(int n, bool loops) {
  Structure g(GraphVocabulary(), n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (loops || u != v) g.AddTuple(0, {u, v});
    }
  }
  return g;
}

TEST(ServiceTest, DeadlineStopsEvalCqMidJoin) {
  // Three disjoint E atoms under a six-variable head over the complete
  // digraph on 12 elements: one join of 144^3 = 2,985,984 answer rows,
  // most of a second's work. With a 50 ms budget the join stops partway;
  // a partial answer is no answer, so nothing is cached and a repeat is
  // no cache hit.
  const ConjunctiveQuery q(
      6, {0, 1, 2, 3, 4, 5}, {{"E", {0, 1}}, {"E", {2, 3}}, {"E", {4, 5}}});
  const ServiceRequest request =
      EvalCqRequest{q, CompleteDigraph(12, /*loops=*/true)};
  CspdbService service;
  Response response = service.Handle(request, /*timeout_ns=*/50'000'000);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  Response again = service.Handle(request, /*timeout_ns=*/50'000'000);
  EXPECT_EQ(again.status, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_GE(service.stats().shed_deadline, 2);
}

TEST(ServiceTest, DeadlineStopsDatalogInsideARound) {
  // One rule whose first round alone is most of a second's work and
  // derives nothing: over the loop-free complete digraph on 12 elements
  // the join visits 132^4 rows, since E(x6,x6) comes last in its order,
  // and no row is a loop. A run that polled only between rounds would
  // finish the round, admit nothing and call it the fixpoint. With a
  // 50 ms budget the token stops the round, and a round cut short is no
  // fixpoint even though it admitted nothing.
  DatalogProgram program;
  program.AddRule({{"T", {0}},
                   {{"E", {0, 1}}, {"E", {2, 3}}, {"E", {4, 5}}, {"E", {6, 6}}},
                   7});
  program.SetGoal("T");
  const ServiceRequest request = DatalogFixpointRequest{
      std::move(program), CompleteDigraph(12, /*loops=*/false)};
  CspdbService service;
  Response response = service.Handle(request, /*timeout_ns=*/50'000'000);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  Response again = service.Handle(request, /*timeout_ns=*/50'000'000);
  EXPECT_EQ(again.status, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_GE(service.stats().shed_deadline, 2);
}

TEST(ServiceTest, DestructorDrainsInFlightSubmissions) {
  exec::ThreadPool pool(2);
  std::vector<std::future<Response>> futures;
  Rng rng(29);
  {
    ServiceOptions options;
    options.pool = &pool;
    CspdbService service(options);
    for (int i = 0; i < 40; ++i) {
      futures.push_back(
          service.Submit(SolveRequest(RandomBinaryCsp(7, 3, 8, 0.3, &rng))));
    }
    // Destroyed with work in flight: the destructor must block until all
    // 40 submissions completed (otherwise their lambdas would touch a
    // dead service, and the pool destructor would CHECK-fail on
    // non-empty queues).
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f.get().status, StatusCode::kOk);
  }
}

TEST(ServiceTest, CacheBudgetHoldsUnderWorkloadReplay) {
  ServiceOptions options;
  options.cache.max_bytes = 16 << 10;
  options.cache.num_shards = 2;
  CspdbService service(options);
  WorkloadOptions workload;
  workload.num_requests = 150;
  workload.pool_size = 8;
  workload.seed = 5;
  for (ServiceRequest& request : GenerateRequestStream(workload)) {
    ASSERT_EQ(service.Handle(request).status, StatusCode::kOk);
    ASSERT_LE(service.cache().stats().bytes, options.cache.max_bytes);
  }
  EXPECT_GT(service.stats().cache_hits, 0);
}

// queue_wait_ns contract (ISSUE 8 satellite): latency_ns covers
// handling only; the time an async submission spends queued behind a
// busy worker is reported separately in queue_wait_ns, so the two sum to
// the end-to-end latency the caller observed.
TEST(ServiceTest, QueueWaitIsReportedSeparatelyFromLatency) {
  exec::ThreadPool pool(1);
  ServiceOptions options;
  options.pool = &pool;
  options.enable_cache = false;  // both requests take the engine path
  CspdbService service(options);

  // Park the only worker so the submission measurably queues.
  std::promise<void> release;
  OccupyWorker(&pool, release.get_future().share());
  Rng rng(41);
  std::future<Response> queued =
      service.Submit(SolveRequest(RandomBinaryCsp(8, 3, 10, 0.3, &rng)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();

  Response response = queued.get();
  ASSERT_EQ(response.status, StatusCode::kOk);
  // Queued behind the parked worker for >= the sleep; handling itself is
  // far quicker than the wait on this trivial instance.
  EXPECT_GE(response.queue_wait_ns, 15'000'000);
  EXPECT_GT(response.latency_ns, 0);
  EXPECT_LT(response.latency_ns, response.queue_wait_ns);
}

TEST(ServiceTest, SynchronousHandleHasZeroQueueWait) {
  CspdbService service;
  Rng rng(43);
  Response response =
      service.Handle(SolveRequest(RandomBinaryCsp(8, 3, 10, 0.3, &rng)));
  ASSERT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.queue_wait_ns, 0);
  EXPECT_GT(response.latency_ns, 0);
}

// Stats-store integration (ISSUE 8 tentpole): repeated requests with the
// same canonical fingerprint accumulate outcome history queryable by
// later identical requests, with the cache disposition recorded per run.
TEST(ServiceTest, StatsStoreRecordsOutcomesByFingerprint) {
  CspdbService service;
  Rng rng(47);
  CspInstance csp = RandomBinaryCsp(8, 3, 10, 0.3, &rng);
  ASSERT_EQ(service.Handle(SolveRequest(csp)).status, StatusCode::kOk);
  ASSERT_EQ(service.Handle(SolveRequest(csp)).status, StatusCode::kOk);

  // Both requests canonicalize to one fingerprint.
  EXPECT_EQ(service.stats_store().size(), 1u);
  const std::string dump = service.stats_store().DumpJson();
  EXPECT_NE(dump.find("\"count\": 2"), std::string::npos);
  // First outcome was an engine run (miss), the repeat a cache hit.
  EXPECT_NE(
      dump.find("\"cache_disposition\": " +
                std::to_string(static_cast<int>(CacheDisposition::kHit))),
      std::string::npos);
  EXPECT_NE(
      dump.find("\"cache_disposition\": " +
                std::to_string(static_cast<int>(CacheDisposition::kMiss))),
      std::string::npos);

  // A different request gets its own key.
  CspInstance other = RandomBinaryCsp(9, 3, 12, 0.3, &rng);
  ASSERT_EQ(service.Handle(SolveRequest(other)).status, StatusCode::kOk);
  EXPECT_EQ(service.stats_store().size(), 2u);
}

// Exit-ordering regression (ISSUE 5 satellite): a service with static
// storage duration, backed by the leaked ThreadPool::Global(), must let
// the process exit cleanly — its destructor (run during static
// teardown) drains via Global()'s still-alive workers, and any spans
// emitted after the tracer's atexit flush are dropped, not crashed on.
// The assertion is the test *binary* exiting 0 after this test ran.
TEST(ServiceTest, StaticStorageServiceSurvivesProcessExit) {
  static CspdbService service;
  Rng rng(31);
  std::future<Response> future =
      service.Submit(SolveRequest(RandomBinaryCsp(7, 3, 8, 0.3, &rng)));
  EXPECT_EQ(future.get().status, StatusCode::kOk);
  // Leave one more submission racing process teardown paths: it still
  // completes inside the static destructor's drain.
  service.Submit(SolveRequest(RandomBinaryCsp(7, 3, 8, 0.3, &rng)));
}

}  // namespace
}  // namespace cspdb::service
