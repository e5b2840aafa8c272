// CspdbService: the deadline-aware serving layer over the CSP/query
// engines (tentpole of ISSUE 5; DESIGN.md "Serving layer"). A request
// flows through four stages:
//
//   canonicalize -> result cache -> single-flight -> engine
//
// 1. The request is canonically fingerprinted (service/fingerprint.h);
//    a SolveCsp request also keeps its labeling's permutation. The engine
//    always runs on the canonical instance, which only the compute path
//    builds, and the cache stores canonical-space answers, mapped back
//    through each requester's own permutation.
// 2. The sharded LRU result cache (service/result_cache.h) answers
//    repeats — including negative answers (UNSAT, empty, not-contained).
// 3. Concurrent identical misses coalesce onto one engine run
//    (service/single_flight.h).
// 4. The engine runs under a CancellationToken armed with the request
//    deadline (the CSP solver cancels mid-search and the Datalog fixpoint
//    between rounds; the other engines observe deadlines at request
//    boundaries).
//
// Overload behaviour: Submit() maps requests onto the shared thread pool
// behind a bounded admission count — beyond it requests are REJECTED
// immediately, and requests whose deadline passes while queued are shed
// with DEADLINE_EXCEEDED before touching an engine. The service never
// queues unboundedly and never blocks a caller past its deadline.
//
// A clustered node passes Submit() a forward step (net/shard.h): on an
// exact-fingerprint cache miss, before single-flight, the fingerprint's
// owner shard may answer instead of the local engine.
//
// Determinism contract (verified by tests/service_differential_test.cc):
// for a fixed request, the response answer is byte-identical whether it
// was computed cold, served from cache, or coalesced onto another
// caller's run — answers are deterministic functions of the canonical
// request (rows in lexicographic order; the solver run on the canonical
// instance with default options).

#ifndef CSPDB_SERVICE_SERVER_H_
#define CSPDB_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "exec/cancellation.h"
#include "exec/thread_pool.h"
#include "obs/stats_store.h"
#include "service/fingerprint.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "service/single_flight.h"
#include "util/sync.h"

namespace cspdb::service {

struct ServiceOptions {
  /// Pool for async Submit() work; nullptr means ThreadPool::Global().
  exec::ThreadPool* pool = nullptr;

  CacheConfig cache;
  /// Off, nothing is cached, and every request that does not join a
  /// concurrent identical one runs its engine (the differential tests'
  /// direct path).
  bool enable_cache = true;

  /// Admission bound for Submit(): requests beyond this many concurrently
  /// pending (queued or executing) are REJECTED. <= 0 disables admission
  /// control (unbounded; not recommended under load).
  int max_pending = 1024;

  /// Default per-request timeout when the caller passes none; <= 0 means
  /// unlimited.
  int64_t default_timeout_ns = -1;

  /// Safety-valve node budget for the CSP solver; -1 = unlimited. A
  /// budget-aborted search is reported as DEADLINE_EXCEEDED.
  int64_t solver_node_limit = -1;
};

/// This service's own counters: a per-service view of the process-wide
/// "service.*" obs metrics, which sum over every service in the process.
struct ServiceStats {
  int64_t requests = 0;        ///< everything submitted, any outcome
  int64_t ok = 0;              ///< responses with StatusCode::kOk
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;    ///< exact-key lookups that missed
  int64_t coalesced = 0;       ///< served by another request's engine run
  int64_t engine_invocations = 0;
  int64_t shed_deadline = 0;   ///< DEADLINE_EXCEEDED responses
  int64_t rejected = 0;        ///< REJECTED at admission
  int64_t uncacheable = 0;     ///< inexact fingerprint: cache bypassed
};

/// How a request's answer was produced, as recorded in the stats store's
/// RequestOutcome::cache_disposition (obs/ keeps the field an opaque
/// int32; this enum is its service-side meaning).
enum class CacheDisposition {
  kMiss = 0,       ///< computed by an engine run this request paid for
  kHit = 1,        ///< served from the result cache
  kCoalesced = 2,  ///< served by another request's in-flight engine run
  kBypass = 3,     ///< inexact fingerprint: cache not consulted
};

class CspdbService {
 public:
  /// The owner-shard hop of a clustered node, asked with the request and
  /// its exact fingerprint on a local cache miss. Returns the owner's
  /// response, or nullopt to compute locally (this node owns the key, or
  /// the owner failed or shed the request). Runs on a pool thread and may
  /// block on the network.
  using Forward = std::function<std::optional<Response>(
      const ServiceRequest&, const Fingerprint&)>;

  explicit CspdbService(ServiceOptions options = {});

  /// Blocks until every async submission has completed.
  ~CspdbService();

  CspdbService(const CspdbService&) = delete;
  CspdbService& operator=(const CspdbService&) = delete;

  /// Synchronous path: handles the request, engines included, on the
  /// calling thread. `timeout_ns` is relative; <= 0 uses
  /// options.default_timeout_ns.
  Response Handle(const ServiceRequest& request, int64_t timeout_ns = -1);

  /// Asynchronous path through the admission queue and thread pool: the
  /// one way a request enters a served node. `done` is invoked exactly
  /// once with the final response: inline with kRejected when the
  /// admission bound is hit, on a pool thread otherwise (kDeadlineExceeded
  /// if the deadline passes while queued). An exception escaping the
  /// handler is converted into a kRejected response. `forward`, when set,
  /// is consulted on an exact-fingerprint cache miss; its answers are not
  /// cached here.
  void Submit(ServiceRequest request, int64_t timeout_ns,
              std::function<void(Response)> done, Forward forward = {});

  /// Future flavor of Submit(), for callers that may block.
  std::future<Response> Submit(ServiceRequest request,
                               int64_t timeout_ns = -1);

  /// Cache-only probe: canonicalizes `request`, reports its fingerprint
  /// through *fingerprint (always, hit or miss), and returns the
  /// mapped-back cached response on a hit — counted as a served request
  /// and cache hit, exactly like a Handle() that hit. On a miss, or for
  /// an inexact fingerprint, nothing is counted and std::nullopt is
  /// returned.
  std::optional<Response> Probe(const ServiceRequest& request,
                                Fingerprint* fingerprint);

  ServiceStats stats() const;

  ResultCache& cache() { return cache_; }

  /// Per-fingerprint outcome history: every canonicalized request records
  /// its outcome here keyed by its canonical fingerprint, so callers (and
  /// a future adaptive dispatcher) can ask how identical prior requests
  /// behaved. Bounded LRU with the store's default capacity — see
  /// obs/stats_store.h.
  const obs::StatsStore& stats_store() const { return stats_store_; }

  /// Async submissions currently queued or executing (sampling view for
  /// gauges; already stale when returned).
  int pending() const { return pending_.load(std::memory_order_relaxed); }

 private:
  // Canonical form of a request: the cache/single-flight key, plus the
  // permutation SolveCsp needs to relabel the instance for the engine and
  // to map answers back.
  struct CanonicalRequest {
    Fingerprint fingerprint;
    std::vector<int> perm;  // kSolveCsp: variable -> canonical index
  };

  CanonicalRequest Canonicalize(const ServiceRequest& request) const;

  // The request path behind Handle, Submit and Probe. `request_id` is
  // nonzero only on the async path (it closes the submit-side flow arrow
  // and tags the stats-store record); `queue_wait_ns` is the enqueue ->
  // task-start wait stamped by Submit. A non-null `probe` makes this a
  // cache-only probe: *probe receives the fingerprint, and a miss
  // returns nullopt with nothing counted. Every other call returns a
  // response.
  std::optional<Response> HandleAbsolute(const ServiceRequest& request,
                                         int64_t deadline_ns,
                                         uint64_t request_id = 0,
                                         int64_t queue_wait_ns = 0,
                                         const Forward& forward = {},
                                         Fingerprint* probe = nullptr);

  // Runs the engine for `request` (for SolveCsp, on the canonical
  // instance, which it builds from canon.perm).
  // Returns nullptr iff the run was deadline/budget-aborted. On success
  // `*work_items` is set to the engine-specific work size (search nodes,
  // result rows, derived facts, ...) for the stats store.
  std::shared_ptr<const EngineAnswer> RunEngine(
      const ServiceRequest& request, const CanonicalRequest& canon,
      int64_t deadline_ns, int64_t* work_items);

  // Converts a canonical-space answer into request space (identity for
  // all kinds except SolveCsp, which un-relabels the solution).
  EngineAnswer MapBack(const EngineAnswer& canonical,
                       const CanonicalRequest& canon) const;

  ServiceOptions options_;
  exec::ThreadPool* pool_;
  ResultCache cache_;
  SingleFlight single_flight_;
  obs::StatsStore stats_store_;

  // Flow-event / stats-store request ids; 0 is reserved for "no request".
  std::atomic<uint64_t> next_request_id_{1};

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> ok_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> engine_invocations_{0};
  std::atomic<int64_t> shed_deadline_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> uncacheable_{0};

  // pending_ stays an atomic (Submit's admission check is a lock-free
  // fetch_add), but every decrement happens under drain_mu_ so the
  // destructor's drain wait cannot miss the zero transition.
  std::atomic<int> pending_{0};
  util::Mutex drain_mu_;
  util::CondVar drain_cv_;
};

}  // namespace cspdb::service

#endif  // CSPDB_SERVICE_SERVER_H_
