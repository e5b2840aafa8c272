#include "service/server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "csp/solver.h"
#include "datalog/eval.h"
#include "db/containment.h"
#include "db/relation.h"
#include "obs/obs.h"
#include "util/check.h"

namespace cspdb::service {

namespace {

constexpr uint64_t kSaltEvalCq = 0x65766171ull;
constexpr uint64_t kSaltDatalog = 0x646c6f67ull;
constexpr uint64_t kSaltContainment = 0x636f6e74ull;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t AbsoluteDeadline(int64_t timeout_ns, int64_t default_timeout_ns) {
  const int64_t t = timeout_ns > 0 ? timeout_ns : default_timeout_ns;
  return t > 0 ? NowNs() + t : -1;
}

bool DeadlinePassed(int64_t deadline_ns) {
  return deadline_ns > 0 && NowNs() >= deadline_ns;
}

// The row indices of `rel` in lexicographic row order. A stable LSD
// radix sort: columns last to first, and within a column one counting
// pass per byte, skipped when every row has the same byte there. The
// values are biased so that unsigned byte order is int order. Unlike a
// comparison sort it takes no data-dependent branch per row.
std::vector<uint32_t> SortedRowOrder(const DbRelation& rel) {
  const auto n = static_cast<uint32_t>(rel.size());
  const auto arity = static_cast<std::size_t>(rel.arity());
  const int* data = rel.data().data();
  std::vector<uint32_t> order(n);
  std::vector<uint32_t> next(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t c = arity; c-- > 0;) {
    auto key = [&](uint32_t r) {
      return static_cast<uint32_t>(data[r * arity + c]) ^ 0x80000000u;
    };
    std::array<std::array<uint32_t, 256>, 4> counts{};
    for (uint32_t r = 0; r < n; ++r) {
      const uint32_t k = key(r);
      for (int b = 0; b < 4; ++b) ++counts[b][(k >> (8 * b)) & 0xffu];
    }
    for (int b = 0; b < 4; ++b) {
      std::array<uint32_t, 256>& count = counts[b];
      if (std::find(count.begin(), count.end(), n) != count.end()) continue;
      uint32_t start = 0;
      for (uint32_t& slot : count) start += std::exchange(slot, start);
      for (uint32_t r : order) next[count[(key(r) >> (8 * b)) & 0xffu]++] = r;
      order.swap(next);
    }
  }
  return order;
}

// The rows of `rel` in lexicographic order, flat: the canonical answer
// order that makes responses byte-identical regardless of evaluation
// path. Sorts row indices and copies each row once.
RowsAnswer CanonicalRows(const DbRelation& rel) {
  const auto arity = static_cast<std::size_t>(rel.arity());
  const int* data = rel.data().data();
  const std::vector<uint32_t> order = SortedRowOrder(rel);
  RowsAnswer out;
  out.arity = rel.arity();
  out.num_rows = static_cast<int64_t>(rel.size());
  out.rows.resize(rel.size() * arity);
  int* dst = out.rows.data();
  for (uint32_t r : order) {
    std::copy_n(data + r * arity, arity, dst);
    dst += arity;
  }
  return out;
}

}  // namespace

CspdbService::CspdbService(ServiceOptions options)
    : options_(options),
      pool_(options.pool != nullptr ? options.pool
                                    : &exec::ThreadPool::Global()),
      cache_(options.cache) {}

CspdbService::~CspdbService() {
  util::MutexLock lock(drain_mu_);
  while (pending_.load(std::memory_order_acquire) != 0) {
    drain_cv_.Wait(drain_mu_);
  }
}

Response CspdbService::Handle(const ServiceRequest& request,
                              int64_t timeout_ns) {
  return *HandleAbsolute(
      request, AbsoluteDeadline(timeout_ns, options_.default_timeout_ns));
}

void CspdbService::Submit(ServiceRequest request, int64_t timeout_ns,
                          std::function<void(Response)> done,
                          Forward forward) {
  const int64_t start_ns = NowNs();
  const int64_t deadline_ns =
      AbsoluteDeadline(timeout_ns, options_.default_timeout_ns);

  const int admitted = pending_.fetch_add(1, std::memory_order_acq_rel);
  if (options_.max_pending > 0 && admitted >= options_.max_pending) {
    {
      // Decrement under drain_mu_ with a notify, like the task path;
      // otherwise a rejected Submit racing the last completing task could
      // drop pending_ to zero silently, leaving a draining destructor
      // waiting on a notification that never comes.
      util::MutexLock lock(drain_mu_);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        drain_cv_.NotifyAll();
      }
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    CSPDB_COUNT("service.shed.rejected");
    Response response;
    response.status = StatusCode::kRejected;
    response.kind = KindOf(request);
    // Stamp latency like every finish() path does, so rejections are
    // distinguishable from genuinely-zero-latency responses in replays.
    response.latency_ns = NowNs() - start_ns;
    done(std::move(response));
    return;
  }

  // Request id for flow tracing and the stats store. Allocated only for
  // *admitted* submissions: a flow start with no matching end (e.g. on a
  // rejected request) would be a dangling arrow, which
  // tools/validate_trace.py treats as an error.
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const int64_t enqueue_ns = NowNs();
  {
    // The flow start must sit inside an open span on this thread (it
    // binds to the enclosing slice); the submit span also makes queue
    // time visible as the gap to the worker's service.handle span.
    CSPDB_TRACE_SPAN("service.submit");
    CSPDB_TRACE_FLOW_BEGIN("service.request", request_id);
    // Install the request context for the duration of the enqueue:
    // ThreadPool::Submit captures it and re-installs it in the task
    // wrapper, carrying the request identity across the thread hop.
    obs::TraceContextScope context_scope(obs::TraceContext{request_id});
    pool_->Submit([this, done = std::move(done), forward = std::move(forward),
                   request = std::move(request), deadline_ns, request_id,
                   enqueue_ns] {
      Response response;
      try {
        response = *HandleAbsolute(request, deadline_ns, request_id,
                                   NowNs() - enqueue_ns, forward);
      } catch (...) {
        // `done` must always run and pending_ must always drop, or
        // callers hang and the destructor's drain never finishes.
        response.status = StatusCode::kRejected;
        response.kind = KindOf(request);
      }
      done(std::move(response));
      // Decrement and notify while holding drain_mu_: the destructor may
      // destroy drain_mu_/drain_cv_ the moment its wait observes
      // pending_ == 0, so the zero transition and the notify must both
      // happen before it can re-acquire the lock and return.
      util::MutexLock lock(drain_mu_);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        drain_cv_.NotifyAll();
      }
    });
  }
}

std::future<Response> CspdbService::Submit(ServiceRequest request,
                                           int64_t timeout_ns) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  Submit(std::move(request), timeout_ns, [promise](Response response) {
    promise->set_value(std::move(response));
  });
  return future;
}

std::optional<Response> CspdbService::Probe(const ServiceRequest& request,
                                            Fingerprint* fingerprint) {
  Fingerprint ignored;
  return HandleAbsolute(request, /*deadline_ns=*/-1, /*request_id=*/0,
                        /*queue_wait_ns=*/0, /*forward=*/{},
                        fingerprint != nullptr ? fingerprint : &ignored);
}

ServiceStats CspdbService::stats() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.engine_invocations =
      engine_invocations_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.uncacheable = uncacheable_.load(std::memory_order_relaxed);
  return s;
}

CspdbService::CanonicalRequest CspdbService::Canonicalize(
    const ServiceRequest& request) const {
  CSPDB_TIMER_SCOPE("service.canonicalize");
  CanonicalRequest canon;
  switch (KindOf(request)) {
    case RequestKind::kSolveCsp: {
      CspLabeling labeling =
          LabelCsp(std::get<SolveCspRequest>(request).instance);
      canon.fingerprint = labeling.fingerprint;
      canon.perm = std::move(labeling.perm);
      break;
    }
    case RequestKind::kEvalCq: {
      const auto& req = std::get<EvalCqRequest>(request);
      canon.fingerprint = CombineFingerprints(
          kSaltEvalCq,
          {FingerprintQuery(req.query), FingerprintStructure(req.database)});
      break;
    }
    case RequestKind::kDatalogFixpoint: {
      const auto& req = std::get<DatalogFixpointRequest>(request);
      canon.fingerprint = CombineFingerprints(
          kSaltDatalog,
          {FingerprintProgram(req.program), FingerprintStructure(req.edb)});
      break;
    }
    case RequestKind::kCheckContainment: {
      const auto& req = std::get<CheckContainmentRequest>(request);
      canon.fingerprint = CombineFingerprints(
          kSaltContainment,
          {FingerprintQuery(req.q1), FingerprintQuery(req.q2)});
      break;
    }
  }
  return canon;
}

std::shared_ptr<const EngineAnswer> CspdbService::RunEngine(
    const ServiceRequest& request, const CanonicalRequest& canon,
    int64_t deadline_ns, int64_t* work_items) {
  engine_invocations_.fetch_add(1, std::memory_order_relaxed);
  CSPDB_COUNT("service.engine_invocations");
  CSPDB_HISTO_SCOPE("service.engine_ns");
  *work_items = 0;
  // Polled by the engines that stop at a deadline: the CSP solver and the
  // Datalog fixpoint.
  exec::CancellationToken cancel;
  if (deadline_ns > 0) {
    cancel.CancelAfter(std::chrono::nanoseconds(deadline_ns - NowNs()));
  }
  switch (KindOf(request)) {
    case RequestKind::kSolveCsp: {
      CSPDB_TIMER_SCOPE("service.engine.solve_csp");
      SolverOptions solver_options;
      solver_options.node_limit = options_.solver_node_limit;
      solver_options.cancel = &cancel;
      // Always solved in canonical space: every isomorphic request maps
      // onto the same deterministic engine run. Only this path builds the
      // canonical instance; a hit, a probe or a forward never does.
      const CspInstance canonical = RelabeledCsp(
          std::get<SolveCspRequest>(request).instance, canon.perm);
      BacktrackingSolver solver(canonical, solver_options);
      CspAnswer answer;
      answer.solution = solver.Solve();
      *work_items = solver.stats().nodes;
      if (solver.stats().aborted) return nullptr;  // deadline / node budget
      answer.complete = true;
      return std::make_shared<const EngineAnswer>(std::move(answer));
    }
    case RequestKind::kEvalCq: {
      CSPDB_TIMER_SCOPE("service.engine.eval_cq");
      const auto& req = std::get<EvalCqRequest>(request);
      const DbRelation result = Evaluate(req.query, req.database);
      *work_items = static_cast<int64_t>(result.size());
      return std::make_shared<const EngineAnswer>(CanonicalRows(result));
    }
    case RequestKind::kDatalogFixpoint: {
      CSPDB_TIMER_SCOPE("service.engine.datalog_fixpoint");
      const auto& req = std::get<DatalogFixpointRequest>(request);
      CSPDB_CHECK_MSG(!req.program.goal().empty(), "program has no goal");
      // The answer is the goal's facts and a count: read both from the
      // flat fixpoint, without building DatalogResult's TupleSet view.
      const DatalogFixpoint fixpoint =
          SemiNaiveFixpoint(req.program, req.edb, &cancel);
      *work_items = fixpoint.TotalFacts();
      if (!fixpoint.Complete()) return nullptr;  // deadline
      DatalogAnswer answer;
      if (const DbRelation* goal = fixpoint.Rows(req.program.goal())) {
        answer.goal_derived = !goal->empty();
        answer.goal_facts = CanonicalRows(*goal);
      } else {
        answer.goal_facts.arity =
            std::max(0, req.program.ArityOf(req.program.goal()));
      }
      answer.total_idb_facts = *work_items;
      return std::make_shared<const EngineAnswer>(std::move(answer));
    }
    case RequestKind::kCheckContainment: {
      CSPDB_TIMER_SCOPE("service.engine.check_containment");
      const auto& req = std::get<CheckContainmentRequest>(request);
      BoolAnswer answer;
      answer.value = IsContainedIn(req.q1, req.q2);
      *work_items = 1;
      return std::make_shared<const EngineAnswer>(answer);
    }
  }
  return nullptr;
}

EngineAnswer CspdbService::MapBack(const EngineAnswer& canonical,
                                   const CanonicalRequest& canon) const {
  const auto* in = std::get_if<CspAnswer>(&canonical);
  if (in == nullptr) return canonical;
  CspAnswer out;
  out.complete = in->complete;
  if (in->solution.has_value()) {
    const std::vector<int>& perm = canon.perm;
    std::vector<int> solution(perm.size());
    for (std::size_t v = 0; v < perm.size(); ++v) {
      solution[v] = (*in->solution)[perm[v]];
    }
    out.solution = std::move(solution);
  }
  return EngineAnswer(std::move(out));
}

std::optional<Response> CspdbService::HandleAbsolute(
    const ServiceRequest& request, int64_t deadline_ns, uint64_t request_id,
    int64_t queue_wait_ns, const Forward& forward, Fingerprint* probe) {
  CSPDB_TIMER_SCOPE("service.handle");
  // Close the submit-side flow arrow first thing inside the handle span,
  // so even requests shed before canonicalization complete their flow
  // (every started id must be finished — validate_trace.py checks).
  if (request_id != 0) {
    CSPDB_TRACE_FLOW_END("service.request", request_id);
  }
  const int64_t start_ns = NowNs();

  Response response;
  response.kind = KindOf(request);

  // Engaged once the request has been canonicalized; stats-store records
  // are keyed by the canonical fingerprint, so requests shed earlier
  // (deadline passed while queued) leave no record.
  std::optional<Fingerprint> recorded_fingerprint;
  int64_t work_items = 0;

  // Every response leaves through here: this node's latency and queue
  // wait (a forwarded response's latency includes the hop), the status
  // counters, and the stats-store record.
  auto finish = [&](StatusCode status) -> Response {
    response.status = status;
    response.latency_ns = NowNs() - start_ns;
    response.queue_wait_ns = queue_wait_ns;
    requests_.fetch_add(1, std::memory_order_relaxed);
    CSPDB_COUNT("service.requests");
    CSPDB_HISTO_NS("service.handle_ns", response.latency_ns);
    if (request_id != 0) {
      CSPDB_HISTO_NS("service.queue_wait_ns", queue_wait_ns);
    }
    if (status == StatusCode::kOk) {
      ok_.fetch_add(1, std::memory_order_relaxed);
    } else if (status == StatusCode::kDeadlineExceeded) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      CSPDB_COUNT("service.shed.deadline");
    }
    // The owner shard records the requests it answered for this node.
    if (recorded_fingerprint.has_value() && !response.served_remotely) {
      CacheDisposition disposition = CacheDisposition::kMiss;
      if (!recorded_fingerprint->exact) {
        disposition = CacheDisposition::kBypass;
      } else if (response.cache_hit) {
        disposition = CacheDisposition::kHit;
      } else if (response.coalesced) {
        disposition = CacheDisposition::kCoalesced;
      }
      obs::RequestOutcome outcome;
      outcome.kind = static_cast<int32_t>(response.kind);
      outcome.status = static_cast<int32_t>(status);
      outcome.cache_disposition = static_cast<int32_t>(disposition);
      outcome.work_items = work_items;
      outcome.wall_ns = response.latency_ns;
      outcome.queue_wait_ns = queue_wait_ns;
      stats_store_.Record(
          {recorded_fingerprint->lo, recorded_fingerprint->hi}, outcome);
    }
    return response;
  };

  // Shed before paying for canonicalization or an engine: a request whose
  // deadline passed while queued gets its explicit status immediately.
  if (DeadlinePassed(deadline_ns)) return finish(StatusCode::kDeadlineExceeded);

  const CanonicalRequest canon = Canonicalize(request);
  recorded_fingerprint = canon.fingerprint;
  if (probe != nullptr) *probe = canon.fingerprint;
  const bool cacheable = options_.enable_cache && canon.fingerprint.exact;

  if (cacheable) {
    std::shared_ptr<const EngineAnswer> cached =
        cache_.Lookup(canon.fingerprint, response.kind);
    if (cached != nullptr) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      response.cache_hit = true;
      response.answer = MapBack(*cached, canon);
      return finish(StatusCode::kOk);
    }
  }
  if (probe != nullptr) return std::nullopt;

  if (!canon.fingerprint.exact) {
    uncacheable_.fetch_add(1, std::memory_order_relaxed);
    CSPDB_COUNT("service.uncacheable");
  } else if (cacheable) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    CSPDB_COUNT("service.cache.miss");
  }

  if (DeadlinePassed(deadline_ns)) return finish(StatusCode::kDeadlineExceeded);

  // A clustered node asks the fingerprint's owner shard before computing.
  // Inexact fingerprints are process-nonce-salted: no other node can
  // hold them, so they are never forwarded. The owner's answer is not
  // cached here — each exact fingerprint stays cached on one node.
  if (forward && canon.fingerprint.exact) {
    std::optional<Response> remote = forward(request, canon.fingerprint);
    if (remote.has_value()) {
      response = *std::move(remote);
      response.served_remotely = true;
      return finish(response.status);
    }
  }

  // The compute path: run the engine and make the answer durable before
  // it is published to coalesced waiters.
  auto compute = [&]() -> std::shared_ptr<const EngineAnswer> {
    std::shared_ptr<const EngineAnswer> answer =
        RunEngine(request, canon, deadline_ns, &work_items);
    if (answer != nullptr && cacheable) {
      cache_.Insert(canon.fingerprint, response.kind, answer);
    }
    return answer;
  };

  std::shared_ptr<const EngineAnswer> answer;
  if (canon.fingerprint.exact) {
    SingleFlight::Outcome outcome =
        single_flight_.Do(canon.fingerprint, deadline_ns, compute);
    if (outcome.coalesced) {
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      CSPDB_COUNT("service.coalesced");
      response.coalesced = true;
    }
    answer = std::move(outcome.answer);
  } else {
    answer = compute();
  }

  if (answer == nullptr) return finish(StatusCode::kDeadlineExceeded);
  response.answer = MapBack(*answer, canon);
  return finish(StatusCode::kOk);
}

}  // namespace cspdb::service
