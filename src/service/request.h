// Typed requests and responses for CspdbService. Each request kind maps
// onto one engine (solver, CQ evaluation, Datalog fixpoint, containment);
// the response carries a deterministic, canonically ordered answer plus
// serving metadata (status, cache provenance, latency).

#ifndef CSPDB_SERVICE_REQUEST_H_
#define CSPDB_SERVICE_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "csp/instance.h"
#include "datalog/program.h"
#include "db/conjunctive_query.h"
#include "relational/structure.h"

namespace cspdb::service {

/// Request kinds. Each kind salts its fingerprints, and a cache entry
/// answers only a request of its own kind.
enum class RequestKind {
  kSolveCsp = 0,
  kEvalCq = 1,
  kDatalogFixpoint = 2,
  kCheckContainment = 3,
};
inline constexpr int kNumRequestKinds = 4;

/// Human-readable kind name ("solve_csp", ...).
const char* RequestKindName(RequestKind kind);

struct SolveCspRequest {
  CspInstance instance;
};

struct EvalCqRequest {
  ConjunctiveQuery query;
  Structure database;
};

struct DatalogFixpointRequest {
  DatalogProgram program;
  Structure edb;
};

struct CheckContainmentRequest {
  ConjunctiveQuery q1;  // decides q1 ⊆ q2
  ConjunctiveQuery q2;
};

using ServiceRequest = std::variant<SolveCspRequest, EvalCqRequest,
                                    DatalogFixpointRequest,
                                    CheckContainmentRequest>;

/// The kind of a request variant (indices match the variant order).
RequestKind KindOf(const ServiceRequest& request);

/// Response status. kOk responses carry an answer; the shed statuses are
/// the overload contract: an overwhelmed service answers *something*
/// for every request instead of queuing unboundedly.
enum class StatusCode {
  kOk = 0,
  kDeadlineExceeded = 1,  ///< deadline passed while queued or mid-engine
  kRejected = 2,          ///< admission queue full; retry later
};

const char* StatusCodeName(StatusCode status);

/// Answer to a SolveCsp request. `solution`, when present, is indexed by
/// the *requester's* variable order (canonical-space cache entries are
/// mapped back through the request's relabeling before they reach the
/// response).
struct CspAnswer {
  std::optional<std::vector<int>> solution;
  bool complete = true;  ///< false only on an aborted (shed) search
};

/// Answer rows in canonical (lexicographic) order, flattened row-major.
/// Used for EvalCq (head arity columns) and the Datalog goal relation.
struct RowsAnswer {
  int arity = 0;
  int64_t num_rows = 0;
  std::vector<int> rows;  ///< num_rows * arity values
};

struct DatalogAnswer {
  bool goal_derived = false;
  RowsAnswer goal_facts;      ///< derived facts of the goal predicate
  int64_t total_idb_facts = 0;
};

struct BoolAnswer {
  bool value = false;
};

/// The engine-level answer stored in the result cache (canonical space)
/// and embedded in responses (request space).
using EngineAnswer =
    std::variant<CspAnswer, RowsAnswer, DatalogAnswer, BoolAnswer>;

/// Approximate heap + inline footprint of an answer, for the cache's byte
/// accounting.
std::size_t AnswerApproxBytes(const EngineAnswer& answer);

struct Response {
  StatusCode status = StatusCode::kOk;
  RequestKind kind = RequestKind::kSolveCsp;
  EngineAnswer answer;     ///< meaningful only when status == kOk
  bool cache_hit = false;  ///< served from the result cache
  bool coalesced = false;  ///< served by another request's in-flight run
  bool served_remotely = false;  ///< answered by a peer node's shard
                                 ///< through the Submit() forward step
  /// The entry node's handling wall time, excluding queue wait. A
  /// forwarded response's latency includes the hop to the owner shard.
  int64_t latency_ns = 0;
  /// The entry node's enqueue -> task-start wait for async Submit(); 0 on
  /// the synchronous path. End-to-end latency as the caller saw it is
  /// queue_wait_ns + latency_ns.
  int64_t queue_wait_ns = 0;
};

}  // namespace cspdb::service

#endif  // CSPDB_SERVICE_REQUEST_H_
