// The serving benchmark's three workloads, generated from a seed. The
// cluster only ever sees the generated requests.
//
//   hot_repeat   closed loop, Zipf(1.1) repeats over a fixed pool that fits
//                in the cache, mostly 48-variable SolveCsp; a fixed share of
//                repeats are fresh isomorphic relabelings. Exercises the hit
//                path (wire, router, fingerprint, cache lookup).
//   cold_engine  closed loop, every request distinct: acyclic and cyclic
//                EvalCq over digraphs where the naive join takes
//                milliseconds, 4-valued random CSPs next to 2-valued Horn
//                and 2-SAT instances, transitive-closure Datalog, a few
//                containment checks. Exercises the engines; the cache only
//                inserts and evicts.
//   mixed_pipelined  closed loop over service::GenerateRequestStream's
//                default mix, each connection keeping kMixedWindow requests
//                outstanding, more than a node has pool threads. Exercises
//                the peer hop, PeerClient busy fast-fail, pool queueing and
//                coalescing.
//
// Every workload is a closed loop with one client connection per node.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/conjunctive_query.h"
#include "service/request.h"

namespace servebench {

enum class WorkloadKind { kHotRepeat, kColdEngine, kMixedPipelined };

/// Parses "hot_repeat" / "cold_engine" / "mixed_pipelined".
bool ParseWorkloadKind(const std::string& name, WorkloadKind* kind);
const char* WorkloadName(WorkloadKind kind);

/// Requests each mixed_pipelined connection keeps outstanding: twice a
/// node's pool threads (cluster.h), so requests wait in the pool queue and
/// concurrent misses on one key coalesce.
inline constexpr int kMixedWindow = 8;

/// One request of a workload: table[index] sent verbatim when
/// relabel_seed is 0, otherwise a fresh isomorphic relabeling of it built
/// from relabel_seed (so no two relabeled requests share payload bytes).
struct Entry {
  int32_t index = 0;
  uint64_t relabel_seed = 0;
};

struct Workload {
  /// The distinct requests in wire encoding (net::EncodeRequestPayload).
  /// The table stays resident in the cluster's process while it runs, and
  /// a decoded CspInstance takes over ten times its payload's memory.
  std::vector<std::vector<uint8_t>> table;
  /// Sent once, untimed, as the last step of set-up.
  std::vector<Entry> warmup;
  /// Timed requests in order. A loop that outruns the stream starts over
  /// from its beginning.
  std::vector<Entry> stream;
  /// Requests each client connection keeps outstanding.
  int window = 1;

  /// The payload an entry sends: a table row, or `*scratch` filled with
  /// the relabeling's encoding.
  const std::vector<uint8_t>& Payload(const Entry& entry,
                                      std::vector<uint8_t>* scratch) const;
  /// The request an entry sends, decoded.
  cspdb::service::ServiceRequest Request(const Entry& entry) const;
};

/// Generates the workload for `seed`. Streams have a fixed length.
Workload MakeWorkload(WorkloadKind kind, uint64_t seed);

/// True iff the query body's hypergraph is alpha-acyclic.
bool IsAcyclicQuery(const cspdb::ConjunctiveQuery& query);

/// Payload hash of every warm-up then stream entry, in order (one per
/// entry), and their digest: the FNV-1a of the hashes. A changed generator
/// shows as a changed digest.
struct StreamHashes {
  std::vector<uint64_t> entry_hashes;
  uint64_t digest = 0;
};
StreamHashes HashStream(const Workload& workload);

/// 16 lowercase hex digits.
std::string Hex64(uint64_t value);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
