#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "boolean/cnf.h"
#include "csp/convert.h"
#include "csp/instance.h"
#include "datalog/program.h"
#include "db/acyclic.h"
#include "gen/generators.h"
#include "net/wire.h"
#include "service/workload.h"
#include "util/check.h"
#include "util/rng.h"

namespace servebench {

using cspdb::Atom;
using cspdb::ConjunctiveQuery;
using cspdb::CspInstance;
using cspdb::DatalogAtom;
using cspdb::DatalogProgram;
using cspdb::DatalogRule;
using cspdb::Rng;
using cspdb::Structure;
namespace service = cspdb::service;

namespace {

// hot_repeat: a pool that fits every cache, Zipf-skewed repeats.
constexpr int kHotCspPool = 24;      // 48-variable SolveCsp
constexpr int kHotSmallPool = 4;     // each of EvalCq, Datalog, containment
constexpr double kHotCspWeight = 0.7;  // the other three kinds split the rest
constexpr double kHotRelabelShare = 0.25;
constexpr double kZipfS = 1.1;
// Long enough that a 20 s run at 2.5 times definition-time speed never
// starts over.
constexpr int kHotStreamLength = 1 << 16;

// cold_engine: every request distinct. Each node's cache holds far fewer
// answers than the stream has, so a stream that starts over still misses.
constexpr int kColdDistinct = 4096;
constexpr int kWarmupExtra = 16;  // cold_engine / mixed_pipelined warm-up

// mixed_pipelined: independent default-mix request streams, interleaved.
// The loop starts the stream over several times in a run: every pass finds
// the cache in the same state, since the stream's distinct answers do not
// fit in it.
constexpr int kMixedTenants = 8;
constexpr int kMixedStreamLength = 1 << 15;

std::vector<int> Permutation(int n, Rng* rng) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  return perm;
}

template <typename T>
void ShuffleVector(std::vector<T>* v, Rng* rng) {
  std::shuffle(v->begin(), v->end(), rng->engine());
}

CspInstance RelabelCsp(const CspInstance& csp, Rng* rng) {
  const std::vector<int> perm = Permutation(csp.num_variables(), rng);
  std::vector<int> order(csp.constraints().size());
  std::iota(order.begin(), order.end(), 0);
  ShuffleVector(&order, rng);
  CspInstance out(csp.num_variables(), csp.num_values());
  for (int c : order) {
    const cspdb::Constraint& constraint = csp.constraint(c);
    std::vector<int> scope;
    for (int v : constraint.scope) scope.push_back(perm[v]);
    std::vector<cspdb::Tuple> allowed = constraint.allowed;
    ShuffleVector(&allowed, rng);
    out.AddConstraint(std::move(scope), std::move(allowed));
  }
  return out;
}

ConjunctiveQuery RelabelCq(const ConjunctiveQuery& q, Rng* rng) {
  const std::vector<int> perm = Permutation(q.num_variables(), rng);
  std::vector<int> head;
  for (int v : q.head()) head.push_back(perm[v]);
  std::vector<Atom> body;
  for (const Atom& atom : q.body()) {
    Atom renamed{atom.predicate, {}};
    for (int v : atom.args) renamed.args.push_back(perm[v]);
    body.push_back(std::move(renamed));
  }
  ShuffleVector(&body, rng);
  return ConjunctiveQuery(q.num_variables(), std::move(head), std::move(body));
}

DatalogProgram RelabelProgram(const DatalogProgram& program, Rng* rng) {
  std::vector<DatalogRule> rules = program.rules();
  ShuffleVector(&rules, rng);
  DatalogProgram out;
  for (DatalogRule& rule : rules) {
    const std::vector<int> perm = Permutation(rule.num_variables, rng);
    for (int& v : rule.head.args) v = perm[v];
    for (DatalogAtom& atom : rule.body) {
      for (int& v : atom.args) v = perm[v];
    }
    ShuffleVector(&rule.body, rng);
    out.AddRule(std::move(rule));
  }
  out.SetGoal(program.goal());
  return out;
}

// An isomorphic copy of `request`: variables renamed, constraints, atoms,
// rules and tuples shuffled. Fingerprint-equal to the original whenever the
// canonical search is exact, and the same answer up to the renaming.
service::ServiceRequest Relabel(const service::ServiceRequest& request,
                                uint64_t seed) {
  Rng rng(seed);
  switch (service::KindOf(request)) {
    case service::RequestKind::kSolveCsp:
      return service::SolveCspRequest{
          RelabelCsp(std::get<service::SolveCspRequest>(request).instance,
                     &rng)};
    case service::RequestKind::kEvalCq: {
      const auto& r = std::get<service::EvalCqRequest>(request);
      return service::EvalCqRequest{RelabelCq(r.query, &rng), r.database};
    }
    case service::RequestKind::kDatalogFixpoint: {
      const auto& r = std::get<service::DatalogFixpointRequest>(request);
      return service::DatalogFixpointRequest{RelabelProgram(r.program, &rng),
                                             r.edb};
    }
    case service::RequestKind::kCheckContainment: {
      const auto& r = std::get<service::CheckContainmentRequest>(request);
      ConjunctiveQuery q1 = RelabelCq(r.q1, &rng);
      return service::CheckContainmentRequest{std::move(q1),
                                              RelabelCq(r.q2, &rng)};
    }
  }
  return request;
}

// 64-bit FNV-1a over bytes, continuing from `hash`.
uint64_t Fnv1a(const uint8_t* data, std::size_t size,
               uint64_t hash = 0xcbf29ce484222325ull) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// --- query and program shapes over the digraph vocabulary {E/2} ----------

// E(x0,x1), ..., E(x{k-1},xk); head (x0, xk).
ConjunctiveQuery ChainQuery(int k) {
  std::vector<Atom> body;
  for (int i = 0; i < k; ++i) body.push_back({"E", {i, i + 1}});
  return ConjunctiveQuery(k + 1, {0, k}, std::move(body));
}

// E(c,x1), ..., E(c,xk); head (x1, xk).
ConjunctiveQuery StarQuery(int k) {
  std::vector<Atom> body;
  for (int i = 1; i <= k; ++i) body.push_back({"E", {0, i}});
  return ConjunctiveQuery(k + 1, {1, k}, std::move(body));
}

// Directed k-cycle; head (x0, x{k/2}).
ConjunctiveQuery CycleQuery(int k) {
  std::vector<Atom> body;
  for (int i = 0; i < k; ++i) body.push_back({"E", {i, (i + 1) % k}});
  return ConjunctiveQuery(k, {0, k / 2}, std::move(body));
}

// Transitive tournament on k vertices (a clique: every cycle chorded);
// head (x0, x{k-1}).
ConjunctiveQuery CliqueQuery(int k) {
  std::vector<Atom> body;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) body.push_back({"E", {i, j}});
  }
  return ConjunctiveQuery(k, {0, k - 1}, std::move(body));
}

// `num_atoms` random atoms over `num_variables` variables, every variable
// used, head of two random variables.
ConjunctiveQuery RandomQuery(int num_variables, int num_atoms, Rng* rng) {
  std::vector<Atom> body;
  std::vector<bool> used(num_variables, false);
  for (int i = 0; i < num_atoms; ++i) {
    const int u = rng->UniformInt(0, num_variables - 1);
    const int v = rng->UniformInt(0, num_variables - 1);
    used[u] = used[v] = true;
    body.push_back({"E", {u, v}});
  }
  for (int v = 0; v < num_variables; ++v) {
    if (!used[v]) {
      body.push_back({"E", {v, rng->UniformInt(0, num_variables - 1)}});
    }
  }
  std::vector<int> head = {rng->UniformInt(0, num_variables - 1),
                           rng->UniformInt(0, num_variables - 1)};
  return ConjunctiveQuery(num_variables, std::move(head), std::move(body));
}

// T = transitive closure of E; goal G :- T(x,x) (a directed cycle exists)
// or, with `symmetric_goal`, G :- T(x,y), T(y,x).
DatalogProgram TransitiveClosure(bool symmetric_goal) {
  DatalogProgram p;
  p.AddRule({{"T", {0, 1}}, {{"E", {0, 1}}}, 2});
  p.AddRule({{"T", {0, 1}}, {{"T", {0, 2}}, {"E", {2, 1}}}, 3});
  if (symmetric_goal) {
    p.AddRule({{"G", {}}, {{"T", {0, 1}}, {"T", {1, 0}}}, 2});
  } else {
    p.AddRule({{"G", {}}, {{"T", {0, 0}}}, 1});
  }
  p.SetGoal("G");
  return p;
}

// --- cold_engine request families -----------------------------------------

// Sizes are set so an engine run takes about 0.2-5 ms on one core, with a
// light tail (slowest instance at most about twice the family's median),
// and dominates the request's canonicalization.
service::ServiceRequest ColdRequest(Rng* rng) {
  const double roll = rng->UniformDouble();
  if (roll < 0.35) {
    const double shape = rng->UniformDouble();
    if (shape < 0.5) {
      // 4-valued random binary CSP near the satisfiability threshold.
      return service::SolveCspRequest{
          cspdb::RandomBinaryCsp(40, 4, 80, 0.4, rng)};
    }
    if (shape < 0.75) {
      const cspdb::CnfFormula phi = cspdb::RandomHorn(40, 80, 3, rng);
      return service::SolveCspRequest{cspdb::ToCspInstance(
          cspdb::CnfToStructure(phi, cspdb::HornVocabulary(3)),
          cspdb::HornTemplate(3))};
    }
    const cspdb::CnfFormula phi = cspdb::RandomKSat(40, 80, 2, rng);
    return service::SolveCspRequest{cspdb::ToCspInstance(
        cspdb::CnfToStructure(phi, cspdb::CnfVocabulary(2)),
        cspdb::TwoSatTemplate())};
  }
  if (roll < 0.7) {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        return service::EvalCqRequest{ChainQuery(5),
                                      cspdb::RandomDigraph(48, 0.08, rng)};
      case 1:
        return service::EvalCqRequest{StarQuery(4),
                                      cspdb::RandomDigraph(48, 0.08, rng)};
      case 2:
        return service::EvalCqRequest{CycleQuery(6),
                                      cspdb::RandomDigraph(48, 0.08, rng)};
      default:
        return service::EvalCqRequest{CliqueQuery(4),
                                      cspdb::RandomDigraph(48, 0.15, rng)};
    }
  }
  if (roll < 0.9) {
    // The cycle goal only: the symmetric goal joins T with itself, which
    // takes a hundred milliseconds at this size.
    return service::DatalogFixpointRequest{
        TransitiveClosure(false), cspdb::RandomDigraph(64, 0.04, rng)};
  }
  ConjunctiveQuery q1 = RandomQuery(8, 12, rng);
  return service::CheckContainmentRequest{std::move(q1),
                                          RandomQuery(6, 8, rng)};
}

// Appends the workload's distinct requests to *requests; entries index them.
Workload MakeHotRepeat(uint64_t seed,
                       std::vector<service::ServiceRequest>* requests) {
  Workload w;
  Rng rng(seed);
  for (int i = 0; i < kHotCspPool; ++i) {
    requests->push_back(service::SolveCspRequest{
        cspdb::RandomBinaryCsp(48, 4, 96, 0.3, &rng)});
  }
  for (int i = 0; i < kHotSmallPool; ++i) {
    requests->push_back(service::EvalCqRequest{
        i % 2 == 0 ? ChainQuery(3) : CycleQuery(3),
        cspdb::RandomDigraph(14, 0.25, &rng)});
  }
  for (int i = 0; i < kHotSmallPool; ++i) {
    requests->push_back(service::DatalogFixpointRequest{
        TransitiveClosure(i % 2 == 1), cspdb::RandomDigraph(14, 0.25, &rng)});
  }
  for (int i = 0; i < kHotSmallPool; ++i) {
    requests->push_back(service::CheckContainmentRequest{
        RandomQuery(4, 4, &rng), RandomQuery(4, 4, &rng)});
  }
  for (int i = 0; i < static_cast<int>(requests->size()); ++i) {
    w.warmup.push_back({i, 0});
  }

  const int pool[4] = {kHotCspPool, kHotSmallPool, kHotSmallPool,
                       kHotSmallPool};
  int offset[4] = {0, 0, 0, 0};
  for (int k = 1; k < 4; ++k) offset[k] = offset[k - 1] + pool[k - 1];
  std::vector<std::vector<int>> zipf(4);
  for (int k = 0; k < 4; ++k) {
    zipf[k] = cspdb::ZipfianIndices(pool[k], kHotStreamLength, kZipfS, &rng);
  }
  int cursor[4] = {0, 0, 0, 0};
  const double small_weight = (1.0 - kHotCspWeight) / 3.0;
  for (int s = 0; s < kHotStreamLength; ++s) {
    double roll = rng.UniformDouble() - kHotCspWeight;
    int kind = 0;
    while (roll >= 0.0 && kind < 3) {
      ++kind;
      roll -= small_weight;
    }
    Entry entry;
    entry.index = offset[kind] + zipf[kind][cursor[kind]++];
    if (rng.Bernoulli(kHotRelabelShare)) {
      entry.relabel_seed = rng.engine()() | 1;
    }
    w.stream.push_back(entry);
  }
  return w;
}

Workload MakeColdEngine(uint64_t seed,
                        std::vector<service::ServiceRequest>* requests) {
  Workload w;
  Rng rng(seed);
  for (int i = 0; i < kColdDistinct + kWarmupExtra; ++i) {
    requests->push_back(ColdRequest(&rng));
  }
  for (int i = 0; i < kColdDistinct; ++i) w.stream.push_back({i, 0});
  for (int i = kColdDistinct; i < kColdDistinct + kWarmupExtra; ++i) {
    w.warmup.push_back({i, 0});
  }
  return w;
}

Workload MakeMixedPipelined(uint64_t seed,
                            std::vector<service::ServiceRequest>* requests) {
  Workload w;
  w.window = kMixedWindow;
  const int total = kMixedStreamLength;
  // Each tenant replays its own default-mix stream; the timed stream takes
  // them in turn. One tenant's Zipf head would make a run's cost depend on
  // which few requests its seed happened to draw.
  std::unordered_map<uint64_t, int32_t> index_of;
  std::vector<uint8_t> payload;
  std::vector<std::vector<int32_t>> tenant_stream(kMixedTenants);
  for (int t = 0; t < kMixedTenants; ++t) {
    service::WorkloadOptions options;  // the default 0.4/0.3/0.2/0.1 mix
    options.seed = seed * kMixedTenants + t;
    options.num_requests = (total + kMixedTenants - 1 - t) / kMixedTenants;
    options.zipf_s = kZipfS;
    options.mutation_prob = 0.05;
    // The generator copies a pool entry into every repeat; keep one copy
    // per distinct payload so a long stream stays small.
    for (service::ServiceRequest& request :
         service::GenerateRequestStream(options)) {
      payload.clear();
      cspdb::net::EncodeRequestPayload(request, &payload);
      const auto [it, inserted] = index_of.emplace(
          Fnv1a(payload.data(), payload.size()),
          static_cast<int32_t>(requests->size()));
      if (inserted) requests->push_back(std::move(request));
      tenant_stream[t].push_back(it->second);
    }
  }
  for (int i = 0; i < total; ++i) {
    w.stream.push_back(
        {tenant_stream[i % kMixedTenants][i / kMixedTenants], 0});
  }
  // Warm-up from an unrelated seed: it opens the peer connections without
  // warming the timed stream's cache entries.
  service::WorkloadOptions warm;
  warm.seed = ~seed;
  warm.num_requests = kWarmupExtra;
  for (service::ServiceRequest& request :
       service::GenerateRequestStream(warm)) {
    w.warmup.push_back({static_cast<int32_t>(requests->size()), 0});
    requests->push_back(std::move(request));
  }
  return w;
}

}  // namespace

bool ParseWorkloadKind(const std::string& name, WorkloadKind* kind) {
  for (WorkloadKind k : {WorkloadKind::kHotRepeat, WorkloadKind::kColdEngine,
                         WorkloadKind::kMixedPipelined}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kHotRepeat:
      return "hot_repeat";
    case WorkloadKind::kColdEngine:
      return "cold_engine";
    case WorkloadKind::kMixedPipelined:
      return "mixed_pipelined";
  }
  return "?";
}

const std::vector<uint8_t>& Workload::Payload(
    const Entry& entry, std::vector<uint8_t>* scratch) const {
  if (entry.relabel_seed == 0) return table[entry.index];
  scratch->clear();
  cspdb::net::EncodeRequestPayload(Request(entry), scratch);
  return *scratch;
}

service::ServiceRequest Workload::Request(const Entry& entry) const {
  const std::vector<uint8_t>& payload = table[entry.index];
  std::string error;
  std::optional<service::ServiceRequest> request =
      cspdb::net::DecodeRequestPayload(payload.data(), payload.size(),
                                       &error);
  CSPDB_CHECK_MSG(request.has_value(), "servebench: undecodable table row");
  if (entry.relabel_seed == 0) return *std::move(request);
  return Relabel(*request, entry.relabel_seed);
}

Workload MakeWorkload(WorkloadKind kind, uint64_t seed) {
  std::vector<service::ServiceRequest> requests;
  Workload w;
  switch (kind) {
    case WorkloadKind::kHotRepeat:
      w = MakeHotRepeat(seed, &requests);
      break;
    case WorkloadKind::kColdEngine:
      w = MakeColdEngine(seed, &requests);
      break;
    case WorkloadKind::kMixedPipelined:
      w = MakeMixedPipelined(seed, &requests);
      break;
  }
  for (const service::ServiceRequest& request : requests) {
    w.table.emplace_back();
    cspdb::net::EncodeRequestPayload(request, &w.table.back());
  }
  return w;
}

bool IsAcyclicQuery(const ConjunctiveQuery& query) {
  cspdb::Hypergraph h;
  for (const Atom& atom : query.body()) {
    std::vector<int> edge = atom.args;
    std::sort(edge.begin(), edge.end());
    edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
    h.edges.push_back(std::move(edge));
  }
  return cspdb::IsAlphaAcyclic(h);
}

StreamHashes HashStream(const Workload& workload) {
  StreamHashes out;
  std::vector<std::optional<uint64_t>> verbatim(workload.table.size());
  std::vector<uint8_t> scratch;
  auto hash_of = [&](const Entry& entry) {
    if (entry.relabel_seed == 0 && verbatim[entry.index].has_value()) {
      return *verbatim[entry.index];
    }
    const std::vector<uint8_t>& payload = workload.Payload(entry, &scratch);
    const uint64_t h = Fnv1a(payload.data(), payload.size());
    if (entry.relabel_seed == 0) verbatim[entry.index] = h;
    return h;
  };
  out.digest = 0xcbf29ce484222325ull;
  for (const std::vector<Entry>* part : {&workload.warmup, &workload.stream}) {
    for (const Entry& entry : *part) {
      const uint64_t h = hash_of(entry);
      out.entry_hashes.push_back(h);
      out.digest = Fnv1a(reinterpret_cast<const uint8_t*>(&h), sizeof(h),
                         out.digest);
    }
  }
  return out;
}

std::string Hex64(uint64_t value) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

}  // namespace servebench
