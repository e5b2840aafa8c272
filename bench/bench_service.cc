// Serving-layer benchmarks: cache hit vs miss latency, the wire decode
// and labeling costs that the hit path pays, the engine stage of cold
// EvalCq and Datalog requests (and the Datalog fixpoint alone),
// skewed-stream replay hit rates, and overload shedding. Names follow
// BM_<op>/<size> and are distilled by bench/distill_bench.py --mode
// service into BENCH_service.json; the rate counters ride along as
// benchmark counters.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <variant>
#include <vector>

#include <benchmark/benchmark.h>

#include "csp/instance.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "db/conjunctive_query.h"
#include "db/relation.h"
#include "exec/thread_pool.h"
#include "gen/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard.h"
#include "net/wire.h"
#include "relational/structure.h"
#include "service/fingerprint.h"
#include "service/server.h"
#include "service/workload.h"
#include "util/rng.h"

namespace cspdb::service {
namespace {

CspInstance BenchCsp(int num_variables) {
  Rng rng(271828);
  return RandomBinaryCsp(num_variables, 4, num_variables * 3 / 2, 0.3, &rng);
}

// Exact nearest-rank quantile over the measured per-request latencies
// (sorts a copy). Benchmarks publish *exact* quantiles — the histogram's
// <=1%-error buckets are for always-on production metrics, not for the
// numbers BENCH_service.json archives.
double ExactQuantileNs(std::vector<int64_t> latencies, double q) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  // Same nearest-rank convention as HistogramSnapshot::ValueAtQuantile:
  // rank = ceil(q * count) - 1, clamped.
  const auto count = static_cast<int64_t>(latencies.size());
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  rank = std::max<int64_t>(1, std::min(rank, count)) - 1;
  return static_cast<double>(latencies[static_cast<std::size_t>(rank)]);
}

// Publishes p50/p99/p999 latency counters from `latencies_ns`.
void PublishQuantiles(benchmark::State& state,
                      std::vector<int64_t> latencies_ns) {
  state.counters["p50_ns"] = ExactQuantileNs(latencies_ns, 0.50);
  state.counters["p99_ns"] = ExactQuantileNs(latencies_ns, 0.99);
  state.counters["p999_ns"] = ExactQuantileNs(std::move(latencies_ns), 0.999);
}

// Latency of a guaranteed cache hit: label + lookup + map-back.
void BM_service_hit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  CspdbService service;
  ServiceRequest request = SolveCspRequest{BenchCsp(n)};
  benchmark::DoNotOptimize(service.Handle(request));  // warm
  for (auto _ : state) {
    Response r = service.Handle(request);
    benchmark::DoNotOptimize(r);
  }
  const ServiceStats stats = service.stats();
  state.counters["hit_rate"] =
      stats.requests > 0
          ? static_cast<double>(stats.cache_hits) / stats.requests
          : 0.0;
}
BENCHMARK(BM_service_hit)->Arg(12)->Arg(24)->Arg(48);

// Latency of a guaranteed miss (the cache is off): canonicalize +
// single-flight + engine on a small instance, without the cache's lookup
// and insert.
void BM_service_miss(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ServiceOptions options;
  options.enable_cache = false;
  CspdbService service(options);
  ServiceRequest request = SolveCspRequest{BenchCsp(n)};
  for (auto _ : state) {
    Response r = service.Handle(request);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_service_miss)->Arg(12)->Arg(24)->Arg(48);

// The labeling plus the canonical instance: what a miss pays before its
// engine runs.
void BM_canonicalize_csp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const CspInstance csp = BenchCsp(n);
  for (auto _ : state) {
    CanonicalCsp canon = CanonicalizeCsp(csp);
    benchmark::DoNotOptimize(canon);
  }
}
BENCHMARK(BM_canonicalize_csp)->Arg(12)->Arg(24)->Arg(48);

// The labeling alone (fingerprint + permutation): the fixed cost of a hit.
void BM_label_csp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const CspInstance csp = BenchCsp(n);
  for (auto _ : state) {
    CspLabeling labeling = LabelCsp(csp);
    benchmark::DoNotOptimize(labeling);
  }
}
BENCHMARK(BM_label_csp)->Arg(12)->Arg(24)->Arg(48);

// The wire stage of a hit or a miss: decoding a SolveCsp payload back
// into its instance, which every served request pays at its entry node.
void BM_decode_csp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<uint8_t> payload;
  net::EncodeRequestPayload(SolveCspRequest{BenchCsp(n)}, &payload);
  std::string error;
  for (auto _ : state) {
    std::optional<ServiceRequest> request =
        net::DecodeRequestPayload(payload.data(), payload.size(), &error);
    benchmark::DoNotOptimize(request);
  }
  state.counters["payload_bytes"] = static_cast<double>(payload.size());
}
BENCHMARK(BM_decode_csp)->Arg(12)->Arg(24)->Arg(48);

// --- engine rows: the request shapes of servebench's cold_engine ----------

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

// Transitive tournament on k vertices; head (x0, x{k-1}).
ConjunctiveQuery CliqueQuery(int k) {
  std::vector<Atom> body;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) body.push_back({"E", {i, j}});
  }
  return ConjunctiveQuery(k, {0, k - 1}, std::move(body));
}

// Eight G(n, p) databases, one per iteration in turn, so a row does not
// hang on one graph.
std::vector<Structure> BenchDigraphs(int n, double p) {
  Rng rng(314159);
  std::vector<Structure> graphs;
  for (int i = 0; i < 8; ++i) graphs.push_back(RandomDigraph(n, p, &rng));
  return graphs;
}

// Evaluate(q, G(n, p)), n the row's size: the engine stage of a cold
// EvalCq request. `answer_rows` is the mean answer size.
void EvalCqRow(benchmark::State& state, const ConjunctiveQuery& q, double p) {
  const std::vector<Structure> graphs =
      BenchDigraphs(static_cast<int>(state.range(0)), p);
  std::size_t i = 0;
  int64_t rows = 0;
  for (auto _ : state) {
    DbRelation answer = Evaluate(q, graphs[i++ % graphs.size()]);
    rows += static_cast<int64_t>(answer.size());
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answer_rows"] =
      state.iterations() > 0
          ? static_cast<double>(rows) / static_cast<double>(state.iterations())
          : 0.0;
}

void BM_eval_cq_chain(benchmark::State& state) {
  EvalCqRow(state, ChainQuery(5), 0.08);
}
BENCHMARK(BM_eval_cq_chain)->Arg(12)->Arg(48);

void BM_eval_cq_star(benchmark::State& state) {
  EvalCqRow(state, StarQuery(4), 0.08);
}
BENCHMARK(BM_eval_cq_star)->Arg(12)->Arg(48);

void BM_eval_cq_cycle(benchmark::State& state) {
  EvalCqRow(state, CycleQuery(6), 0.08);
}
BENCHMARK(BM_eval_cq_cycle)->Arg(12)->Arg(48);

void BM_eval_cq_clique(benchmark::State& state) {
  EvalCqRow(state, CliqueQuery(4), 0.15);
}
BENCHMARK(BM_eval_cq_clique)->Arg(12)->Arg(48);

// The small random queries of the default request mix (servebench's
// mixed_pipelined): a stream of n EvalCq requests, RandomCq(4, 4) over
// G(14, 0.25), one Evaluate per iteration in turn.
void BM_eval_cq_random(benchmark::State& state) {
  WorkloadOptions workload;
  workload.num_requests = static_cast<int>(state.range(0));
  workload.pool_size = static_cast<int>(state.range(0));
  workload.seed = 17;
  workload.weight_solve_csp = 0.0;
  workload.weight_eval_cq = 1.0;
  workload.weight_datalog = 0.0;
  workload.weight_containment = 0.0;
  const std::vector<ServiceRequest> stream = GenerateRequestStream(workload);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& request = std::get<EvalCqRequest>(stream[i++ % stream.size()]);
    DbRelation answer = Evaluate(request.query, request.database);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_eval_cq_random)->Arg(64);

// Transitive closure with the goal "some vertex reaches itself":
// servebench's cold_engine Datalog program.
DatalogProgram CycleGoalClosure() {
  DatalogProgram program;
  program.AddRule({{"T", {0, 1}}, {{"E", {0, 1}}}, 2});
  program.AddRule({{"T", {0, 1}}, {{"T", {0, 2}}, {"E", {2, 1}}}, 3});
  program.AddRule({{"G", {}}, {{"T", {0, 0}}}, 1});
  program.SetGoal("G");
  return program;
}

// SemiNaiveFixpoint(program, G(n, p)), n the row's size, with no view and
// no service: the engine stage of a cold Datalog request. The counters
// are means over the graphs, so they read the same on every run.
void FixpointRow(benchmark::State& state, const DatalogProgram& program,
                 double p) {
  const std::vector<Structure> graphs =
      BenchDigraphs(static_cast<int>(state.range(0)), p);
  std::size_t i = 0;
  for (auto _ : state) {
    DatalogFixpoint fixpoint =
        SemiNaiveFixpoint(program, graphs[i++ % graphs.size()]);
    benchmark::DoNotOptimize(fixpoint);
  }
  double facts = 0;
  double derivations = 0;
  double iterations = 0;
  for (const Structure& graph : graphs) {
    const DatalogFixpoint fixpoint = SemiNaiveFixpoint(program, graph);
    facts += static_cast<double>(fixpoint.TotalFacts());
    derivations += static_cast<double>(fixpoint.derivations);
    iterations += static_cast<double>(fixpoint.iterations);
  }
  const double n = static_cast<double>(graphs.size());
  state.counters["facts"] = facts / n;
  state.counters["derivations"] = derivations / n;
  state.counters["iterations"] = iterations / n;
}

// cold_engine's shape: the cycle-goal closure over G(64, 0.04).
void BM_datalog_fixpoint_tc(benchmark::State& state) {
  FixpointRow(state, CycleGoalClosure(), 0.04);
}
BENCHMARK(BM_datalog_fixpoint_tc)->Arg(64);

// The default request mix's Section 4 program over G(12, 0.25).
void BM_datalog_fixpoint_non2col(benchmark::State& state) {
  FixpointRow(state, NonTwoColorabilityProgram(), 0.25);
}
BENCHMARK(BM_datalog_fixpoint_non2col)->Arg(12);

// A cold Datalog request through Handle with the cache off: transitive
// closure with the goal "some vertex reaches itself", over G(n, 0.04).
// Fixpoint, goal rows, fact count and canonical answer order.
void BM_service_datalog(benchmark::State& state) {
  const DatalogProgram program = CycleGoalClosure();
  std::vector<ServiceRequest> requests;
  for (Structure& edb :
       BenchDigraphs(static_cast<int>(state.range(0)), 0.04)) {
    requests.push_back(DatalogFixpointRequest{program, std::move(edb)});
  }
  ServiceOptions options;
  options.enable_cache = false;
  CspdbService service(options);
  std::size_t i = 0;
  for (auto _ : state) {
    Response r = service.Handle(requests[i++ % requests.size()]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_service_datalog)->Arg(64);

// End-to-end replay of a Zipf-skewed stream on a fresh service: ns/op is
// the whole-stream wall time; hit/coalesce rates ride as counters.
void BM_service_replay(benchmark::State& state) {
  WorkloadOptions workload;
  workload.num_requests = static_cast<int>(state.range(0));
  workload.pool_size = 12;
  workload.zipf_s = 1.1;
  workload.seed = 7;
  const std::vector<ServiceRequest> stream = GenerateRequestStream(workload);
  double hit_rate = 0.0;
  std::vector<int64_t> latencies_ns;
  for (auto _ : state) {
    CspdbService service;
    latencies_ns.clear();
    latencies_ns.reserve(stream.size());
    for (const ServiceRequest& request : stream) {
      Response r = service.Handle(request);
      latencies_ns.push_back(r.latency_ns);
      benchmark::DoNotOptimize(r);
    }
    const ServiceStats stats = service.stats();
    hit_rate = stats.requests > 0
                   ? static_cast<double>(stats.cache_hits) / stats.requests
                   : 0.0;
  }
  state.counters["hit_rate"] = hit_rate;
  state.counters["requests"] = static_cast<double>(stream.size());
  PublishQuantiles(state, std::move(latencies_ns));
}
BENCHMARK(BM_service_replay)->Arg(256)->Unit(benchmark::kMillisecond);

// Overload: a burst of 4x max_pending short-deadline submissions against
// a 2-thread pool. ns/op is burst-to-drain wall time; the shed/rejected
// split shows the admission queue and deadline checks doing their job.
void BM_service_overload(benchmark::State& state) {
  const int max_pending = static_cast<int>(state.range(0));
  const int burst = 4 * max_pending;
  WorkloadOptions workload;
  workload.num_requests = burst;
  workload.pool_size = 16;
  workload.seed = 11;
  const std::vector<ServiceRequest> stream = GenerateRequestStream(workload);
  int64_t shed = 0, rejected = 0, total = 0;
  std::vector<int64_t> latencies_ns;
  for (auto _ : state) {
    exec::ThreadPool pool(2);
    {
      ServiceOptions options;
      options.pool = &pool;
      options.max_pending = max_pending;
      options.default_timeout_ns = 500'000;  // 0.5ms: most queued sheds
      CspdbService service(options);
      std::vector<std::future<Response>> futures;
      futures.reserve(stream.size());
      for (const ServiceRequest& request : stream) {
        futures.push_back(service.Submit(request));
      }
      latencies_ns.clear();
      latencies_ns.reserve(futures.size());
      for (auto& f : futures) {
        Response r = f.get();
        // End-to-end as the caller saw it: queue wait + handling.
        latencies_ns.push_back(r.queue_wait_ns + r.latency_ns);
        benchmark::DoNotOptimize(r);
      }
      const ServiceStats stats = service.stats();
      shed = stats.shed_deadline;
      rejected = stats.rejected;
      total = stats.requests;
    }
  }
  state.counters["shed_rate"] =
      total > 0 ? static_cast<double>(shed) / total : 0.0;
  state.counters["rejected_rate"] =
      total > 0 ? static_cast<double>(rejected) / total : 0.0;
  // Worker threads driving the service: lets the distiller stamp
  // oversubscribed=true when this exceeds the machine's CPUs. (Not
  // named "threads": Google Benchmark already emits a builtin threads
  // field that would shadow the counter in the JSON.)
  state.counters["worker_threads"] = 2.0;
  PublishQuantiles(state, std::move(latencies_ns));
}
BENCHMARK(BM_service_overload)->Arg(64)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Networked saturation: a real two-node loopback cluster (sockets, epoll
// loops, consistent-hash routing) driven closed-loop by N concurrent
// client connections. The arg is the connection count — in a closed loop
// that IS the offered load. ns/op is whole-replay wall time; the
// counters publish exact latency quantiles, achieved throughput, and the
// local/remote serving split. Distilled into the "saturation" section of
// BENCH_service.json.

/// One in-process cluster node with its own worker pool (nodes must not
/// share one: a routed request blocks a pool thread on its peer's reply).
struct BenchNode {
  BenchNode() : pool(2) {
    ServiceOptions options;
    options.pool = &pool;
    service = std::make_unique<CspdbService>(options);
  }

  exec::ThreadPool pool;
  std::unique_ptr<CspdbService> service;
  std::unique_ptr<net::ShardRouter> router;
  std::unique_ptr<net::NetServer> server;
};

/// Two clustered nodes on loopback ports (pid-salted base, retried on
/// bind collision). Empty on repeated failure.
std::vector<std::unique_ptr<BenchNode>> StartBenchCluster() {
  const int base_port = 26000 + static_cast<int>(getpid() % 20000);
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::vector<std::string> addresses;
    for (int i = 0; i < 2; ++i) {
      addresses.push_back("127.0.0.1:" +
                          std::to_string(base_port + attempt * 2 + i));
    }
    std::vector<net::PeerId> members;
    for (const std::string& address : addresses) members.push_back({address});
    std::vector<std::unique_ptr<BenchNode>> nodes;
    bool ok = true;
    for (int i = 0; i < 2; ++i) {
      auto node = std::make_unique<BenchNode>();
      node->router = std::make_unique<net::ShardRouter>(
          node->service.get(), addresses[i], members);
      net::ServerOptions server_options;
      server_options.listen_address = addresses[i];
      server_options.pool = &node->pool;
      node->server = std::make_unique<net::NetServer>(node->service.get(),
                                                      server_options);
      node->server->set_router(node->router.get());
      std::string error;
      if (!node->server->Start(&error)) {
        ok = false;
        break;
      }
      nodes.push_back(std::move(node));
    }
    if (ok) return nodes;
  }
  return {};
}

void BM_net_saturation(benchmark::State& state) {
  const int connections = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<BenchNode>> nodes = StartBenchCluster();
  if (nodes.empty()) {
    state.SkipWithError("could not bind loopback ports");
    return;
  }
  WorkloadOptions workload;
  workload.num_requests = 400;
  workload.pool_size = 12;
  workload.zipf_s = 1.1;
  workload.seed = 7;
  const std::vector<ServiceRequest> stream = GenerateRequestStream(workload);

  std::vector<std::unique_ptr<net::Connection>> conns;
  for (int i = 0; i < connections; ++i) {
    std::string error;
    std::unique_ptr<net::Connection> conn =
        net::Connection::Dial(nodes[0]->server->address(), 2000, &error);
    if (conn == nullptr) {
      state.SkipWithError("dial failed");
      return;
    }
    conns.push_back(std::move(conn));
  }

  std::vector<int64_t> latencies_ns;
  double achieved_qps = 0.0;
  std::atomic<int64_t> call_errors{0};
  for (auto _ : state) {
    std::vector<std::vector<int64_t>> per_conn(conns.size());
    std::atomic<int> next{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(conns.size());
    for (std::size_t w = 0; w < conns.size(); ++w) {
      workers.emplace_back([&, w] {
        uint64_t id = 1;
        for (int i = next.fetch_add(1); i < workload.num_requests;
             i = next.fetch_add(1)) {
          std::string error;
          const auto start = std::chrono::steady_clock::now();
          std::optional<Response> r =
              conns[w]->Call(stream[i], id++, 0, 30000, &error);
          if (!r.has_value() || r->status != StatusCode::kOk) {
            call_errors.fetch_add(1);
            continue;
          }
          per_conn[w].push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double elapsed_s =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - t0)
            .count();
    achieved_qps =
        elapsed_s > 0 ? workload.num_requests / elapsed_s : 0.0;
    latencies_ns.clear();
    for (const std::vector<int64_t>& lane : per_conn) {
      latencies_ns.insert(latencies_ns.end(), lane.begin(), lane.end());
    }
  }
  if (call_errors.load() > 0) {
    state.SkipWithError("rpc errors during replay");
    return;
  }
  const net::RouterStats stats = nodes[0]->router->stats();
  const double routed =
      static_cast<double>(stats.local_hits + stats.remote_hits +
                          stats.remote_compute + stats.local_compute);
  state.counters["local_hit_rate"] =
      routed > 0 ? stats.local_hits / routed : 0.0;
  state.counters["remote_hit_rate"] =
      routed > 0 ? stats.remote_hits / routed : 0.0;
  state.counters["remote_compute_rate"] =
      routed > 0 ? stats.remote_compute / routed : 0.0;
  state.counters["achieved_qps"] = achieved_qps;
  state.counters["requests"] = static_cast<double>(workload.num_requests);
  state.counters["worker_threads"] = static_cast<double>(connections);
  PublishQuantiles(state, std::move(latencies_ns));
  for (auto& node : nodes) node->server->Shutdown();
}
// 12 matches the bench-smoke filter; 2 and 6 chart the approach to
// saturation on a small machine.
// No ->UseRealTime() etc: those modifiers suffix the benchmark name,
// which would break the distiller's BM_<op>/<size> match (it reads the
// real_time field either way). Iterations is pinned because the work
// runs in client threads, where cpu-time-based auto-tuning would spin
// forever; iteration 2+ replays against a warm cluster cache, which is
// the steady state we want to measure.
BENCHMARK(BM_net_saturation)
    ->Arg(2)
    ->Arg(6)
    ->Arg(12)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cspdb::service
