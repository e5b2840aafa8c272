// cspdb_serve: the serving-tier driver. Three modes:
//
// 1. In-process replay (default): replay a generated request stream
//    through CspdbService and report serving statistics (hit rate,
//    coalescing, sheds, latency). The stream is seeded, so two runs with
//    the same flags see identical requests.
// 2. Server (--listen): serve the binary wire protocol (src/net/) until
//    SIGTERM/SIGINT or --serve-for-ms elapses, then drain gracefully and
//    print the serving summary. With --peers, the node joins a
//    consistent-hash cluster and consults fingerprint owners on local
//    misses.
// 3. Load generator (--connect): drive the same seeded stream over real
//    sockets against a running server, closed-loop over N connections,
//    and report latency quantiles. With --verify-local every response is
//    checked byte-identical against a local single-node computation (the
//    differential contract CI gates on).
//
// With CSPDB_TRACE=out.json any mode emits a Chrome trace; in server
// mode the "net.request"/"service.request" flow events stitch the
// event-loop dispatch to the worker-pool handling.
//
//   cspdb_serve [flags] [num_requests] [pool_size] [zipf_s]
//               [mutation_prob] [timeout_ms]
//
// Flag-parse failures print usage and exit nonzero (CI smoke jobs must
// not silently run a misconfigured replay).
//
// The final "cache_hits=N ..." (and, in server mode, "remote_hits=N
// ...", in client mode "mismatches=N ...") lines are machine-greppable;
// CI asserts on them.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/shard.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/server.h"
#include "service/workload.h"

namespace {

struct Flags {
  std::string metrics_out;
  std::string stats_out;
  std::string listen;
  std::string peers;
  std::string connect;
  bool verify_local = false;
  int64_t serve_for_ms = 0;  // 0 = until SIGTERM/SIGINT
  int connections = 2;

  int num_requests = 400;
  int pool_size = 12;
  double zipf_s = 1.1;
  double mutation_prob = 0.05;
  int64_t timeout_ms = 2000;
};

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: cspdb_serve [flags] [num_requests] [pool_size] [zipf_s]\n"
      "                   [mutation_prob] [timeout_ms]\n"
      "flags:\n"
      "  --metrics-out=PATH   write the metrics snapshot JSON\n"
      "  --stats-out=PATH     write the fingerprint stats-store dump JSON\n"
      "  --listen=HOST:PORT   serve the wire protocol (server mode)\n"
      "  --peers=H:P,H:P,...  cluster members; must include the --listen\n"
      "                       address verbatim (ring ids are the literal\n"
      "                       strings, so every node must use the same\n"
      "                       spelling)\n"
      "  --serve-for-ms=N     server mode: drain and exit after N ms\n"
      "                       (default: run until SIGTERM/SIGINT)\n"
      "  --connect=HOST:PORT  replay the stream against a running server\n"
      "  --connections=N      client mode: concurrent connections "
      "(default 2)\n"
      "  --verify-local       client mode: check every response is\n"
      "                       byte-identical to a local computation\n"
      "  --help               this text\n");
}

bool ParseInt64(const char* s, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseInt(const char* s, int* out) {
  int64_t v = 0;
  if (!ParseInt64(s, &v) || v < INT32_MIN || v > INT32_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

/// Parses argv into *flags. Returns false (after printing a diagnostic
/// and usage) on any unknown flag, malformed value, or bad positional —
/// the caller exits nonzero so CI can't run a misconfigured replay.
bool ParseFlags(int argc, char** argv, Flags* flags, bool* want_help) {
  *want_help = false;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    char* arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      const std::size_t n = std::strlen(name);
      if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
      return nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(arg, "--help") == 0) {
      *want_help = true;
      return true;
    } else if ((v = value_of("--metrics-out")) != nullptr) {
      flags->metrics_out = v;
    } else if ((v = value_of("--stats-out")) != nullptr) {
      flags->stats_out = v;
    } else if ((v = value_of("--listen")) != nullptr) {
      flags->listen = v;
    } else if ((v = value_of("--peers")) != nullptr) {
      flags->peers = v;
    } else if ((v = value_of("--connect")) != nullptr) {
      flags->connect = v;
    } else if ((v = value_of("--serve-for-ms")) != nullptr) {
      if (!ParseInt64(v, &flags->serve_for_ms) || flags->serve_for_ms < 0) {
        std::fprintf(stderr, "cspdb_serve: bad --serve-for-ms value %s\n", v);
        return false;
      }
    } else if ((v = value_of("--connections")) != nullptr) {
      if (!ParseInt(v, &flags->connections) || flags->connections < 1) {
        std::fprintf(stderr, "cspdb_serve: bad --connections value %s\n", v);
        return false;
      }
    } else if (std::strcmp(arg, "--verify-local") == 0) {
      flags->verify_local = true;
    } else if (arg[0] == '-' && arg[1] == '-') {
      std::fprintf(stderr, "cspdb_serve: unknown flag %s\n", arg);
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() > 5) {
    std::fprintf(stderr, "cspdb_serve: too many positional arguments\n");
    return false;
  }
  bool ok = true;
  if (positional.size() > 0) ok &= ParseInt(positional[0], &flags->num_requests);
  if (positional.size() > 1) ok &= ParseInt(positional[1], &flags->pool_size);
  if (positional.size() > 2) ok &= ParseDouble(positional[2], &flags->zipf_s);
  if (positional.size() > 3) {
    ok &= ParseDouble(positional[3], &flags->mutation_prob);
  }
  if (positional.size() > 4) ok &= ParseInt64(positional[4], &flags->timeout_ms);
  if (!ok || flags->num_requests < 1 || flags->pool_size < 1 ||
      flags->timeout_ms < 1) {
    std::fprintf(stderr, "cspdb_serve: malformed positional arguments\n");
    return false;
  }
  if (!flags->listen.empty() && !flags->connect.empty()) {
    std::fprintf(stderr,
                 "cspdb_serve: --listen and --connect are exclusive\n");
    return false;
  }
  if (flags->verify_local && flags->connect.empty()) {
    std::fprintf(stderr, "cspdb_serve: --verify-local needs --connect\n");
    return false;
  }
  if (!flags->peers.empty() && flags->listen.empty()) {
    std::fprintf(stderr, "cspdb_serve: --peers needs --listen\n");
    return false;
  }
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

cspdb::service::WorkloadOptions WorkloadFrom(const Flags& flags) {
  cspdb::service::WorkloadOptions workload;
  workload.num_requests = flags.num_requests;
  workload.pool_size = flags.pool_size;
  workload.zipf_s = flags.zipf_s;
  workload.mutation_prob = flags.mutation_prob;
  workload.seed = 42;
  return workload;
}

// Refreshes the "service.load.*" gauges from the live service/pool while
// the replay runs, so the metrics snapshot reflects mid-run load, not
// just the quiesced end state. Plain std::thread + atomic flag: the
// sampler owns no shared state beyond the always-thread-safe gauge and
// stats accessors it calls.
class GaugeSampler {
 public:
  GaugeSampler(cspdb::service::CspdbService* server,
               cspdb::exec::ThreadPool* pool)
      : server_(server), pool_(pool), thread_([this] { Loop(); }) {}

  ~GaugeSampler() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      SampleOnce();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    SampleOnce();  // final sample after the stream drained
  }

  void SampleOnce() {
    CSPDB_GAUGE_SET("service.load.queue_depth", pool_->queued());
    CSPDB_GAUGE_SET("service.load.in_flight", server_->pending());
    CSPDB_GAUGE_SET(
        "service.load.cache_bytes",
        static_cast<int64_t>(server_->cache().stats().bytes));
    CSPDB_GAUGE_MAX("service.load.peak_in_flight", server_->pending());
  }

  cspdb::service::CspdbService* server_;
  cspdb::exec::ThreadPool* pool_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << contents;
  return out.good();
}

/// Writes --metrics-out / --stats-out if requested. Returns false on I/O
/// failure.
bool WriteArtifacts(const Flags& flags,
                    const cspdb::service::CspdbService& server) {
  namespace obs = cspdb::obs;
  if (!flags.metrics_out.empty()) {
    const std::string json = obs::MetricsRegistry::Global().SnapshotJson();
    if (!WriteTextFile(flags.metrics_out, json)) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   flags.metrics_out.c_str());
      return false;
    }
    std::printf("metrics written to %s\n", flags.metrics_out.c_str());
  }
  if (!flags.stats_out.empty()) {
    if (!WriteTextFile(flags.stats_out, server.stats_store().DumpJson())) {
      std::fprintf(stderr, "failed to write stats store to %s\n",
                   flags.stats_out.c_str());
      return false;
    }
    std::printf("stats store written to %s\n", flags.stats_out.c_str());
  }
  return true;
}

void PrintServiceSummary(const cspdb::service::CspdbService& server) {
  const cspdb::service::ServiceStats stats = server.stats();
  std::printf("cache_hits=%lld coalesced=%lld engine_invocations=%lld "
              "shed=%lld rejected=%lld\n",
              (long long)stats.cache_hits, (long long)stats.coalesced,
              (long long)stats.engine_invocations,
              (long long)stats.shed_deadline, (long long)stats.rejected);
}

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

// --- server mode ------------------------------------------------------------

int RunServer(const Flags& flags) {
  using namespace cspdb;
  using namespace cspdb::service;

  ServiceOptions options;
  options.default_timeout_ns = flags.timeout_ms * 1'000'000;
  CspdbService service(options);

  std::vector<net::PeerId> members;
  std::unique_ptr<net::ShardRouter> router;
  if (!flags.peers.empty()) {
    bool self_listed = false;
    for (const std::string& peer : SplitCommas(flags.peers)) {
      members.push_back({peer});
      self_listed = self_listed || peer == flags.listen;
    }
    if (!self_listed) {
      std::fprintf(stderr,
                   "cspdb_serve: --peers must include the --listen address "
                   "%s verbatim\n",
                   flags.listen.c_str());
      return 2;
    }
    router = std::make_unique<net::ShardRouter>(&service, flags.listen,
                                                members);
  }

  net::ServerOptions server_options;
  server_options.listen_address = flags.listen;
  net::NetServer server(&service, server_options);
  if (router != nullptr) server.set_router(router.get());
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "cspdb_serve: %s\n", error.c_str());
    return 1;
  }
  std::printf("listening on %s (%s)\n", server.address().c_str(),
              router != nullptr ? "clustered" : "single-node");
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(flags.serve_for_ms);
  while (!g_stop.load(std::memory_order_relaxed)) {
    if (flags.serve_for_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Shutdown();

  const net::ServerStats net_stats = server.stats();
  std::printf("\n--- serving summary (%s) ---\n", server.address().c_str());
  std::printf("connections:       %lld accepted, %lld closed\n",
              (long long)net_stats.connections_accepted,
              (long long)net_stats.connections_closed);
  std::printf("frames:            %lld in, %lld out (%lld protocol errors)\n",
              (long long)net_stats.frames_received,
              (long long)net_stats.frames_sent,
              (long long)net_stats.protocol_errors);
  std::printf("requests:          %lld\n",
              (long long)net_stats.requests_dispatched);
  if (router != nullptr) {
    const net::RouterStats rs = router->stats();
    std::printf("routing:           %lld local hits, %lld remote hits, "
                "%lld remote compute, %lld local compute, %lld peer "
                "failures\n",
                (long long)rs.local_hits, (long long)rs.remote_hits,
                (long long)rs.remote_compute, (long long)rs.local_compute,
                (long long)rs.peer_failures);
    // Machine-readable routing line (the CI smoke job greps remote_hits).
    std::printf("local_hits=%lld remote_hits=%lld remote_compute=%lld "
                "local_compute=%lld peer_failures=%lld protocol_errors=%lld\n",
                (long long)rs.local_hits, (long long)rs.remote_hits,
                (long long)rs.remote_compute, (long long)rs.local_compute,
                (long long)rs.peer_failures,
                (long long)net_stats.protocol_errors);
  }
  PrintServiceSummary(service);
  if (!WriteArtifacts(flags, service)) return 1;
  return 0;
}

// --- client (load generator) mode -------------------------------------------

int RunClient(const Flags& flags) {
  using namespace cspdb;
  using namespace cspdb::service;

  std::printf("generating %d requests (pool %d per kind, zipf s=%.2f, "
              "mutation %.2f)...\n",
              flags.num_requests, flags.pool_size, flags.zipf_s,
              flags.mutation_prob);
  const std::vector<ServiceRequest> stream =
      GenerateRequestStream(WorkloadFrom(flags));

  // The local reference for --verify-local: a fresh single-node service.
  // The determinism contract says its answers must be byte-identical to
  // whatever the cluster serves, no matter which node/cache/engine run
  // produced them.
  std::unique_ptr<CspdbService> reference;
  if (flags.verify_local) {
    ServiceOptions options;
    options.default_timeout_ns = -1;  // the reference never sheds
    reference = std::make_unique<CspdbService>(options);
  }

  struct WorkerResult {
    std::vector<int64_t> latencies_ns;
    int64_t ok = 0;
    int64_t errors = 0;
    int64_t mismatches = 0;
    int64_t remote = 0;
  };
  const int workers = flags.connections;
  std::vector<WorkerResult> results(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  std::atomic<std::size_t> next_index{0};
  const int64_t call_timeout_ms = flags.timeout_ms + 2000;

  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerResult& result = results[w];
      std::string error;
      std::unique_ptr<net::Connection> conn =
          net::Connection::Dial(flags.connect, 2000, &error);
      uint64_t request_id = 1;
      for (;;) {
        const std::size_t i = next_index.fetch_add(1);
        if (i >= stream.size()) break;
        if (conn == nullptr || conn->broken()) {
          conn = net::Connection::Dial(flags.connect, 2000, &error);
          if (conn == nullptr) {
            ++result.errors;
            continue;
          }
        }
        const auto start = std::chrono::steady_clock::now();
        std::optional<Response> response =
            conn->Call(stream[i], request_id++, 0, call_timeout_ms, &error);
        if (!response.has_value()) {
          ++result.errors;
          continue;
        }
        result.latencies_ns.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        if (response->status == StatusCode::kOk) ++result.ok;
        if (response->served_remotely) ++result.remote;
        if (reference != nullptr) {
          const Response local = reference->Handle(stream[i]);
          if (net::AnswerBytes(*response) != net::AnswerBytes(local)) {
            ++result.mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<int64_t> latencies;
  int64_t ok = 0, errors = 0, mismatches = 0, remote = 0;
  for (const WorkerResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_ns.begin(),
                     r.latencies_ns.end());
    ok += r.ok;
    errors += r.errors;
    mismatches += r.mismatches;
    remote += r.remote;
  }
  std::sort(latencies.begin(), latencies.end());
  auto quantile = [&](double q) -> int64_t {
    if (latencies.empty()) return 0;
    std::size_t rank = static_cast<std::size_t>(q * latencies.size());
    if (rank >= latencies.size()) rank = latencies.size() - 1;
    return latencies[rank];
  };
  std::printf("\n--- replay summary (%s, %d connections) ---\n",
              flags.connect.c_str(), workers);
  std::printf("responses:         %zu (ok %lld, errors %lld)\n",
              latencies.size(), (long long)ok, (long long)errors);
  std::printf("served remotely:   %lld\n", (long long)remote);
  std::printf("latency:           p50 %.1f us, p99 %.1f us, p999 %.1f us\n",
              quantile(0.5) / 1e3, quantile(0.99) / 1e3,
              quantile(0.999) / 1e3);
  if (reference != nullptr) {
    std::printf("verified against local compute: %lld mismatches\n",
                (long long)mismatches);
  }
  // Machine-readable line (the CI smoke job gates mismatches=0).
  std::printf("responses=%zu ok=%lld errors=%lld mismatches=%lld "
              "served_remotely=%lld\n",
              latencies.size(), (long long)ok, (long long)errors,
              (long long)mismatches, (long long)remote);
  return errors == 0 && mismatches == 0 ? 0 : 1;
}

// --- in-process replay mode (the original driver) ---------------------------

int RunLocalReplay(const Flags& flags) {
  using namespace cspdb;
  using namespace cspdb::service;

  std::printf("generating %d requests (pool %d per kind, zipf s=%.2f, "
              "mutation %.2f)...\n",
              flags.num_requests, flags.pool_size, flags.zipf_s,
              flags.mutation_prob);
  std::vector<ServiceRequest> stream =
      GenerateRequestStream(WorkloadFrom(flags));

  ServiceOptions options;
  options.default_timeout_ns = flags.timeout_ms * 1'000'000;
  CspdbService server(options);

  int64_t by_status[3] = {0, 0, 0};
  int64_t total_latency_ns = 0;
  int64_t max_latency_ns = 0;
  int64_t total_queue_wait_ns = 0;
  {
    GaugeSampler sampler(&server, &exec::ThreadPool::Global());

    std::vector<std::future<Response>> futures;
    futures.reserve(stream.size());
    for (ServiceRequest& request : stream) {
      futures.push_back(server.Submit(std::move(request)));
    }

    for (auto& f : futures) {
      Response r = f.get();
      ++by_status[static_cast<int>(r.status)];
      total_latency_ns += r.latency_ns;
      total_queue_wait_ns += r.queue_wait_ns;
      if (r.latency_ns > max_latency_ns) max_latency_ns = r.latency_ns;
    }
  }  // sampler takes its final quiesced sample here

  const ServiceStats stats = server.stats();
  const CacheStats cache = server.cache().stats();
  std::printf("\n--- serving summary ---\n");
  std::printf("requests:          %lld\n", (long long)stats.requests);
  std::printf("  ok:              %lld\n", (long long)by_status[0]);
  std::printf("  deadline_exceeded: %lld\n", (long long)by_status[1]);
  std::printf("  rejected:        %lld\n", (long long)by_status[2]);
  std::printf("cache hits:        %lld (misses %lld)\n",
              (long long)stats.cache_hits, (long long)stats.cache_misses);
  std::printf("coalesced:         %lld\n", (long long)stats.coalesced);
  std::printf("engine runs:       %lld\n",
              (long long)stats.engine_invocations);
  std::printf("cache bytes:       %lld / %lld (entries %lld, "
              "evictions %lld)\n",
              (long long)cache.bytes, (long long)server.cache().max_bytes(),
              (long long)cache.entries, (long long)cache.evictions);
  const int64_t handled = by_status[0] + by_status[1];
  std::printf("mean latency:      %.1f us (max %.1f us)\n",
              handled > 0 ? total_latency_ns / 1e3 / handled : 0.0,
              max_latency_ns / 1e3);
  std::printf("mean queue wait:   %.1f us\n",
              handled > 0 ? total_queue_wait_ns / 1e3 / handled : 0.0);
  std::printf("stats store keys:  %lld\n",
              (long long)server.stats_store().size());

  // Machine-readable line for CI (the smoke job greps cache_hits).
  PrintServiceSummary(server);

  if (!WriteArtifacts(flags, server)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bool want_help = false;
  if (!ParseFlags(argc, argv, &flags, &want_help)) {
    PrintUsage(stderr);
    return 2;
  }
  if (want_help) {
    PrintUsage(stdout);
    return 0;
  }
  if (!flags.listen.empty()) return RunServer(flags);
  if (!flags.connect.empty()) return RunClient(flags);
  return RunLocalReplay(flags);
}
