// servebench: the cspdb serving benchmark. Starts a two-node loopback
// cluster in this process and drives it over real sockets with one of the
// workloads in workloads.h, then prints one line per metric and, last, a
// JSON summary:
//
//   servebench --workload hot_repeat --seed 1 --seconds 10 --trace 0
//              --ports 47811,47812 [--trace-out FILE] [--git-head SHA]
//
// --trace 0 prints the end-to-end metrics (client-observed latency
// quantiles, throughput, set-up time, peak RSS). Every workload is a closed
// loop: one client connection per node, each keeping the workload's window
// of requests outstanding. --trace 1 drives the
// workload again, half untraced and half with a span around every call,
// replays the traced requests through each layer's public entry points in
// the order the server calls them, and prints the per-layer metrics. Every
// layer is measured from outside: calls the benchmark times, and the
// fields the server already returns.
//
// Correctness gate: during set-up every distinct request is answered by a
// single-node CspdbService with no deadline; every response the cluster
// returns must match it byte for byte (net::AnswerBytes).

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster.h"
#include "csp/solver.h"
#include "datalog/eval.h"
#include "db/containment.h"
#include "net/client.h"
#include "net/peer_ring.h"
#include "net/wire.h"
#include "obs/stats_store.h"
#include "service/fingerprint.h"
#include "stats.h"
#include "trace.h"
#include "util/simd.h"
#include "workloads.h"

namespace servebench {
namespace {

namespace service = cspdb::service;
namespace net = cspdb::net;
using service::RequestKind;
using service::Response;
using service::ServiceRequest;

// Cluster set-ups per run (start, connect, warm-up); setup_s is their
// median and the last one is measured.
constexpr int kSetupRepetitions = 9;
constexpr int kReferenceThreads = 4;
// One client connection per node. With two clients on one node and a
// window of one, concurrent forwards to the same owner fast-fail on the
// single PeerClient connection and are computed locally instead, so which
// keys end up cached where (and so hot_repeat's speed) would depend on
// thread timing. mixed_pipelined gets its concurrency from its window.
constexpr int kClients = 2;
constexpr int64_t kDialTimeoutMs = 2000;
constexpr int64_t kCallTimeoutMs = 30000;
// Gated figures are medians over this many equal windows of the timed
// phase. On a shared virtual machine the host now and then stalls every
// thread for some milliseconds, or slows a few seconds of a run; the median
// window is one such a stretch did not touch.
constexpr int kWindows = 10;
constexpr std::size_t kReplayMaxRequests = 2000;
constexpr double kReplayShareOfRun = 0.3;  // replay time cap, of --seconds

struct Options {
  WorkloadKind workload = WorkloadKind::kHotRepeat;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::array<int, 2> ports = {0, 0};
  std::string trace_out;
  std::string git_head = "unknown";
};

bool ParseInt(const std::string& text, int64_t lo, int64_t hi, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* options, std::string* error) {
  bool have_workload = false;
  bool have_ports = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    int64_t n = 0;
    if (flag == "--workload") {
      if (!ParseWorkloadKind(value, &options->workload)) {
        *error = "unknown workload " + value;
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, INT64_MAX, &n)) {
        *error = "bad --seed " + value;
        return false;
      }
      options->seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 600, &n)) {
        *error = "bad --seconds " + value;
        return false;
      }
      options->seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      options->trace = value == "1";
    } else if (flag == "--ports") {
      const std::size_t comma = value.find(',');
      int64_t p0 = 0, p1 = 0;
      if (comma == std::string::npos ||
          !ParseInt(value.substr(0, comma), 1, 65535, &p0) ||
          !ParseInt(value.substr(comma + 1), 1, 65535, &p1) || p0 == p1) {
        *error = "--ports takes two distinct ports, e.g. 47811,47812";
        return false;
      }
      options->ports = {static_cast<int>(p0), static_cast<int>(p1)};
      have_ports = true;
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else if (flag == "--git-head") {
      options->git_head = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_ports) {
    *error = "--workload and --ports are required";
    return false;
  }
  return true;
}

// --- output ----------------------------------------------------------------

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample counts and bases, printed with the value
};

std::string BuildStamp(const Options& options) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const std::string build_type = SERVEBENCH_BUILD_TYPE;
  std::ostringstream out;
  out << "{\"build_type\":" << Quote(build_type)
      << ",\"release\":" << (build_type == "Release" ? "true" : "false")
      << ",\"simd\":" << Quote(cspdb::simd::BackendName())
      << ",\"obs\":" << Quote(SERVEBENCH_OBS)
      << ",\"compiler\":" << Quote(compiler)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"git_head\":" << Quote(options.git_head) << "}";
  return out.str();
}

// --- correctness gate ------------------------------------------------------

// Reference answers, one slot per distinct request: a table row sent
// verbatim, or one relabeling. Positions are warm-up entries, then stream
// entries.
struct Reference {
  std::vector<int32_t> slot_of_position;
  std::vector<std::vector<uint8_t>> answers;
  std::vector<service::Fingerprint> fingerprints;
};

bool ComputeReference(const Workload& w, Reference* out, std::string* error) {
  std::vector<Entry> jobs;
  std::vector<int32_t> table_slot(w.table.size(), -1);
  auto slot_for = [&](const Entry& entry) {
    if (entry.relabel_seed == 0) {
      if (table_slot[entry.index] < 0) {
        table_slot[entry.index] = static_cast<int32_t>(jobs.size());
        jobs.push_back(entry);
      }
      return table_slot[entry.index];
    }
    jobs.push_back(entry);
    return static_cast<int32_t>(jobs.size() - 1);
  };
  out->slot_of_position.clear();
  for (const Entry& entry : w.warmup) {
    out->slot_of_position.push_back(slot_for(entry));
  }
  for (const Entry& entry : w.stream) {
    out->slot_of_position.push_back(slot_for(entry));
  }
  out->answers.assign(jobs.size(), {});
  out->fingerprints.assign(jobs.size(), {});

  cspdb::exec::ThreadPool pool(1);
  // No deadline. A node's cache budget: hot_repeat's relabelings hit the
  // pool's answers, and cold_engine's answers are not kept twice.
  service::ServiceOptions options;
  options.pool = &pool;
  options.cache.max_bytes = kCacheBytesPerNode;
  service::CspdbService reference(options);
  std::atomic<std::size_t> next{0};
  std::atomic<int64_t> not_ok{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kReferenceThreads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < jobs.size();
           i = next.fetch_add(1)) {
        const ServiceRequest request = w.Request(jobs[i]);
        service::Fingerprint fingerprint;
        std::optional<Response> response =
            reference.Probe(request, &fingerprint);
        if (!response.has_value()) response = reference.Handle(request);
        if (response->status != service::StatusCode::kOk) not_ok.fetch_add(1);
        out->answers[i] = net::AnswerBytes(*response);
        out->fingerprints[i] = fingerprint;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (not_ok.load() > 0) {
    *error = std::to_string(not_ok.load()) +
             " reference requests did not complete with OK";
    return false;
  }
  return true;
}

// --- clients ---------------------------------------------------------------

struct Sample {
  int64_t seq = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  int64_t server_ns = 0;  // Response.latency_ns
  int64_t queue_ns = 0;   // Response.queue_wait_ns
  bool ok = false;  // OK status and the reference answer
  bool hit = false;
  bool coalesced = false;
  bool remote = false;

  double LatencyMs() const { return (done_ns - send_ns) / 1e6; }
  double CallUs() const { return (done_ns - send_ns) / 1e3; }
};

struct Tally {
  int64_t attempted = 0;
  int64_t transport_errors = 0;
  int64_t bad_status = 0;
  int64_t mismatches = 0;

  int64_t failed() const { return transport_errors + bad_status + mismatches; }
  void Add(const Tally& other) {
    attempted += other.attempted;
    transport_errors += other.transport_errors;
    bad_status += other.bad_status;
    mismatches += other.mismatches;
  }
};

/// One client connection that may have several requests outstanding.
/// Responses can come back in any order; the request id matches them up.
/// After a transport failure the connection is dropped (every outstanding
/// request is lost) and the next Send redials.
class Client {
 public:
  explicit Client(std::string address) : address_(std::move(address)) {}

  bool Connect(std::string* error) {
    connection_ = net::Connection::Dial(address_, kDialTimeoutMs, error);
    return connection_ != nullptr;
  }

  void Drop() { connection_.reset(); }

  /// Sends a request, given as its payload, without waiting for its
  /// answer. Returns its request id, or 0 when the connection failed.
  uint64_t Send(const std::vector<uint8_t>& payload) {
    std::string error;
    if (connection_ == nullptr && !Connect(&error)) return 0;
    net::Frame frame;
    frame.type = net::FrameType::kRequest;
    frame.request_id = next_id_++;
    frame.payload = payload;
    bytes_.clear();
    net::AppendFrame(frame, &bytes_);
    if (!connection_->SendBytes(bytes_.data(), bytes_.size(), &error)) {
      Drop();
      return 0;
    }
    return frame.request_id;
  }

  /// Waits for the next response and sets *id to the request it answers.
  /// nullopt, with the connection dropped, when none arrived.
  std::optional<Response> Receive(uint64_t* id) {
    std::string error;
    std::optional<net::Frame> frame;
    if (connection_ != nullptr) {
      frame = connection_->ReadFrame(kCallTimeoutMs, &error);
    }
    std::optional<Response> response;
    if (frame.has_value() && frame->type == net::FrameType::kResponse) {
      response = net::DecodeResponsePayload(frame->payload.data(),
                                            frame->payload.size(), &error);
    }
    if (!response.has_value()) {
      Drop();
      return std::nullopt;
    }
    *id = frame->request_id;
    return response;
  }

 private:
  std::string address_;
  std::unique_ptr<net::Connection> connection_;
  uint64_t next_id_ = 1;
  std::vector<uint8_t> bytes_;
};

/// Copies the response's fields into `sample` and checks its answer
/// against `expected`.
void Check(const Response& response, const std::vector<uint8_t>& expected,
           Sample* sample, Tally* tally) {
  sample->server_ns = response.latency_ns;
  sample->queue_ns = response.queue_wait_ns;
  sample->hit = response.cache_hit;
  sample->coalesced = response.coalesced;
  sample->remote = response.served_remotely;
  if (response.status != service::StatusCode::kOk) {
    ++tally->bad_status;
  } else if (net::AnswerBytes(response) != expected) {
    ++tally->mismatches;
  } else {
    sample->ok = true;
  }
}

/// Sends one request, waits for its answer and checks it.
std::optional<Response> CallOnce(Client* client,
                                 const std::vector<uint8_t>& payload,
                                 const std::vector<uint8_t>& expected,
                                 Tally* tally) {
  ++tally->attempted;
  const uint64_t id = client->Send(payload);
  uint64_t answered = 0;
  std::optional<Response> response;
  if (id != 0) response = client->Receive(&answered);
  if (!response.has_value() || answered != id) {
    ++tally->transport_errors;
    client->Drop();
    return std::nullopt;
  }
  Sample sample;
  Check(*response, expected, &sample, tally);
  return response;
}

// --- the cluster under load ------------------------------------------------

// Members are destroyed bottom-up: clients disconnect before the cluster
// drains.
struct Rig {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::optional<Response>> warmup_responses;
  Tally warmup_tally;

  void Stop() {
    clients.clear();
    cluster.reset();
    warmup_responses.clear();
    warmup_tally = Tally();
  }
};

// Starts the cluster, connects the workload's clients and sends the
// warm-up entries (untimed, answers checked).
bool StartRig(const Workload& w, const Reference& ref,
              const std::array<int, 2>& ports, Rig* rig,
              std::string* error) {
  rig->cluster = Cluster::Start(ports, error);
  if (rig->cluster == nullptr) return false;
  for (int i = 0; i < kClients; ++i) {
    rig->clients.push_back(
        std::make_unique<Client>(rig->cluster->address(i % 2)));
    if (!rig->clients.back()->Connect(error)) return false;
  }
  std::vector<uint8_t> scratch;
  for (std::size_t i = 0; i < w.warmup.size(); ++i) {
    rig->warmup_responses.push_back(
        CallOnce(rig->clients[i % rig->clients.size()].get(),
                 w.Payload(w.warmup[i], &scratch),
                 ref.answers[ref.slot_of_position[i]], &rig->warmup_tally));
  }
  return true;
}

/// Responses kept for the replay: those of sequence numbers
/// [first_seq, first_seq + responses.size()).
struct Keep {
  int64_t first_seq = 0;
  std::vector<std::optional<Response>> responses;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<double> lag_ms;  // from a response to the next send
  Tally tally;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::unique_ptr<SpanLane>> lanes;  // traced phases only
  double peak_rss_mb = 0;  // VmHWM as the clients finished; -1 if missing

  void Merge(Phase&& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
    tally.Add(other.tally);
  }
};

// --- memory ----------------------------------------------------------------

// A "VmRSS:"-style field of /proc/self/status in MB; -1 where missing.
double ProcStatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = field;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return -1;
}

// Returns freed heap to the system and restarts the process's peak-RSS
// mark (Linux: "5" written to /proc/self/clear_refs), so that VmHWM covers
// the measured cluster's set-up and load but not the set-up before it.
// False where the mark cannot be restarted.
bool RestartPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream file("/proc/self/clear_refs");
  file << "5";
  file.close();
  return static_cast<bool>(file);
}

// The process's lifetime peak RSS in MB, for systems without the above.
double LifetimePeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Per-slot samples a client may record per second before its buffer has
// to grow: several times the fastest workload's rate on a 4-core x86-64
// virtual machine when the benchmark was defined.
constexpr std::size_t kSamplesPerSlotSecond = 2000;

// Each client's sample buffers for the timed phase, written once before
// the peak mark restarts: recording samples then adds nothing to the peak,
// however many requests a run completes.
std::vector<Phase> SampleBuffers(const Workload& w, int seconds) {
  const std::size_t capacity = kSamplesPerSlotSecond *
                               static_cast<std::size_t>(w.window) *
                               static_cast<std::size_t>(seconds);
  std::vector<Phase> parts(kClients);
  for (Phase& part : parts) {
    part.samples.resize(capacity);
    part.samples.clear();
    part.lag_ms.resize(capacity);
    part.lag_ms.clear();
  }
  return parts;
}

// One client connection's share of a phase: it takes stream positions from
// `*cursor` until `stop_ns`, keeping w.window requests outstanding, then
// waits for the ones still out. In a traced phase each window slot has its
// own lane (`lanes[slot]`); a slot holds one request at a time, so the
// spans of a lane never overlap.
void RunClient(const Workload& w, const Reference& ref, Client* client,
               std::atomic<int64_t>* cursor, int64_t stop_ns,
               const std::vector<SpanLane*>& lanes, Keep* keep, Phase* out) {
  struct Outstanding {
    uint64_t id;
    int64_t seq;
    int slot;
    int64_t send_ns;
  };
  std::vector<uint8_t> scratch;
  const std::size_t n = w.stream.size();
  std::vector<Outstanding> outstanding;
  std::vector<int> free_slots;
  for (int slot = w.window - 1; slot >= 0; --slot) free_slots.push_back(slot);
  auto fail_outstanding = [&] {
    out->tally.transport_errors += static_cast<int64_t>(outstanding.size());
    for (const Outstanding& o : outstanding) free_slots.push_back(o.slot);
    outstanding.clear();
  };
  int64_t prev_done_ns = 0;
  for (;;) {
    while (!free_slots.empty() && NowNs() < stop_ns) {
      const int64_t seq = cursor->fetch_add(1);
      const std::vector<uint8_t>& payload =
          w.Payload(w.stream[static_cast<std::size_t>(seq) % n], &scratch);
      const int64_t send_ns = NowNs();
      if (prev_done_ns != 0) {
        out->lag_ms.push_back((send_ns - prev_done_ns) / 1e6);
        prev_done_ns = 0;
      }
      ++out->tally.attempted;
      const uint64_t id = client->Send(payload);
      if (id == 0) {
        ++out->tally.transport_errors;
        fail_outstanding();
        continue;
      }
      outstanding.push_back({id, seq, free_slots.back(), send_ns});
      free_slots.pop_back();
    }
    if (outstanding.empty()) break;

    uint64_t id = 0;
    std::optional<Response> response = client->Receive(&id);
    const int64_t done_ns = NowNs();
    auto it = std::find_if(outstanding.begin(), outstanding.end(),
                           [id](const Outstanding& o) { return o.id == id; });
    if (!response.has_value() || it == outstanding.end()) {
      client->Drop();
      fail_outstanding();
      continue;
    }
    const Outstanding done = *it;
    outstanding.erase(it);
    free_slots.push_back(done.slot);
    prev_done_ns = done_ns;

    Sample sample;
    sample.seq = done.seq;
    sample.send_ns = done.send_ns;
    sample.done_ns = done_ns;
    const std::size_t position =
        w.warmup.size() + static_cast<std::size_t>(done.seq) % n;
    Check(*response, ref.answers[ref.slot_of_position[position]], &sample,
          &out->tally);
    if (!lanes.empty()) {
      Span span;
      span.name = "client.request";
      span.start_ns = sample.send_ns;
      span.end_ns = sample.done_ns;
      span.request_id = static_cast<uint64_t>(done.seq) + 1;
      const double handle_us = sample.server_ns / 1e3;
      const double queue_us = sample.queue_ns / 1e3;
      span.arg_names[0] = "server_handle_us";
      span.arg_values[0] = handle_us;
      span.arg_names[1] = "queue_wait_us";
      span.arg_values[1] = queue_us;
      span.arg_names[2] = "unattributed_us";
      span.arg_values[2] = sample.CallUs() - handle_us - queue_us;
      lanes[done.slot]->Add(span);
    }
    const int64_t kept = done.seq - (keep != nullptr ? keep->first_seq : 0);
    if (keep != nullptr && kept >= 0 &&
        kept < static_cast<int64_t>(keep->responses.size())) {
      keep->responses[kept] = std::move(response);
    }
    out->samples.push_back(sample);
  }
}

// Samples pending() and ThreadPool::queued() of both nodes every
// millisecond while a traced phase runs.
class Sampler {
 public:
  explicit Sampler(Cluster* cluster) : cluster_(cluster) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        double pending = 0, queued = 0;
        for (int i = 0; i < 2; ++i) {
          pending += cluster_->node(i).service->pending();
          queued += static_cast<double>(cluster_->node(i).pool.queued());
        }
        pending_.push_back(pending);
        queued_.push_back(queued);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after Stop().
  const std::vector<double>& pending() const { return pending_; }
  const std::vector<double>& queued() const { return queued_; }

 private:
  Cluster* cluster_;
  std::atomic<bool> stop_{false};
  std::vector<double> pending_;
  std::vector<double> queued_;
  std::thread thread_;  // last: uses the members above
};

// Drives one phase of `duration_ns`, every client taking stream positions
// from `*cursor` and recording into its entry of `parts` (made here when
// empty). The peak RSS is read as soon as the clients finish, before their
// samples are merged.
Phase RunPhase(const Workload& w, const Reference& ref, Rig* rig,
               std::atomic<int64_t>* cursor, int64_t duration_ns,
               bool traced, Keep* keep, std::vector<Phase> parts = {}) {
  Phase phase;
  const std::size_t clients = rig->clients.size();
  parts.resize(clients);
  std::vector<std::vector<SpanLane*>> lanes(clients);
  for (std::size_t i = 0; i < clients && traced; ++i) {
    for (int slot = 0; slot < w.window; ++slot) {
      phase.lanes.push_back(std::make_unique<SpanLane>(
          "client-" + std::to_string(i) + "." + std::to_string(slot)));
      lanes[i].push_back(phase.lanes.back().get());
    }
  }
  phase.start_ns = NowNs();
  const int64_t stop_ns = phase.start_ns + duration_ns;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      RunClient(w, ref, rig->clients[i].get(), cursor, stop_ns, lanes[i],
                keep, &parts[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  phase.peak_rss_mb = ProcStatusMb("VmHWM:");
  phase.end_ns = phase.start_ns;
  for (Phase& part : parts) {
    for (const Sample& s : part.samples) {
      phase.end_ns = std::max(phase.end_ns, s.done_ns);
    }
    phase.Merge(std::move(part));
  }
  return phase;
}

std::vector<double> LatenciesMs(const Phase& phase) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (s.ok) out.push_back(s.LatencyMs());
  }
  return out;
}

double ThroughputRps(const Phase& phase) {
  int64_t ok = 0;
  for (const Sample& s : phase.samples) ok += s.ok ? 1 : 0;
  return Ratio(static_cast<double>(ok), (phase.end_ns - phase.start_ns) / 1e9);
}

// The gated latency and throughput figures are medians over kWindows equal
// windows of the timed phase (a response belongs to the window it arrived
// in) of each window's p50, p90 and throughput.
struct Windowed {
  double p50_ms = 0;
  double p90_ms = 0;
  double throughput_rps = 0;
  std::size_t min_samples = 0;  // fewest OK responses in one window
};

Windowed WindowedMedians(const Phase& phase, int64_t duration_ns) {
  std::vector<std::vector<double>> latencies(kWindows);
  for (const Sample& s : phase.samples) {
    if (!s.ok) continue;
    const int64_t w = (s.done_ns - phase.start_ns) * kWindows / duration_ns;
    latencies[std::clamp<int64_t>(w, 0, kWindows - 1)].push_back(
        s.LatencyMs());
  }
  std::vector<double> p50, p90, rps;
  Windowed out;
  out.min_samples = SIZE_MAX;
  for (const std::vector<double>& window : latencies) {
    p50.push_back(Median(window));
    p90.push_back(NearestRank(window, 0.9));
    rps.push_back(window.size() * 1e9 * kWindows / duration_ns);
    out.min_samples = std::min(out.min_samples, window.size());
  }
  out.p50_ms = Median(p50);
  out.p90_ms = Median(p90);
  out.throughput_rps = Median(rps);
  return out;
}

// --- replay through the layers ---------------------------------------------

struct ReplayRecord {
  RequestKind kind = RequestKind::kSolveCsp;
  bool cq_acyclic = false;
  bool hit = false;
  bool exact = true;
  int root = -1;
  int encode[2] = {-1, -1};  // request, response
  int decode[2] = {-1, -1};
  int fingerprint = -1;
  int lookup = -1;
  int engine = -1;
  int insert = -1;
  int record = -1;
  int64_t work = 0;  // search nodes / rows out / derived facts
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
};

struct ReplayItem {
  Entry entry;
  const Response* response;
  uint64_t request_id;  // that of the request's over-the-wire span
};

service::RowsAnswer SortedRows(std::vector<cspdb::Tuple> tuples, int arity) {
  std::sort(tuples.begin(), tuples.end());
  service::RowsAnswer out;
  out.arity = arity;
  out.num_rows = static_cast<int64_t>(tuples.size());
  for (const cspdb::Tuple& t : tuples) {
    out.rows.insert(out.rows.end(), t.begin(), t.end());
  }
  return out;
}

// Replays `items` in order through the public entry points of each layer,
// in the order the server calls them, each call a child span of one
// "replay.request" span. The engine runs on the canonical instance on a
// cache miss, as in CspdbService.
std::vector<ReplayRecord> Replay(const Workload& w,
                                 const std::vector<ReplayItem>& items,
                                 int64_t deadline_ns, SpanLane* lane) {
  service::CacheConfig cache_config;
  cache_config.max_bytes = kCacheBytesPerNode;
  service::ResultCache cache(cache_config);
  cspdb::obs::StatsStore stats_store;
  std::vector<ReplayRecord> records;
  for (const ReplayItem& item : items) {
    if (NowNs() > deadline_ns) break;
    const ServiceRequest original = w.Request(item.entry);
    ReplayRecord rec;
    rec.kind = service::KindOf(original);
    const uint64_t rid = item.request_id;
    ScopedSpan root(lane, "replay.request", rid, -1);
    rec.root = root.index();
    auto child = [&](const char* name) {
      return lane->Begin(name, rid, rec.root);
    };

    std::vector<uint8_t> wire;
    rec.encode[0] = child("net.wire.encode_request");
    {
      net::Frame frame;
      frame.type = net::FrameType::kRequest;
      frame.request_id = rid;
      net::EncodeRequestPayload(original, &frame.payload);
      net::AppendFrame(frame, &wire);
    }
    lane->End(rec.encode[0]);
    rec.request_bytes = wire.size();

    std::optional<ServiceRequest> decoded;
    rec.decode[0] = child("net.wire.decode_request");
    {
      net::FrameAssembler assembler;
      assembler.Feed(wire.data(), wire.size());
      net::Frame frame;
      std::string error;
      if (assembler.Next(&frame) == net::FrameAssembler::Status::kFrame) {
        decoded = net::DecodeRequestPayload(frame.payload.data(),
                                            frame.payload.size(), &error);
      }
    }
    lane->End(rec.decode[0]);
    if (!decoded.has_value()) continue;
    const ServiceRequest& request = *decoded;

    service::Fingerprint fp;
    std::optional<service::CanonicalCsp> canon;
    rec.fingerprint = child("service.fingerprint");
    switch (rec.kind) {
      case RequestKind::kSolveCsp:
        canon = service::CanonicalizeCsp(
            std::get<service::SolveCspRequest>(request).instance);
        fp = canon->fingerprint;
        break;
      case RequestKind::kEvalCq: {
        const auto& r = std::get<service::EvalCqRequest>(request);
        fp = service::CombineFingerprints(
            1, {service::FingerprintQuery(r.query),
                service::FingerprintStructure(r.database)});
        break;
      }
      case RequestKind::kDatalogFixpoint: {
        const auto& r = std::get<service::DatalogFixpointRequest>(request);
        fp = service::CombineFingerprints(
            2, {service::FingerprintProgram(r.program),
                service::FingerprintStructure(r.edb)});
        break;
      }
      case RequestKind::kCheckContainment: {
        const auto& r = std::get<service::CheckContainmentRequest>(request);
        fp = service::CombineFingerprints(
            3, {service::FingerprintQuery(r.q1),
                service::FingerprintQuery(r.q2)});
        break;
      }
    }
    lane->End(rec.fingerprint);
    rec.exact = fp.exact;

    std::shared_ptr<const service::EngineAnswer> cached;
    if (fp.exact) {
      rec.lookup = child("service.cache.lookup");
      cached = cache.Lookup(fp, rec.kind, NowNs());
      lane->End(rec.lookup);
    }
    rec.hit = cached != nullptr;
    if (!rec.hit) {
      std::shared_ptr<const service::EngineAnswer> answer;
      switch (rec.kind) {
        case RequestKind::kSolveCsp: {
          rec.engine = child("csp.solve");
          cspdb::BacktrackingSolver solver(canon->canonical);
          service::CspAnswer csp_answer;
          csp_answer.solution = solver.Solve();
          rec.work = solver.stats().nodes;
          answer = std::make_shared<const service::EngineAnswer>(
              std::move(csp_answer));
          break;
        }
        case RequestKind::kEvalCq: {
          const auto& r = std::get<service::EvalCqRequest>(request);
          rec.cq_acyclic = IsAcyclicQuery(r.query);
          rec.engine = child("db.eval_cq");
          const cspdb::DbRelation result = cspdb::Evaluate(r.query, r.database);
          std::vector<cspdb::Tuple> tuples;
          for (auto row : result.rows()) tuples.push_back(row.ToTuple());
          rec.work = static_cast<int64_t>(tuples.size());
          answer = std::make_shared<const service::EngineAnswer>(
              SortedRows(std::move(tuples), result.arity()));
          break;
        }
        case RequestKind::kDatalogFixpoint: {
          const auto& r = std::get<service::DatalogFixpointRequest>(request);
          rec.engine = child("datalog.fixpoint");
          const cspdb::DatalogResult result =
              cspdb::EvaluateSemiNaive(r.program, r.edb);
          service::DatalogAnswer dl;
          dl.goal_derived = result.GoalDerived(r.program);
          const cspdb::TupleSet& goal = result.Facts(r.program.goal());
          dl.goal_facts =
              SortedRows({goal.begin(), goal.end()},
                         std::max(0, r.program.ArityOf(r.program.goal())));
          for (const auto& [predicate, facts] : result.idb) {
            dl.total_idb_facts += static_cast<int64_t>(facts.size());
          }
          rec.work = dl.total_idb_facts;
          answer = std::make_shared<const service::EngineAnswer>(
              std::move(dl));
          break;
        }
        case RequestKind::kCheckContainment: {
          const auto& r = std::get<service::CheckContainmentRequest>(request);
          rec.engine = child("db.containment");
          service::BoolAnswer b;
          b.value = cspdb::IsContainedIn(r.q1, r.q2);
          rec.work = 1;
          answer = std::make_shared<const service::EngineAnswer>(b);
          break;
        }
      }
      lane->End(rec.engine);
      if (fp.exact) {
        rec.insert = child("service.cache.insert");
        cache.Insert(fp, rec.kind, answer, NowNs());
        lane->End(rec.insert);
      }
    } else if (rec.kind == RequestKind::kEvalCq) {
      rec.cq_acyclic =
          IsAcyclicQuery(std::get<service::EvalCqRequest>(request).query);
    }

    rec.record = child("obs.stats_store.record");
    {
      cspdb::obs::RequestOutcome outcome;
      outcome.kind = static_cast<int32_t>(rec.kind);
      outcome.cache_disposition = rec.hit ? 1 : 0;
      outcome.work_items = rec.work;
      outcome.wall_ns = NowNs() - lane->at(rec.root).start_ns;
      stats_store.Record({fp.lo, fp.hi}, outcome);
    }
    lane->End(rec.record);

    std::vector<uint8_t> out;
    rec.encode[1] = child("net.wire.encode_response");
    {
      net::Frame frame;
      frame.type = net::FrameType::kResponse;
      frame.request_id = rid;
      net::EncodeResponsePayload(*item.response, &frame.payload);
      net::AppendFrame(frame, &out);
    }
    lane->End(rec.encode[1]);
    rec.response_bytes = out.size();

    rec.decode[1] = child("net.wire.decode_response");
    {
      net::FrameAssembler assembler;
      assembler.Feed(out.data(), out.size());
      net::Frame frame;
      std::string error;
      if (assembler.Next(&frame) == net::FrameAssembler::Status::kFrame) {
        net::DecodeResponsePayload(frame.payload.data(), frame.payload.size(),
                                   &error);
      }
    }
    lane->End(rec.decode[1]);
    records.push_back(rec);
  }
  return records;
}

// --- workload properties ---------------------------------------------------

struct Properties {
  uint64_t digest = 0;
  int64_t stream_requests = 0;
  double verbatim_share = 0, isomorphic_share = 0, unique_share = 0;
  int64_t cq_acyclic = 0, cq_cyclic = 0;
  int64_t csp_2valued = 0, csp_4valued = 0, csp_other = 0;
  int64_t distinct_fingerprints = 0;
  double node0_owned_share = 0;
};

Properties DescribeWorkload(const Workload& w, const Reference& ref,
                            const std::array<int, 2>& ports) {
  Properties p;
  const StreamHashes hashes = HashStream(w);
  p.digest = hashes.digest;
  p.stream_requests = static_cast<int64_t>(w.stream.size());
  // Each stream entry is classified against everything sent before it:
  // the same payload bytes, else an isomorphic request (same exact
  // fingerprint), else unique.
  std::unordered_set<uint64_t> seen_bytes;
  std::unordered_set<uint64_t> seen_fp;
  auto fp_key = [](const service::Fingerprint& f) {
    return f.lo ^ (f.hi * 0x9e3779b97f4a7c15ull);
  };
  int64_t verbatim = 0, isomorphic = 0, unique = 0;
  for (std::size_t position = 0; position < hashes.entry_hashes.size();
       ++position) {
    const uint64_t bytes = hashes.entry_hashes[position];
    const service::Fingerprint& fp =
        ref.fingerprints[ref.slot_of_position[position]];
    if (position >= w.warmup.size()) {
      if (seen_bytes.count(bytes) > 0) {
        ++verbatim;
      } else if (fp.exact && seen_fp.count(fp_key(fp)) > 0) {
        ++isomorphic;
      } else {
        ++unique;
      }
    }
    seen_bytes.insert(bytes);
    if (fp.exact) seen_fp.insert(fp_key(fp));
  }
  const double n = static_cast<double>(w.stream.size());
  p.verbatim_share = verbatim / n;
  p.isomorphic_share = isomorphic / n;
  p.unique_share = unique / n;

  // Each table row's shape counter, found once per row.
  std::vector<int64_t*> shape_of(w.table.size(), nullptr);
  int64_t other_kind = 0;
  for (const Entry& entry : w.stream) {
    int64_t*& shape = shape_of[entry.index];
    if (shape == nullptr) {
      const ServiceRequest request = w.Request({entry.index, 0});
      shape = &other_kind;
      if (const auto* cq = std::get_if<service::EvalCqRequest>(&request)) {
        shape = IsAcyclicQuery(cq->query) ? &p.cq_acyclic : &p.cq_cyclic;
      } else if (const auto* csp =
                     std::get_if<service::SolveCspRequest>(&request)) {
        const int d = csp->instance.num_values();
        shape = d == 2 ? &p.csp_2valued
                       : d == 4 ? &p.csp_4valued : &p.csp_other;
      }
    }
    ++*shape;
  }

  const net::PeerRing ring(RingMembers(ports));
  const std::string node0 = RingMembers(ports)[0].id;
  std::vector<std::pair<uint64_t, uint64_t>> distinct;
  int64_t owned = 0;
  for (const service::Fingerprint& fp : ref.fingerprints) {
    if (fp.exact) distinct.push_back({fp.lo, fp.hi});
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  for (const auto& [lo, hi] : distinct) {
    service::Fingerprint fp;
    fp.lo = lo;
    fp.hi = hi;
    if (ring.OwnerOf(fp) == node0) ++owned;
  }
  p.distinct_fingerprints = static_cast<int64_t>(distinct.size());
  p.node0_owned_share = Ratio(static_cast<double>(owned),
                              static_cast<double>(distinct.size()));
  return p;
}

// --- per-layer metrics -----------------------------------------------------

struct Snapshot {
  cspdb::net::RouterStats router[2];
  service::CacheStats cache[2];
};

Snapshot TakeSnapshot(Cluster* cluster) {
  Snapshot s;
  for (int i = 0; i < 2; ++i) {
    s.router[i] = cluster->node(i).router->stats();
    s.cache[i] = cluster->node(i).service->cache().stats();
  }
  return s;
}


std::vector<Metric> LayerMetrics(const Phase& traced, double untraced_p50_ms,
                                 const Snapshot& before,
                                 const Snapshot& after,
                                 const Sampler& sampler,
                                 const std::vector<ReplayRecord>& replay,
                                 const SpanLane& replay_lane,
                                 const Properties& props,
                                 const std::vector<std::optional<Response>>&
                                     warmup_responses) {
  std::vector<Metric> m;
  const std::vector<int64_t> self = SelfTimesNs(replay_lane.spans());
  auto us = [&](int index) { return index < 0 ? 0.0 : self[index] / 1e3; };
  auto median_of = [&](auto select) {
    std::vector<double> values;
    for (const ReplayRecord& r : replay) {
      const std::optional<double> v = select(r);
      if (v.has_value()) values.push_back(*v);
    }
    return std::make_pair(Median(values), values.size());
  };
  auto add = [&](const std::string& name, double value, const char* unit,
                 std::string note = "") {
    m.push_back({name, value, unit, std::move(note)});
  };
  auto add_median = [&](const std::string& name, const char* unit,
                        auto select) {
    const auto [value, count] = median_of(select);
    add(name, value, unit, "median of " + std::to_string(count));
  };

  // net wire
  add_median("net.wire.encode_us", "us", [&](const ReplayRecord& r) {
    return std::optional<double>(us(r.encode[0]) + us(r.encode[1]));
  });
  add_median("net.wire.decode_us", "us", [&](const ReplayRecord& r) {
    return std::optional<double>(us(r.decode[0]) + us(r.decode[1]));
  });
  add_median("net.wire.request_bytes", "bytes", [](const ReplayRecord& r) {
    return std::optional<double>(static_cast<double>(r.request_bytes));
  });
  add_median("net.wire.response_bytes", "bytes", [](const ReplayRecord& r) {
    return std::optional<double>(static_cast<double>(r.response_bytes));
  });

  // net transport: client call time not spent in the server's handler or
  // its queue.
  std::vector<double> transport, remote_us, local_hit_us, local_us, hit_ns,
      miss_ns;
  int64_t coalesced = 0;
  for (const Sample& s : traced.samples) {
    if (!s.ok) continue;
    transport.push_back(s.CallUs() - (s.server_ns + s.queue_ns) / 1e3);
    if (s.remote) {
      remote_us.push_back(s.CallUs());
    } else {
      local_us.push_back(s.CallUs());
      if (s.hit) local_hit_us.push_back(s.CallUs());
    }
    (s.hit ? hit_ns : miss_ns).push_back(static_cast<double>(s.server_ns));
    coalesced += s.coalesced ? 1 : 0;
  }
  const double responses = static_cast<double>(hit_ns.size() + miss_ns.size());
  // The warm-up sends every pool entry for the first time: hot_repeat's
  // only misses.
  for (const std::optional<Response>& r : warmup_responses) {
    if (r.has_value() && r->status == service::StatusCode::kOk) {
      (r->cache_hit ? hit_ns : miss_ns)
          .push_back(static_cast<double>(r->latency_ns));
    }
  }
  add("net.transport_us", Median(transport), "us",
      "median of " + std::to_string(transport.size()));

  // net router (both nodes; base: routed requests)
  double local_hits = 0, remote_hits = 0, remote_compute = 0,
         local_compute = 0, peer_failures = 0;
  for (int i = 0; i < 2; ++i) {
    const auto& a = after.router[i];
    const auto& b = before.router[i];
    local_hits += a.local_hits - b.local_hits;
    remote_hits += a.remote_hits - b.remote_hits;
    remote_compute += a.remote_compute - b.remote_compute;
    local_compute += a.local_compute - b.local_compute;
    peer_failures += a.peer_failures - b.peer_failures;
  }
  const double routed =
      local_hits + remote_hits + remote_compute + local_compute;
  const std::string routed_note = "of " + Num(routed) + " routed";
  add("net.router.local_hit_share", Ratio(local_hits, routed), "share",
      routed_note);
  add("net.router.remote_hit_share", Ratio(remote_hits, routed), "share",
      routed_note);
  add("net.router.remote_compute_share", Ratio(remote_compute, routed),
      "share", routed_note);
  add("net.router.local_compute_share", Ratio(local_compute, routed), "share",
      routed_note);
  add("net.router.peer_failure_share", Ratio(peer_failures, routed), "share",
      routed_note);
  // Local hits are the baseline when the workload has any, else every
  // locally served request.
  const std::vector<double>& local_base =
      local_hit_us.empty() ? local_us : local_hit_us;
  add("net.router.remote_extra_us",
      remote_us.empty() || local_base.empty()
          ? 0.0
          : Median(remote_us) - Median(local_base),
      "us",
      std::to_string(remote_us.size()) + " remote vs " +
          std::to_string(local_base.size()) +
          (local_hit_us.empty() ? " local" : " local hits"));
  add("net.ring.node0_owned_share", props.node0_owned_share, "share",
      "of " + std::to_string(props.distinct_fingerprints) +
          " distinct fingerprints");

  // service fingerprint, per request kind
  const std::pair<const char*, RequestKind> kinds[] = {
      {"service.fingerprint.csp_us", RequestKind::kSolveCsp},
      {"service.fingerprint.cq_us", RequestKind::kEvalCq},
      {"service.fingerprint.datalog_us", RequestKind::kDatalogFixpoint},
      {"service.fingerprint.containment_us", RequestKind::kCheckContainment}};
  for (const auto& [name, kind] : kinds) {
    add_median(name, "us", [&, kind = kind](const ReplayRecord& r) {
      return r.kind == kind ? std::optional<double>(us(r.fingerprint))
                            : std::nullopt;
    });
  }
  double inexact = 0;
  for (const ReplayRecord& r : replay) inexact += r.exact ? 0 : 1;
  add("service.fingerprint.inexact_share",
      Ratio(inexact, static_cast<double>(replay.size())), "share",
      "of " + std::to_string(replay.size()) + " replayed");

  // service cache
  add_median("service.cache.lookup_us", "us", [&](const ReplayRecord& r) {
    return r.lookup >= 0 ? std::optional<double>(us(r.lookup)) : std::nullopt;
  });
  add_median("service.cache.insert_us", "us", [&](const ReplayRecord& r) {
    return r.insert >= 0 ? std::optional<double>(us(r.insert)) : std::nullopt;
  });
  double hits = 0, misses = 0, inserts = 0, evictions = 0, bytes = 0;
  for (int i = 0; i < 2; ++i) {
    hits += after.cache[i].hits - before.cache[i].hits;
    misses += after.cache[i].misses - before.cache[i].misses;
    inserts += after.cache[i].insertions - before.cache[i].insertions;
    evictions += after.cache[i].evictions - before.cache[i].evictions;
    bytes += static_cast<double>(after.cache[i].bytes);
  }
  add("service.cache.hit_rate", Ratio(hits, hits + misses), "share",
      "of " + Num(hits + misses) + " exact-key lookups");
  add("service.cache.evictions_per_insert", Ratio(evictions, inserts),
      "ratio", "of " + Num(inserts) + " inserts");
  add("service.cache.bytes", bytes, "bytes", "both nodes, end of run");

  // service handle: server-reported handle time by cache outcome,
  // warm-up included. cold_engine has no hits; it reports what its
  // replayed requests' hit path (fingerprint, lookup, record) costs.
  double hit_us = Median(hit_ns) / 1e3;
  std::string hit_note = "median of " + std::to_string(hit_ns.size());
  if (hit_ns.empty()) {
    hit_us = median_of([&](const ReplayRecord& r) {
               return std::optional<double>(us(r.fingerprint) + us(r.lookup) +
                                            us(r.record));
             }).first;
    hit_note = "replayed hit path";
  }
  const double miss_us = Median(miss_ns) / 1e3;
  add("service.handle.hit_us", hit_us, "us", hit_note);
  add("service.handle.miss_us", miss_us, "us",
      "median of " + std::to_string(miss_ns.size()));
  add("service.hit_over_miss", Ratio(hit_us, miss_us), "ratio");
  add("service.coalesced_share", Ratio(static_cast<double>(coalesced),
                                       responses),
      "share", "of " + Num(responses) + " responses");
  add("service.pending_p99", NearestRank(sampler.pending(), 0.99), "count",
      std::to_string(sampler.pending().size()) + " samples");

  // exec
  add("exec.queue_depth_p99", NearestRank(sampler.queued(), 0.99), "count",
      std::to_string(sampler.queued().size()) + " samples");

  // engines (replayed cache misses)
  auto engine_us = [&](RequestKind kind, int acyclic) {
    return [&, kind, acyclic](const ReplayRecord& r) {
      if (r.kind != kind || r.engine < 0) return std::optional<double>();
      if (acyclic >= 0 && r.cq_acyclic != (acyclic == 1)) {
        return std::optional<double>();
      }
      return std::optional<double>(us(r.engine));
    };
  };
  auto engine_work = [](RequestKind kind) {
    return [kind](const ReplayRecord& r) {
      return r.kind == kind && r.engine >= 0
                 ? std::optional<double>(static_cast<double>(r.work))
                 : std::nullopt;
    };
  };
  add_median("csp.solve_us", "us", engine_us(RequestKind::kSolveCsp, -1));
  add_median("csp.search_nodes", "count", engine_work(RequestKind::kSolveCsp));
  add_median("db.eval_cq_acyclic_us", "us", engine_us(RequestKind::kEvalCq, 1));
  add_median("db.eval_cq_cyclic_us", "us", engine_us(RequestKind::kEvalCq, 0));
  add_median("db.eval_cq.rows_out", "count", engine_work(RequestKind::kEvalCq));
  add_median("datalog.fixpoint_us", "us",
             engine_us(RequestKind::kDatalogFixpoint, -1));
  add_median("datalog.derived_facts", "count",
             engine_work(RequestKind::kDatalogFixpoint));
  add_median("db.containment_us", "us",
             engine_us(RequestKind::kCheckContainment, -1));
  double engine_total = 0, handle_total = 0;
  for (const ReplayRecord& r : replay) {
    engine_total += us(r.engine);
    handle_total += us(r.fingerprint) + us(r.lookup) + us(r.engine) +
                    us(r.insert) + us(r.record);
  }
  add("engine_share", Ratio(engine_total, handle_total), "share",
      "engine time of replayed handle time");

  // obs
  add_median("obs.stats_store.record_us", "us", [&](const ReplayRecord& r) {
    return std::optional<double>(us(r.record));
  });

  // load generator validity
  add("loadgen.send_lag_p99_ms", NearestRank(traced.lag_ms, 0.99), "ms",
      std::to_string(traced.lag_ms.size()) + " samples");
  add("trace.overhead", Ratio(Median(LatenciesMs(traced)), untraced_p50_ms),
      "ratio", "traced / untraced latency_p50_ms");
  return m;
}

// --- main ------------------------------------------------------------------

void PrintMetric(const char* label, const Metric& metric) {
  std::printf("%s %s %s %s%s%s\n", label, metric.name.c_str(),
              Num(metric.value).c_str(), metric.unit.c_str(),
              metric.note.empty() ? "" : "  # ", metric.note.c_str());
}

int Run(int argc, char** argv) {
  Options options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload "
                 "hot_repeat|cold_engine|mixed_pipelined --seed N --seconds S "
                 "--trace 0|1 --ports P0,P1 [--trace-out FILE] "
                 "[--git-head SHA]\n",
                 error.c_str());
    return 2;
  }
  const std::string build = BuildStamp(options);
  std::printf("servebench workload=%s seed=%llu seconds=%d trace=%d\n",
              WorkloadName(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("build %s\n", build.c_str());
  if (std::string(SERVEBENCH_BUILD_TYPE) != "Release") {
    std::printf("warning: not a Release build; timings are not comparable\n");
  }

  // The workload and its reference answers depend only on the workload
  // and the seed: made once. The cluster set-up (start both nodes, connect
  // the clients, send the warm-up) runs kSetupRepetitions times, each on a
  // fresh cluster; setup_s is its median and the last cluster is measured.
  const int64_t t0 = NowNs();
  const Workload w = MakeWorkload(options.workload, options.seed);
  const int64_t t1 = NowNs();
  Reference ref;
  if (!ComputeReference(w, &ref, &error)) {
    std::fprintf(stderr, "servebench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  const int64_t t2 = NowNs();
  const Properties props = DescribeWorkload(w, ref, options.ports);
  std::printf("generate %s s, reference answers %s s\n",
              Num((t1 - t0) / 1e9).c_str(), Num((t2 - t1) / 1e9).c_str());
  std::vector<Phase> buffers;
  if (!options.trace) buffers = SampleBuffers(w, options.seconds);
  Rig rig;
  std::vector<double> setup_s;
  bool peak_restarted = false;
  for (int k = 0; k < kSetupRepetitions; ++k) {
    rig.Stop();  // the previous cluster releases its ports
    if (k + 1 == kSetupRepetitions) peak_restarted = RestartPeakRss();
    const int64_t start_ns = NowNs();
    if (!StartRig(w, ref, options.ports, &rig, &error)) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back((NowNs() - start_ns) / 1e9);
    std::printf("cluster setup %d: %s s\n", k, Num(setup_s.back()).c_str());
  }
  std::printf(
      "workload {\"digest\":\"%s\",\"stream_requests\":%lld,"
      "\"distinct_requests\":%zu,\"warmup_requests\":%zu,"
      "\"verbatim_repeat_share\":%s,\"isomorphic_repeat_share\":%s,"
      "\"unique_share\":%s,\"cq_acyclic\":%lld,\"cq_cyclic\":%lld,"
      "\"csp_2valued\":%lld,\"csp_4valued\":%lld,\"csp_other\":%lld,"
      "\"window\":%d,\"node0_owned_share\":%s}\n",
      Hex64(props.digest).c_str(),
      static_cast<long long>(props.stream_requests), ref.answers.size(),
      w.warmup.size(), Num(props.verbatim_share).c_str(),
      Num(props.isomorphic_share).c_str(), Num(props.unique_share).c_str(),
      static_cast<long long>(props.cq_acyclic),
      static_cast<long long>(props.cq_cyclic),
      static_cast<long long>(props.csp_2valued),
      static_cast<long long>(props.csp_4valued),
      static_cast<long long>(props.csp_other),
      w.window, Num(props.node0_owned_share).c_str());

  const int64_t run_ns = static_cast<int64_t>(options.seconds) * 1000000000;
  const int64_t n = static_cast<int64_t>(w.stream.size());
  std::atomic<int64_t> cursor{0};
  Tally tally = rig.warmup_tally;
  std::vector<Metric> metrics;
  std::vector<Metric> info;  // printed, not in the JSON summary
  if (!options.trace) {
    Phase phase = RunPhase(w, ref, &rig, &cursor, run_ns, false, nullptr,
                           std::move(buffers));
    tally.Add(phase.tally);
    const std::vector<double> latencies = LatenciesMs(phase);
    const Windowed windowed = WindowedMedians(phase, run_ns);
    const std::string samples =
        std::to_string(latencies.size()) + " samples";
    const std::string windows = "median of " + std::to_string(kWindows) +
                                " windows, >= " +
                                std::to_string(windowed.min_samples) +
                                " samples each";
    metrics.push_back({"latency_p50_ms", windowed.p50_ms, "ms", windows});
    metrics.push_back({"latency_p90_ms", windowed.p90_ms, "ms", windows});
    metrics.push_back(
        {"throughput_rps", windowed.throughput_rps, "1/s", windows});
    info.push_back({"latency_p50_ms", Median(latencies), "ms",
                    "whole run, " + samples});
    info.push_back({"latency_p99_ms", NearestRank(latencies, 0.99), "ms",
                    "whole run, " + samples});
    info.push_back({"throughput_rps", ThroughputRps(phase), "1/s",
                    "whole run, OK responses over " +
                        Num((phase.end_ns - phase.start_ns) / 1e9) + " s"});
    metrics.push_back({"setup_s", Median(setup_s), "s",
                       "median of " + std::to_string(setup_s.size()) +
                           " cluster set-ups"});
    if (peak_restarted && phase.peak_rss_mb > 0) {
      metrics.push_back({"peak_rss_mb", phase.peak_rss_mb, "MB",
                         "from the measured cluster's set-up to the end of "
                         "the timed phase"});
    } else {
      metrics.push_back({"peak_rss_mb", LifetimePeakRssMb(), "MB",
                         "whole process: no peak mark to restart here"});
    }
    std::printf("stream_wraps %lld\n",
                static_cast<long long>(cursor.load() / n));
  } else {
    // Untraced half, then the traced half, then the replay.
    Phase untraced =
        RunPhase(w, ref, &rig, &cursor, run_ns / 2, false, nullptr);
    tally.Add(untraced.tally);
    const double untraced_p50 = Median(LatenciesMs(untraced));
    Keep keep;
    keep.first_seq = cursor.load();
    keep.responses.resize(kReplayMaxRequests);
    const Snapshot before = TakeSnapshot(rig.cluster.get());
    Sampler sampler(rig.cluster.get());
    Phase traced = RunPhase(w, ref, &rig, &cursor, run_ns / 2, true, &keep);
    sampler.Stop();
    const Snapshot after = TakeSnapshot(rig.cluster.get());
    tally.Add(traced.tally);

    // Warm-up requests were not traced on the wire; their ids sit above
    // every sequence number.
    std::vector<ReplayItem> items;
    for (std::size_t i = 0; i < w.warmup.size(); ++i) {
      if (rig.warmup_responses[i].has_value()) {
        items.push_back({w.warmup[i], &*rig.warmup_responses[i],
                         (uint64_t{1} << 62) + i});
      }
    }
    for (std::size_t i = 0; i < keep.responses.size(); ++i) {
      if (keep.responses[i].has_value()) {
        const int64_t seq = keep.first_seq + static_cast<int64_t>(i);
        items.push_back({w.stream[seq % n], &*keep.responses[i],
                         static_cast<uint64_t>(seq) + 1});
      }
    }
    SpanLane replay_lane("replay");
    const std::vector<ReplayRecord> replay =
        Replay(w, items,
               NowNs() + static_cast<int64_t>(run_ns * kReplayShareOfRun),
               &replay_lane);
    metrics = LayerMetrics(traced, untraced_p50, before, after, sampler,
                           replay, replay_lane, props,
                           rig.warmup_responses);
    std::printf("replayed %zu of %zu requests\n", replay.size(),
                items.size());
    if (!options.trace_out.empty()) {
      std::vector<const SpanLane*> lanes;
      for (const auto& lane : traced.lanes) lanes.push_back(lane.get());
      lanes.push_back(&replay_lane);
      std::ofstream file(options.trace_out);
      WriteChromeTrace(lanes, file);
      file.close();
      if (!file) {
        std::fprintf(stderr, "servebench: cannot write %s\n",
                     options.trace_out.c_str());
        return 1;
      }
      std::printf("trace %s\n", options.trace_out.c_str());
    }
  }
  rig.Stop();

  std::printf(
      "requests attempted=%lld failed=%lld (transport=%lld status=%lld "
      "wrong_answer=%lld) error_rate=%s\n",
      static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.failed()),
      static_cast<long long>(tally.transport_errors),
      static_cast<long long>(tally.bad_status),
      static_cast<long long>(tally.mismatches),
      Num(Ratio(static_cast<double>(tally.failed()),
                static_cast<double>(tally.attempted)))
          .c_str());
  for (const Metric& metric : info) PrintMetric("info", metric);
  for (const Metric& metric : metrics) PrintMetric("metric", metric);

  std::ostringstream json;
  // Transport errors and non-OK statuses count against correctness as much
  // as wrong answers.
  json << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << Quote(metrics[i].name)
         << ": {\"value\": " << Num(metrics[i].value)
         << ", \"unit\": " << Quote(metrics[i].unit) << "}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Run(argc, argv); }
