// End-to-end loopback tests for the networked serving tier: a real
// NetServer on a real socket, driven by the blocking client. Covers the
// single-node round trip, protocol-error handling, graceful shutdown,
// admission of a clustered node's client requests, per-connection
// backpressure at the in-flight bound,
// and the ISSUE 10 acceptance differential: a two-node consistent-hash
// cluster serves the Zipfian replay byte-identically to single-node
// in-process serving, with a nonzero remote hit rate.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "db/conjunctive_query.h"
#include "exec/thread_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "occupy_worker.h"
#include "relational/structure.h"
#include "relational/vocabulary.h"
#include "service/server.h"
#include "service/workload.h"

namespace cspdb::net {
namespace {

using service::CspdbService;
using service::Response;
using service::ServiceOptions;
using service::ServiceRequest;
using service::StatusCode;

/// Deterministic-ish port base that differs between concurrent CI jobs
/// (same binary, different pids) to dodge bind collisions; StartCluster
/// retries on higher offsets if a port is genuinely taken.
int PortBase() { return 21000 + static_cast<int>(getpid() % 20000); }

std::vector<ServiceRequest> ZipfStream(int n) {
  service::WorkloadOptions options;
  options.seed = 11;
  options.num_requests = n;
  options.pool_size = 8;
  options.zipf_s = 1.1;
  options.mutation_prob = 0.05;
  // Keep instances small: this test runs under ASan/TSan in CI.
  options.csp_variables = 8;
  options.csp_constraints = 10;
  options.db_nodes = 8;
  return service::GenerateRequestStream(options);
}

/// One in-process cluster node: its own worker pool (nodes must not
/// share one — node A's routed request blocks a pool thread until node B
/// answers, which needs B's own threads), service, router, and server.
struct Node {
  explicit Node(int pool_threads,
                int max_pending = ServiceOptions{}.max_pending)
      : pool(pool_threads) {
    ServiceOptions options;
    options.pool = &pool;
    options.max_pending = max_pending;
    service = std::make_unique<CspdbService>(options);
  }

  exec::ThreadPool pool;
  std::unique_ptr<CspdbService> service;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<NetServer> server;
};

/// Starts `n` nodes on consecutive ports, clustered over each other.
/// Returns empty on repeated bind failure (ports taken).
std::vector<std::unique_ptr<Node>> StartCluster(int n) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    const int base = PortBase() + attempt * n;
    std::vector<std::string> addresses;
    for (int i = 0; i < n; ++i) {
      addresses.push_back("127.0.0.1:" + std::to_string(base + i));
    }
    std::vector<PeerId> members;
    for (const std::string& address : addresses) members.push_back({address});

    std::vector<std::unique_ptr<Node>> nodes;
    bool ok = true;
    for (int i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>(2);
      node->router = std::make_unique<ShardRouter>(node->service.get(),
                                                   addresses[i], members);
      ServerOptions server_options;
      server_options.listen_address = addresses[i];
      server_options.pool = &node->pool;
      node->server =
          std::make_unique<NetServer>(node->service.get(), server_options);
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

/// Reads one frame as a response, reporting its request id; nullopt with
/// *error set on anything else.
std::optional<Response> ReadResponse(Connection* conn, int64_t timeout_ms,
                                     uint64_t* wire_id, std::string* error) {
  std::optional<Frame> frame = conn->ReadFrame(timeout_ms, error);
  if (!frame.has_value()) return std::nullopt;
  if (frame->type != FrameType::kResponse) {
    *error = "not a response frame";
    return std::nullopt;
  }
  *wire_id = frame->request_id;
  return DecodeResponsePayload(frame->payload.data(), frame->payload.size(),
                               error);
}

TEST(NetLoopback, SingleNodeRoundTripMatchesLocalService) {
  exec::ThreadPool pool(2);
  ServiceOptions service_options;
  service_options.pool = &pool;
  CspdbService service(service_options);
  ServerOptions server_options;
  server_options.pool = &pool;
  NetServer server(&service, server_options);  // default: 127.0.0.1:0
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  CspdbService reference;  // independent local truth
  std::unique_ptr<Connection> conn =
      Connection::Dial(server.address(), 2000, &error);
  ASSERT_NE(conn, nullptr) << error;
  ASSERT_TRUE(conn->Ping(77, 2000, &error)) << error;

  const std::vector<ServiceRequest> stream = ZipfStream(30);
  uint64_t id = 1;
  for (const ServiceRequest& request : stream) {
    std::optional<Response> remote =
        conn->Call(request, id++, 0, 10000, &error);
    ASSERT_TRUE(remote.has_value()) << error;
    EXPECT_EQ(remote->status, StatusCode::kOk);
    const Response local = reference.Handle(request);
    EXPECT_EQ(AnswerBytes(*remote), AnswerBytes(local));
  }
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0);
  EXPECT_EQ(stats.requests_dispatched,
            static_cast<int64_t>(stream.size()));
  EXPECT_GE(stats.pings, 1);
}

TEST(NetLoopback, MalformedStreamGetsErrorFrameAndClose) {
  exec::ThreadPool pool(2);
  ServiceOptions service_options;
  service_options.pool = &pool;
  CspdbService service(service_options);
  ServerOptions server_options;
  server_options.pool = &pool;
  NetServer server(&service, server_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::unique_ptr<Connection> conn =
      Connection::Dial(server.address(), 2000, &error);
  ASSERT_NE(conn, nullptr) << error;
  const std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0xde, 0xad,
                                        0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef,
                                        0xde, 0xad, 0xbe, 0xef, 0xde, 0xad,
                                        0xbe, 0xef};
  ASSERT_TRUE(conn->SendBytes(garbage.data(), garbage.size(), &error));
  std::optional<Frame> reply = conn->ReadFrame(2000, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->type, FrameType::kError);
  std::string decode_error;
  std::optional<std::string> message = DecodeErrorPayload(
      reply->payload.data(), reply->payload.size(), &decode_error);
  ASSERT_TRUE(message.has_value()) << decode_error;
  EXPECT_NE(message->find("magic"), std::string::npos) << *message;
  // The server closes after the error frame.
  EXPECT_FALSE(conn->ReadFrame(2000, &error).has_value());
  server.Shutdown();
  EXPECT_EQ(server.stats().protocol_errors, 1);
}

TEST(NetLoopback, BadRequestPayloadIsRejectedNotAborted) {
  // A syntactically valid frame whose payload names variable 5 of 3:
  // the semantic validator must catch it (the engine constructor would
  // CSPDB_CHECK-abort the process).
  exec::ThreadPool pool(2);
  ServiceOptions service_options;
  service_options.pool = &pool;
  CspdbService service(service_options);
  ServerOptions server_options;
  server_options.pool = &pool;
  NetServer server(&service, server_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::unique_ptr<Connection> conn =
      Connection::Dial(server.address(), 2000, &error);
  ASSERT_NE(conn, nullptr) << error;
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = 9;
  auto u32 = [&](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      frame.payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  frame.payload.push_back(0);  // kSolveCsp
  u32(3);                      // num_variables
  u32(2);                      // num_values
  u32(1);                      // one constraint
  u32(1);                      // scope length 1
  u32(5);                      // variable 5: out of range
  u32(0);                      // no tuples
  std::vector<uint8_t> bytes;
  AppendFrame(frame, &bytes);
  ASSERT_TRUE(conn->SendBytes(bytes.data(), bytes.size(), &error));
  std::optional<Frame> reply = conn->ReadFrame(2000, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->request_id, 9u);
  server.Shutdown();
}

TEST(NetLoopback, TwoNodeClusterIsByteIdenticalWithRemoteHits) {
  std::vector<std::unique_ptr<Node>> nodes = StartCluster(2);
  ASSERT_EQ(nodes.size(), 2u) << "could not bind loopback ports";

  CspdbService reference;  // single-node truth
  std::string error;
  std::unique_ptr<Connection> conn =
      Connection::Dial(nodes[0]->server->address(), 2000, &error);
  ASSERT_NE(conn, nullptr) << error;

  const std::vector<ServiceRequest> stream = ZipfStream(120);
  uint64_t id = 1;
  for (const ServiceRequest& request : stream) {
    std::optional<Response> remote =
        conn->Call(request, id++, 0, 20000, &error);
    ASSERT_TRUE(remote.has_value()) << error;
    ASSERT_EQ(remote->status, StatusCode::kOk);
    const Response local = reference.Handle(request);
    // The acceptance differential: byte-identical to single-node mode,
    // whichever node/cache/engine produced the answer.
    ASSERT_EQ(AnswerBytes(*remote), AnswerBytes(local));
  }

  const RouterStats a = nodes[0]->router->stats();
  // The Zipfian stream repeats fingerprints; the half owned by node B is
  // cached there after its first consult, so repeats become remote hits.
  EXPECT_GT(a.remote_hits, 0) << "no remote cache hits: sharding inert";
  EXPECT_GT(a.local_hits + a.remote_hits + a.remote_compute + a.local_compute,
            0);
  for (auto& node : nodes) node->server->Shutdown();
}

TEST(NetLoopback, DeadPeerDegradesToLocalCompute) {
  // One live node clustered with an address nobody listens on: every
  // request still gets a correct answer, with peer failures recorded.
  const int dead_port = PortBase() + 997;
  auto node = std::make_unique<Node>(2);
  const std::string dead = "127.0.0.1:" + std::to_string(dead_port);
  for (int attempt = 0; attempt < 5; ++attempt) {
    const std::string self =
        "127.0.0.1:" + std::to_string(PortBase() + 600 + attempt);
    node->router = std::make_unique<ShardRouter>(node->service.get(), self,
                                                 std::vector<PeerId>{
                                                     {self}, {dead}});
    ServerOptions server_options;
    server_options.listen_address = self;
    server_options.pool = &node->pool;
    node->server =
        std::make_unique<NetServer>(node->service.get(), server_options);
    node->server->set_router(node->router.get());
    std::string error;
    if (node->server->Start(&error)) break;
    node->server.reset();
  }
  ASSERT_NE(node->server, nullptr) << "could not bind a loopback port";

  CspdbService reference;
  std::string error;
  std::unique_ptr<Connection> conn =
      Connection::Dial(node->server->address(), 2000, &error);
  ASSERT_NE(conn, nullptr) << error;
  const std::vector<ServiceRequest> stream = ZipfStream(40);
  uint64_t id = 1;
  for (const ServiceRequest& request : stream) {
    std::optional<Response> remote =
        conn->Call(request, id++, 0, 20000, &error);
    ASSERT_TRUE(remote.has_value()) << error;
    ASSERT_EQ(remote->status, StatusCode::kOk);
    const Response local = reference.Handle(request);
    ASSERT_EQ(AnswerBytes(*remote), AnswerBytes(local));
  }
  const RouterStats stats = node->router->stats();
  EXPECT_GT(stats.peer_failures, 0);
  EXPECT_EQ(stats.remote_hits, 0);
  node->server->Shutdown();
}

TEST(NetLoopback, ClusteredNodeAdmitsAndTimesClientRequests) {
  // A clustered node's client-facing requests pass the service's
  // admission bound and report their queue wait, like every other
  // request. The ring holds only this node, so everything is computed
  // here. With max_pending = 1 and the only worker parked, the first of
  // three pipelined requests is admitted and waits; the other two are
  // rejected at once.
  auto node = std::make_unique<Node>(/*pool_threads=*/1, /*max_pending=*/1);
  for (int attempt = 0; attempt < 5; ++attempt) {
    const std::string self =
        "127.0.0.1:" + std::to_string(PortBase() + 700 + attempt);
    node->router = std::make_unique<ShardRouter>(
        node->service.get(), self, std::vector<PeerId>{{self}});
    ServerOptions server_options;
    server_options.listen_address = self;
    node->server =
        std::make_unique<NetServer>(node->service.get(), server_options);
    node->server->set_router(node->router.get());
    std::string error;
    if (node->server->Start(&error)) break;
    node->server.reset();
  }
  ASSERT_NE(node->server, nullptr) << "could not bind a loopback port";
  std::string error;
  std::unique_ptr<Connection> conn =
      Connection::Dial(node->server->address(), 2000, &error);
  ASSERT_NE(conn, nullptr) << error;

  const std::vector<ServiceRequest> stream = ZipfStream(3);
  std::vector<uint8_t> bytes;
  for (int i = 0; i < 3; ++i) {
    Frame frame;
    frame.type = FrameType::kRequest;
    frame.request_id = static_cast<uint64_t>(i) + 1;
    EncodeRequestPayload(stream[i], &frame.payload);
    AppendFrame(frame, &bytes);
  }

  // No ASSERT while the worker is parked: the gate must open on every
  // path, or teardown waits on the parked task forever.
  std::promise<void> release;
  OccupyWorker(&node->pool, release.get_future().share());
  const bool sent = conn->SendBytes(bytes.data(), bytes.size(), &error);
  EXPECT_TRUE(sent) << error;
  std::vector<uint64_t> rejected_ids;
  for (int i = 0; i < 2 && sent; ++i) {
    uint64_t wire_id = 0;
    std::optional<Response> response =
        ReadResponse(conn.get(), 5000, &wire_id, &error);
    if (!response.has_value()) {
      ADD_FAILURE() << "rejections did not come back at once: " << error;
      break;
    }
    EXPECT_EQ(response->status, StatusCode::kRejected)
        << "request " << wire_id;
    rejected_ids.push_back(wire_id);
  }
  release.set_value();
  std::sort(rejected_ids.begin(), rejected_ids.end());
  EXPECT_EQ(rejected_ids, (std::vector<uint64_t>{2, 3}));

  uint64_t wire_id = 0;
  std::optional<Response> admitted =
      ReadResponse(conn.get(), 10000, &wire_id, &error);
  ASSERT_TRUE(admitted.has_value()) << error;
  EXPECT_EQ(wire_id, 1u);
  ASSERT_EQ(admitted->status, StatusCode::kOk);
  EXPECT_GT(admitted->queue_wait_ns, 0);
  CspdbService reference;
  EXPECT_EQ(AnswerBytes(*admitted), AnswerBytes(reference.Handle(stream[0])));

  // Rejected requests never reached the owner hop: one routed request.
  const RouterStats routed = node->router->stats();
  EXPECT_EQ(routed.local_compute, 1);
  EXPECT_EQ(routed.local_hits + routed.remote_hits + routed.remote_compute +
                routed.local_compute,
            1);
  EXPECT_EQ(node->service->stats().rejected, 2);
  node->server->Shutdown();
}

TEST(NetLoopback, PipelinedBurstPastTheInFlightBound) {
  // One connection pipelines three times the in-flight bound of requests
  // in a single write while the node's only worker is parked. Nothing
  // completes meanwhile, so the server dispatches exactly the bound and
  // stops reading; each completion then resumes it. Every request is
  // still answered exactly once.
  exec::ThreadPool pool(1);
  ServiceOptions service_options;
  service_options.pool = &pool;
  CspdbService service(service_options);
  NetServer server(&service);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::unique_ptr<Connection> conn =
      Connection::Dial(server.address(), 2000, &error);
  ASSERT_NE(conn, nullptr) << error;

  constexpr int kRequests = 3 * kMaxInFlightPerConnection;
  const std::vector<ServiceRequest> stream = ZipfStream(kRequests);
  std::vector<uint8_t> bytes;
  for (int i = 0; i < kRequests; ++i) {
    Frame frame;
    frame.type = FrameType::kRequest;
    frame.request_id = static_cast<uint64_t>(i) + 1;
    EncodeRequestPayload(stream[i], &frame.payload);
    AppendFrame(frame, &bytes);
  }
  const obs::Counter& pauses = obs::MetricsRegistry::Global().GetCounter(
      "net.server.backpressure_pauses");
  const int64_t pauses_before = pauses.value();

  // No ASSERT while the worker is parked: the gate must open on every
  // path, or teardown waits on the parked task forever.
  std::promise<void> release;
  OccupyWorker(&pool, release.get_future().share());
  const bool sent = conn->SendBytes(bytes.data(), bytes.size(), &error);
  EXPECT_TRUE(sent) << error;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sent && pauses.value() == pauses_before &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int64_t dispatched_at_bound = server.stats().requests_dispatched;
  release.set_value();
  ASSERT_TRUE(sent);
  EXPECT_GT(pauses.value(), pauses_before) << "reads never paused";
  EXPECT_EQ(dispatched_at_bound, kMaxInFlightPerConnection);

  CspdbService reference;
  std::vector<int> answers_per_id(kRequests, 0);
  for (int i = 0; i < kRequests; ++i) {
    uint64_t wire_id = 0;
    std::optional<Response> response =
        ReadResponse(conn.get(), 10000, &wire_id, &error);
    ASSERT_TRUE(response.has_value()) << "response " << i << ": " << error;
    ASSERT_GE(wire_id, 1u);
    ASSERT_LE(wire_id, static_cast<uint64_t>(kRequests));
    ++answers_per_id[wire_id - 1];
    EXPECT_EQ(response->status, StatusCode::kOk) << "request " << wire_id;
    EXPECT_EQ(AnswerBytes(*response),
              AnswerBytes(reference.Handle(stream[wire_id - 1])))
        << "request " << wire_id;
  }
  EXPECT_EQ(answers_per_id, std::vector<int>(kRequests, 1));
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_dispatched, kRequests);
  EXPECT_EQ(server.stats().protocol_errors, 0);
}

TEST(NetLoopback, ShutdownDrainsInFlightRequests) {
  exec::ThreadPool pool(2);
  ServiceOptions service_options;
  service_options.pool = &pool;
  CspdbService service(service_options);
  ServerOptions server_options;
  server_options.pool = &pool;
  NetServer server(&service, server_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::unique_ptr<Connection> conn =
      Connection::Dial(server.address(), 2000, &error);
  ASSERT_NE(conn, nullptr) << error;
  // Write a request, then immediately shut down: the drain must let the
  // in-flight response finish and flush before the connection closes.
  const ServiceRequest request = ZipfStream(1).front();
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = 1;
  EncodeRequestPayload(request, &frame.payload);
  std::vector<uint8_t> bytes;
  AppendFrame(frame, &bytes);
  ASSERT_TRUE(conn->SendBytes(bytes.data(), bytes.size(), &error));
  std::optional<Frame> reply;
  std::thread reader([&] { reply = conn->ReadFrame(10000, &error); });
  server.Shutdown();
  reader.join();
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->type, FrameType::kResponse);
}

TEST(NetLoopback, ShutdownAnswersEveryRequestAlreadySent) {
  // Several clients each send one request, then the drain starts at
  // once. When the drain task runs, some of those requests may still sit
  // unread in their socket buffers, and some connections may still wait
  // in the listen backlog; every request was sent before Shutdown() and
  // must be answered, not reset. Whether a given round hits that window
  // is up to the scheduler, so the scenario runs several rounds.
  exec::ThreadPool pool(2);
  ServiceOptions service_options;
  service_options.pool = &pool;
  CspdbService service(service_options);
  constexpr int kConnections = 8;
  const std::vector<ServiceRequest> stream = ZipfStream(kConnections);
  for (int round = 0; round < 10; ++round) {
    ServerOptions server_options;
    server_options.pool = &pool;
    NetServer server(&service, server_options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    std::vector<std::unique_ptr<Connection>> conns;
    for (int i = 0; i < kConnections; ++i) {
      conns.push_back(Connection::Dial(server.address(), 2000, &error));
      ASSERT_NE(conns.back(), nullptr) << error;
    }
    for (int i = 0; i < kConnections; ++i) {
      Frame frame;
      frame.type = FrameType::kRequest;
      frame.request_id = static_cast<uint64_t>(i) + 1;
      EncodeRequestPayload(stream[i], &frame.payload);
      std::vector<uint8_t> bytes;
      AppendFrame(frame, &bytes);
      ASSERT_TRUE(conns[i]->SendBytes(bytes.data(), bytes.size(), &error))
          << error;
    }
    // Shutdown() returns once every connection has closed; a drained
    // connection closes only after its response was written, so each
    // response is already waiting in its client's socket buffer.
    server.Shutdown();
    for (int i = 0; i < kConnections; ++i) {
      std::optional<Frame> reply = conns[i]->ReadFrame(2000, &error);
      ASSERT_TRUE(reply.has_value())
          << "round " << round << " connection " << i << ": " << error;
      EXPECT_EQ(reply->type, FrameType::kResponse);
      EXPECT_EQ(reply->request_id, static_cast<uint64_t>(i) + 1);
    }
    EXPECT_EQ(server.stats().requests_dispatched, kConnections);
  }
}

// Q(x0,...,x5) :- E(x0,x1), E(x2,x3), E(x4,x5) over the complete
// digraph on n elements: (n(n-1))^3 answer rows of six columns. At n = 10
// that is 729,000 rows, a 17,496,036-byte response payload, past
// kMaxPayloadBytes. Its own suite, so the stress job does not repeat it.
ServiceRequest CrossProductOfEdges(int n) {
  Vocabulary binary;
  binary.AddSymbol("E", 2);
  Structure graph(binary, n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v) graph.AddTuple(0, {u, v});
    }
  }
  const ConjunctiveQuery query(6, {0, 1, 2, 3, 4, 5},
                               {{"E", {0, 1}}, {"E", {2, 3}}, {"E", {4, 5}}});
  return service::EvalCqRequest{query, graph};
}

TEST(NetOversize, AnswerTooLargeToFrameFailsItsConnectionNotTheNode) {
  exec::ThreadPool pool(2);
  ServiceOptions service_options;
  service_options.pool = &pool;
  CspdbService service(service_options);
  NetServer server(&service);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::unique_ptr<Connection> conn =
      Connection::Dial(server.address(), 2000, &error);
  ASSERT_NE(conn, nullptr) << error;
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = 5;
  EncodeRequestPayload(CrossProductOfEdges(10), &frame.payload);
  std::vector<uint8_t> bytes;
  AppendFrame(frame, &bytes);
  ASSERT_TRUE(conn->SendBytes(bytes.data(), bytes.size(), &error)) << error;
  std::optional<Frame> reply = conn->ReadFrame(60000, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->request_id, 5u);
  // The server closes the connection after the error frame.
  EXPECT_FALSE(conn->ReadFrame(2000, &error).has_value());

  // The node is still serving: a new connection gets a correct answer.
  std::unique_ptr<Connection> next =
      Connection::Dial(server.address(), 2000, &error);
  ASSERT_NE(next, nullptr) << error;
  const ServiceRequest request = ZipfStream(1).front();
  std::optional<Response> response = next->Call(request, 1, 0, 10000, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->status, StatusCode::kOk);
  CspdbService reference;
  EXPECT_EQ(AnswerBytes(*response), AnswerBytes(reference.Handle(request)));
  server.Shutdown();
}

}  // namespace
}  // namespace cspdb::net
