// The system under test: a two-node cluster in this process, each node a
// CspdbService behind a ShardRouter and an epoll NetServer on a fixed
// loopback port. Ring ownership depends only on the member address
// strings, so fixed ports give the same local/remote split on every run.

#ifndef SERVEBENCH_CLUSTER_H_
#define SERVEBENCH_CLUSTER_H_

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "net/peer_ring.h"
#include "net/server.h"
#include "net/shard.h"
#include "service/server.h"

namespace servebench {

/// Worker threads per node. A forwarded request holds a pool thread until
/// its owner replies. Each node forwards over one PeerClient connection,
/// and a second concurrent forward fails fast and computes locally, so at
/// most one thread per node waits on its peer; the other threads keep
/// draining the queue, the peer's forwarded requests included. With a
/// window of one request per connection a node holds at most two
/// requests, so they barely queue; with kMixedWindow (workloads.h) they
/// queue behind the pool.
inline constexpr int kPoolThreadsPerNode = 4;

/// Result-cache budget of every node, for every workload: hot_repeat's pool
/// fits, cold_engine's distinct answers do not.
inline constexpr std::size_t kCacheBytesPerNode = 64u << 10;

struct Node {
  Node();

  // Declaration order is teardown order reversed: the server drains
  // before the router, service and pool it uses go away.
  cspdb::exec::ThreadPool pool;
  std::unique_ptr<cspdb::service::CspdbService> service;
  std::unique_ptr<cspdb::net::ShardRouter> router;
  std::unique_ptr<cspdb::net::NetServer> server;
};

class Cluster {
 public:
  /// Starts both nodes on 127.0.0.1 at `ports`. A port that cannot be
  /// bound fails the start (nullptr, *error set); there is no fallback.
  static std::unique_ptr<Cluster> Start(const std::array<int, 2>& ports,
                                        std::string* error);

  /// Drains and stops both servers.
  ~Cluster();

  Node& node(int i) { return *nodes_[i]; }
  const std::string& address(int i) const { return addresses_[i]; }

 private:
  Cluster() = default;

  std::array<std::string, 2> addresses_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// The ring the cluster on `ports` uses, for ownership questions asked
/// before it starts.
std::vector<cspdb::net::PeerId> RingMembers(const std::array<int, 2>& ports);

}  // namespace servebench

#endif  // SERVEBENCH_CLUSTER_H_
