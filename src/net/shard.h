// ShardRouter: the forward step of a cluster node. Every client-facing
// request enters CspdbService::Submit with the router's Forward as its
// owner hop. The service (1) probes the local result cache, (2) on an
// exact-fingerprint miss asks Forward, which sends the request to the
// fingerprint's owner shard — which has either cached the answer already
// or computes and caches it, so each canonical request is computed once
// cluster-wide — and (3) computes locally when this node is the owner,
// the fingerprint is inexact, or the owner is down (degradation: a
// partitioned cluster serves everything, just without sharing). Peer
// forwards carry kFlagNoForward, so a ring mis-configuration costs one
// extra hop, never a loop.

#ifndef CSPDB_NET_SHARD_H_
#define CSPDB_NET_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/peer_ring.h"
#include "service/server.h"

namespace cspdb::net {

/// Dispositions of routed requests (client-facing requests the service
/// admitted); the first four partition them.
struct RouterStats {
  int64_t local_hits = 0;      ///< answered from this node's cache
  int64_t remote_hits = 0;     ///< owner answered from its cache
  int64_t remote_compute = 0;  ///< owner computed (and cached) the answer
  int64_t local_compute = 0;   ///< computed here (owner, inexact, or down)
  int64_t peer_failures = 0;   ///< owner consult failed; degraded locally
};

class ShardRouter {
 public:
  /// `self_id` must appear in `members`; every other member gets a
  /// PeerClient dialed on demand. The router never calls the node's
  /// service: the service calls Forward.
  ShardRouter(service::CspdbService* service, std::string self_id,
              std::vector<PeerId> members);

  /// The owner hop (a CspdbService::Forward): returns the owner's
  /// response when a peer owns `fingerprint` and answers it; nullopt when
  /// this node owns it, or the owner failed or shed the request (counted
  /// as a peer failure). Blocks on the network; runs on a pool thread.
  std::optional<service::Response> Forward(
      const service::ServiceRequest& request,
      const service::Fingerprint& fingerprint);

  /// Counts the disposition of one routed response from its
  /// served_remotely and cache_hit bits. Admission rejections were never
  /// routed and are not counted.
  void Count(const service::Response& response);

  RouterStats stats() const;

 private:
  const std::string self_id_;
  PeerRing ring_;
  std::unordered_map<std::string, std::unique_ptr<PeerClient>> peers_;

  std::atomic<uint64_t> next_call_id_{1};
  std::atomic<int64_t> local_hits_{0};
  std::atomic<int64_t> remote_hits_{0};
  std::atomic<int64_t> remote_compute_{0};
  std::atomic<int64_t> local_compute_{0};
  std::atomic<int64_t> peer_failures_{0};
};

}  // namespace cspdb::net

#endif  // CSPDB_NET_SHARD_H_
