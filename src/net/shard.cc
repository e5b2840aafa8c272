#include "net/shard.h"

#include <utility>

#include "net/wire.h"
#include "obs/obs.h"
#include "util/check.h"

namespace cspdb::net {

ShardRouter::ShardRouter(service::CspdbService* /*service*/,
                         std::string self_id, std::vector<PeerId> members)
    : self_id_(std::move(self_id)), ring_(std::move(members)) {
  bool self_found = false;
  for (const std::string& member : ring_.members()) {
    if (member == self_id_) {
      self_found = true;
    } else {
      peers_.emplace(member, std::make_unique<PeerClient>(member));
    }
  }
  CSPDB_CHECK_MSG(self_found, "ShardRouter self id must be a ring member");
}

std::optional<service::Response> ShardRouter::Forward(
    const service::ServiceRequest& request,
    const service::Fingerprint& fingerprint) {
  CSPDB_TIMER_SCOPE("net.forward");
  const std::string& owner = ring_.OwnerOf(fingerprint);
  if (owner == self_id_) return std::nullopt;
  auto it = peers_.find(owner);
  CSPDB_CHECK_MSG(it != peers_.end(), "ring owner has no peer client");
  std::string error;
  const uint64_t call_id =
      next_call_id_.fetch_add(1, std::memory_order_relaxed);
  std::optional<service::Response> remote =
      it->second->Call(request, call_id, kFlagNoForward, &error);
  if (remote.has_value() && remote->status != service::StatusCode::kRejected) {
    return remote;
  }
  // Owner down or shedding: the service degrades to local compute. The
  // local run caches locally, so a dead owner costs one engine run per
  // node, not per request.
  peer_failures_.fetch_add(1, std::memory_order_relaxed);
  CSPDB_COUNT("net.route.peer_failure");
  return std::nullopt;
}

void ShardRouter::Count(const service::Response& response) {
  if (response.status == service::StatusCode::kRejected) return;
  if (response.served_remotely) {
    if (response.cache_hit) {
      remote_hits_.fetch_add(1, std::memory_order_relaxed);
      CSPDB_COUNT("net.route.remote_hit");
    } else {
      remote_compute_.fetch_add(1, std::memory_order_relaxed);
      CSPDB_COUNT("net.route.remote_compute");
    }
  } else if (response.cache_hit) {
    local_hits_.fetch_add(1, std::memory_order_relaxed);
    CSPDB_COUNT("net.route.local_hit");
  } else {
    local_compute_.fetch_add(1, std::memory_order_relaxed);
    CSPDB_COUNT("net.route.local_compute");
  }
}

RouterStats ShardRouter::stats() const {
  RouterStats s;
  s.local_hits = local_hits_.load(std::memory_order_relaxed);
  s.remote_hits = remote_hits_.load(std::memory_order_relaxed);
  s.remote_compute = remote_compute_.load(std::memory_order_relaxed);
  s.local_compute = local_compute_.load(std::memory_order_relaxed);
  s.peer_failures = peer_failures_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cspdb::net
