// Client side of the wire protocol: a blocking connection (used by the
// load generator and tests) and PeerClient, the per-peer wrapper the
// shard router talks through — one reconnecting connection per peer with
// call timeouts, bounded retries, and exponential-backoff "down" marking
// so a dead peer costs one fast failure per backoff window instead of a
// connect timeout per request.

#ifndef CSPDB_NET_CLIENT_H_
#define CSPDB_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.h"
#include "service/request.h"
#include "util/sync.h"

namespace cspdb::net {

/// Splits "host:port" (host nonempty, port in [1, 65535]). Returns false
/// on malformed input.
bool ParseHostPort(const std::string& address, std::string* host, int* port);

/// A blocking client connection. Not thread-safe — callers serialize
/// (PeerClient does, via its per-peer busy flag). Every failure poisons
/// the connection: the only recovery is a fresh Dial.
class Connection {
 public:
  /// Connects to "host:port" (numeric IPv4 or "localhost"). Returns
  /// nullptr and fills *error on failure.
  static std::unique_ptr<Connection> Dial(const std::string& address,
                                          int64_t timeout_ms,
                                          std::string* error);

  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `request` and blocks for the matching kResponse (or kError)
  /// frame. Any I/O error, timeout, protocol violation, or server error
  /// frame returns nullopt with *error set and marks the connection
  /// broken.
  std::optional<service::Response> Call(const service::ServiceRequest& request,
                                        uint64_t request_id, uint16_t flags,
                                        int64_t timeout_ms,
                                        std::string* error);

  /// Round-trips a kPing frame.
  bool Ping(uint64_t request_id, int64_t timeout_ms, std::string* error);

  /// Escape hatches for protocol tests: raw bytes out, one frame in.
  bool SendBytes(const uint8_t* data, std::size_t size, std::string* error);
  std::optional<Frame> ReadFrame(int64_t timeout_ms, std::string* error);

  bool broken() const { return broken_; }

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_ = -1;
  bool broken_ = false;
  FrameAssembler assembler_;
};

/// Thread-safe reconnecting client for one peer. Dial and call timeouts,
/// attempts per call and the backoff window are fixed (net/client.cc).
class PeerClient {
 public:
  explicit PeerClient(std::string address);

  /// Calls the peer, dialing if needed. Fails fast (no network traffic)
  /// while the peer is marked down, and also while another thread is
  /// mid-call on the single connection — callers degrade to local
  /// compute rather than serialize behind blocking I/O. On failure the
  /// peer is marked down and the backoff window doubled; on success both
  /// reset.
  std::optional<service::Response> Call(const service::ServiceRequest& request,
                                        uint64_t request_id, uint16_t flags,
                                        std::string* error);

  const std::string& address() const { return address_; }

 private:
  const std::string address_;

  util::Mutex mu_;
  /// Moved out under mu_ by the calling thread (busy_ set), used without
  /// the lock, and handed back under mu_ when the call completes.
  std::unique_ptr<Connection> conn_ CSPDB_GUARDED_BY(mu_);
  bool busy_ CSPDB_GUARDED_BY(mu_) = false;
  int consecutive_failures_ CSPDB_GUARDED_BY(mu_) = 0;
  int64_t down_until_ms_ CSPDB_GUARDED_BY(mu_) = 0;
};

}  // namespace cspdb::net

#endif  // CSPDB_NET_CLIENT_H_
