#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/obs.h"

namespace cspdb::net {
namespace {

// PeerClient tuning.
constexpr int64_t kPeerDialTimeoutMs = 500;
constexpr int64_t kPeerCallTimeoutMs = 2000;
// Dial-or-call attempts per PeerClient::Call() before giving up.
constexpr int kPeerMaxAttempts = 2;
// First backoff window after a failed attempt run; doubles per
// consecutive failure up to kPeerBackoffMaxMs.
constexpr int64_t kPeerBackoffBaseMs = 50;
constexpr int64_t kPeerBackoffMaxMs = 2000;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Waits for `events` on `fd` until `deadline_ms`; false on timeout/error.
bool PollFor(int fd, short events, int64_t deadline_ms) {
  for (;;) {
    const int64_t left = deadline_ms - NowMs();
    if (left <= 0) return false;
    pollfd p{fd, events, 0};
    const int n = poll(&p, 1, static_cast<int>(left));
    if (n > 0) return (p.revents & (events | POLLHUP | POLLERR)) != 0;
    if (n == 0) return false;
    if (errno != EINTR) return false;
  }
}

}  // namespace

bool ParseHostPort(const std::string& address, std::string* host, int* port) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return false;
  }
  int p = 0;
  for (std::size_t i = colon + 1; i < address.size(); ++i) {
    const char c = address[i];
    if (c < '0' || c > '9') return false;
    p = p * 10 + (c - '0');
    if (p > 65535) return false;
  }
  if (p < 1) return false;
  *host = address.substr(0, colon);
  *port = p;
  return true;
}

std::unique_ptr<Connection> Connection::Dial(const std::string& address,
                                             int64_t timeout_ms,
                                             std::string* error) {
  std::string host;
  int port = 0;
  if (!ParseHostPort(address, &host, &port)) {
    *error = "malformed address " + address + " (want host:port)";
    return nullptr;
  }
  if (host == "localhost") host = "127.0.0.1";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "unresolvable host " + host + " (numeric IPv4 or localhost)";
    return nullptr;
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // SO_SNDTIMEO bounds connect() too: a dead peer must cost timeout_ms,
  // not the kernel's multi-minute SYN retry schedule.
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect ") + address + ": " + std::strerror(errno);
    close(fd);
    return nullptr;
  }
  CSPDB_COUNT("net.client.dials");
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::SendBytes(const uint8_t* data, std::size_t size,
                           std::string* error) {
  if (broken_) {
    *error = "connection already broken";
    return false;
  }
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("send: ") + std::strerror(errno);
      broken_ = true;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<Frame> Connection::ReadFrame(int64_t timeout_ms,
                                           std::string* error) {
  if (broken_) {
    *error = "connection already broken";
    return std::nullopt;
  }
  const int64_t deadline_ms = NowMs() + timeout_ms;
  Frame frame;
  for (;;) {
    switch (assembler_.Next(&frame)) {
      case FrameAssembler::Status::kFrame:
        return frame;
      case FrameAssembler::Status::kProtocolError:
        *error = "protocol error: " + assembler_.error();
        broken_ = true;
        return std::nullopt;
      case FrameAssembler::Status::kNeedMore:
        break;
    }
    if (!PollFor(fd_, POLLIN, deadline_ms)) {
      *error = "timed out waiting for a frame";
      broken_ = true;  // a reply may still arrive and desynchronize us
      return std::nullopt;
    }
    uint8_t buf[16384];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      *error = "peer closed the connection";
      broken_ = true;
      return std::nullopt;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      broken_ = true;
      return std::nullopt;
    }
    assembler_.Feed(buf, static_cast<std::size_t>(n));
  }
}

std::optional<service::Response> Connection::Call(
    const service::ServiceRequest& request, uint64_t request_id,
    uint16_t flags, int64_t timeout_ms, std::string* error) {
  Frame out;
  out.type = FrameType::kRequest;
  out.flags = flags;
  out.request_id = request_id;
  EncodeRequestPayload(request, &out.payload);
  std::vector<uint8_t> bytes;
  AppendFrame(out, &bytes);
  if (!SendBytes(bytes.data(), bytes.size(), error)) return std::nullopt;

  std::optional<Frame> in = ReadFrame(timeout_ms, error);
  if (!in.has_value()) return std::nullopt;
  if (in->request_id != request_id) {
    // One request in flight per connection, so any mismatch means the
    // stream is desynchronized.
    *error = "response for unexpected request id";
    broken_ = true;
    return std::nullopt;
  }
  if (in->type == FrameType::kError) {
    std::string decode_error;
    std::optional<std::string> message = DecodeErrorPayload(
        in->payload.data(), in->payload.size(), &decode_error);
    *error = "server error: " +
             (message.has_value() ? *message : decode_error);
    broken_ = true;
    return std::nullopt;
  }
  if (in->type != FrameType::kResponse) {
    *error = "unexpected frame type in reply";
    broken_ = true;
    return std::nullopt;
  }
  std::string decode_error;
  std::optional<service::Response> response = DecodeResponsePayload(
      in->payload.data(), in->payload.size(), &decode_error);
  if (!response.has_value()) {
    *error = "malformed response payload: " + decode_error;
    broken_ = true;
    return std::nullopt;
  }
  return response;
}

bool Connection::Ping(uint64_t request_id, int64_t timeout_ms,
                      std::string* error) {
  Frame out;
  out.type = FrameType::kPing;
  out.request_id = request_id;
  std::vector<uint8_t> bytes;
  AppendFrame(out, &bytes);
  if (!SendBytes(bytes.data(), bytes.size(), error)) return false;
  std::optional<Frame> in = ReadFrame(timeout_ms, error);
  if (!in.has_value()) return false;
  if (in->type != FrameType::kPong || in->request_id != request_id) {
    *error = "unexpected reply to ping";
    broken_ = true;
    return false;
  }
  return true;
}

PeerClient::PeerClient(std::string address) : address_(std::move(address)) {}

std::optional<service::Response> PeerClient::Call(
    const service::ServiceRequest& request, uint64_t request_id,
    uint16_t flags, std::string* error) {
  // mu_ covers only the down/busy state and connection handoff — never
  // the blocking dial/call itself. A slow-but-alive peer must cost the
  // one thread already talking to it, not stall every pool thread that
  // routes to the same owner shard.
  std::unique_ptr<Connection> conn;
  {
    util::MutexLock lock(mu_);
    if (NowMs() < down_until_ms_) {
      *error = "peer " + address_ + " is marked down";
      CSPDB_COUNT("net.peer.fast_fail");
      return std::nullopt;
    }
    if (busy_) {
      // Another thread is mid-call on this peer's single connection.
      // Fail fast (no backoff: the peer is alive) so the caller degrades
      // to local compute instead of queueing behind blocking I/O.
      *error = "peer " + address_ + " connection is busy";
      CSPDB_COUNT("net.peer.busy_fail");
      return std::nullopt;
    }
    busy_ = true;
    conn = std::move(conn_);
  }

  std::optional<service::Response> response;
  for (int attempt = 0; attempt < kPeerMaxAttempts; ++attempt) {
    if (conn == nullptr || conn->broken()) {
      conn = Connection::Dial(address_, kPeerDialTimeoutMs, error);
      if (conn == nullptr) continue;
    }
    response =
        conn->Call(request, request_id, flags, kPeerCallTimeoutMs, error);
    if (response.has_value()) break;
  }

  util::MutexLock lock(mu_);
  busy_ = false;
  if (response.has_value()) {
    conn_ = std::move(conn);
    consecutive_failures_ = 0;
    down_until_ms_ = 0;
    return response;
  }
  // All attempts failed: open a backoff window that doubles per
  // consecutive failed Call(), so a dead peer degrades to one cheap
  // failure per window.
  int64_t backoff = kPeerBackoffBaseMs;
  for (int i = 0; i < consecutive_failures_ && backoff < kPeerBackoffMaxMs;
       ++i) {
    backoff *= 2;
  }
  if (backoff > kPeerBackoffMaxMs) backoff = kPeerBackoffMaxMs;
  ++consecutive_failures_;
  down_until_ms_ = NowMs() + backoff;
  CSPDB_COUNT("net.peer.marked_down");
  return std::nullopt;
}

}  // namespace cspdb::net
