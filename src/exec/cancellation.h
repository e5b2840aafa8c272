// Cooperative cancellation for the execution layer. A CancellationToken is
// a flag (plus an optional wall-clock deadline) that long-running kernels
// poll at safe points: BacktrackingSolver every few search nodes, BodyJoin
// (the join under EvalCQ and Datalog) every few thousand rows, EvalCQ's
// bucket plan before each bucket and the semi-naive Datalog fixpoint
// before each round, which is how the serving layer enforces per-request
// deadlines. Cancellation is always
// cooperative — nothing is interrupted mid-write, so cancelled kernels
// leave behind sound (if incomplete) state.

#ifndef CSPDB_EXEC_CANCELLATION_H_
#define CSPDB_EXEC_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace cspdb::exec {

/// A cooperative cancellation flag with optional deadline. Thread-safe:
/// any thread may request cancellation; any thread may poll.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Raises the flag. Idempotent.
  void RequestCancel() {
    cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Arms a deadline `timeout` from now; polls after that instant report
  /// cancelled. A second call replaces the previous deadline.
  void CancelAfter(std::chrono::nanoseconds timeout) {
    deadline_ns_.store(NowNs() + timeout.count(), std::memory_order_relaxed);
  }

  /// True once cancellation was requested or a deadline passed. Latches:
  /// a deadline that fired keeps reporting cancelled even if the clock
  /// could be re-armed.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != kNoDeadline && NowNs() >= deadline) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Clears the flag and deadline. Test support.
  void Reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
  }

 private:
  static constexpr int64_t kNoDeadline = INT64_MIN;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  mutable std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
};

}  // namespace cspdb::exec

#endif  // CSPDB_EXEC_CANCELLATION_H_
