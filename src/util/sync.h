// Annotated synchronization primitives: the one place in cspdb that is
// allowed to touch <mutex>/<condition_variable>/<shared_mutex> directly
// (enforced by tools/lint_cspdb.py's raw-sync rule). Everything else in
// the tree locks through these wrappers, which carry Clang thread-safety
// annotations so locking invariants are checked at compile time:
//
//   * a field declared CSPDB_GUARDED_BY(mu) cannot be read or written
//     unless `mu` is held (negative-compile-tested in
//     tests/thread_safety_compile_test/);
//   * a helper declared CSPDB_REQUIRES(mu) cannot be called without
//     holding `mu`;
//   * MutexLock/ReaderLock are scoped capabilities, so "forgot to
//     unlock on an early return" is a compile error, not a deadlock.
//
// The analysis runs under `cmake -DCSPDB_THREAD_SAFETY=ON` on Clang
// (-Wthread-safety -Werror=thread-safety; CI job `thread-safety`). On
// GCC and other compilers every annotation macro expands to nothing and
// the wrappers are zero-cost veneers over the std primitives, so the
// contract is checked where Clang is available and free everywhere else.
//
// Lock-order hierarchy (DESIGN.md "Lock-order hierarchy" has the full
// rationale): the one nesting is single-flight table -> flight. Every
// other mutex (the thread pool's queue, cache shards, registries) is a
// leaf lock: nothing may be acquired while holding one. Clang's
// ACQUIRED_AFTER/ACQUIRED_BEFORE attributes can only name mutexes
// reachable from the annotated declaration (same object or globals), so
// the one cross-object nesting in the tree (SingleFlight::mu_ before
// Flight::mu) is documented at both declarations and enforced by
// construction instead.
//
// Condition-variable style note: CondVar::Wait deliberately has no
// predicate overload. A predicate lambda is analyzed as a separate
// function that does not hold the capability, so `cv.wait(lock, pred)`
// reading guarded state inside `pred` cannot be annotation-clean. Write
// the loop at the call site instead — the enclosing scope holds the
// lock, so the guarded reads check:
//
//   MutexLock lock(mu_);
//   while (pending_ != 0) cv_.Wait(mu_);

#ifndef CSPDB_UTIL_SYNC_H_
#define CSPDB_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Annotation macros. Active on Clang (any build — they are type
// annotations, not code); the CSPDB_THREAD_SAFETY CMake option merely
// turns on the warnings that read them. Empty on other compilers.

#if defined(__clang__)
#define CSPDB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CSPDB_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Declares a class to be a lockable capability ("mutex" in diagnostics).
#define CSPDB_CAPABILITY(x) CSPDB_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define CSPDB_SCOPED_CAPABILITY CSPDB_THREAD_ANNOTATION(scoped_lockable)

/// Field annotation: may only be accessed while holding `x`.
#define CSPDB_GUARDED_BY(x) CSPDB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field annotation: the pointee may only be accessed while
/// holding `x` (the pointer itself is unguarded).
#define CSPDB_PT_GUARDED_BY(x) CSPDB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function annotation: the caller must hold the listed capabilities
/// exclusively (they are not acquired or released by the function).
#define CSPDB_REQUIRES(...) \
  CSPDB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function annotation: the caller must hold the listed capabilities at
/// least shared.
#define CSPDB_REQUIRES_SHARED(...) \
  CSPDB_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function annotation: acquires the listed capabilities (exclusively);
/// they must not already be held.
#define CSPDB_ACQUIRE(...) \
  CSPDB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function annotation: acquires the listed capabilities shared.
#define CSPDB_ACQUIRE_SHARED(...) \
  CSPDB_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function annotation: releases the listed capabilities (exclusive or,
/// for scoped capabilities, whatever mode was acquired).
#define CSPDB_RELEASE(...) \
  CSPDB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function annotation: releases capabilities held shared.
#define CSPDB_RELEASE_SHARED(...) \
  CSPDB_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function annotation: tries to acquire; returns `ret` on success.
#define CSPDB_TRY_ACQUIRE(ret, ...) \
  CSPDB_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function annotation: the listed capabilities must NOT be held on
/// entry (deadlock prevention for self-locking public entry points).
#define CSPDB_EXCLUDES(...) \
  CSPDB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares a static lock-acquisition order: this capability must be
/// acquired after the listed ones. Checked under -Wthread-safety-beta;
/// only expressible between declarations that can name each other.
#define CSPDB_ACQUIRED_AFTER(...) \
  CSPDB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Dual of CSPDB_ACQUIRED_AFTER.
#define CSPDB_ACQUIRED_BEFORE(...) \
  CSPDB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/// Runtime assertion to the analysis that the capability is held (for
/// code reached only via paths the analysis cannot follow).
#define CSPDB_ASSERT_CAPABILITY(x) \
  CSPDB_THREAD_ANNOTATION(assert_capability(x))

/// Function annotation: returns a reference to the named capability.
#define CSPDB_RETURN_CAPABILITY(x) CSPDB_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs
/// a comment explaining why the locking is correct anyway.
#define CSPDB_NO_THREAD_SAFETY_ANALYSIS \
  CSPDB_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cspdb::util {

class CondVar;

/// An exclusive mutex (std::mutex) carrying the `capability` annotation.
/// Prefer the MutexLock RAII guard; explicit Lock/Unlock is for the rare
/// multi-exit protocol code (single-flight follower loops) where every
/// path's lock state is still statically checked.
class CSPDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CSPDB_ACQUIRE() { mu_.lock(); }
  void Unlock() CSPDB_RELEASE() { mu_.unlock(); }
  bool TryLock() CSPDB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// A reader/writer mutex (std::shared_mutex). Writers use Lock/Unlock or
/// MutexLock; readers use LockShared/UnlockShared or ReaderLock.
class CSPDB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() CSPDB_ACQUIRE() { mu_.lock(); }
  void Unlock() CSPDB_RELEASE() { mu_.unlock(); }
  bool TryLock() CSPDB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void LockShared() CSPDB_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() CSPDB_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() CSPDB_TRY_ACQUIRE(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over a Mutex or SharedMutex (writer mode).
class CSPDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CSPDB_ACQUIRE(mu) : mu_(&mu) { mu.Lock(); }
  explicit MutexLock(SharedMutex& mu) CSPDB_ACQUIRE(mu) : shared_(&mu) {
    mu.Lock();
  }
  ~MutexLock() CSPDB_RELEASE() {
    if (mu_ != nullptr) {
      mu_->Unlock();
    } else {
      shared_->Unlock();
    }
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_ = nullptr;
  SharedMutex* shared_ = nullptr;
};

/// RAII shared (reader) lock over a SharedMutex.
class CSPDB_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) CSPDB_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() CSPDB_RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// A condition variable bound to util::Mutex. Waits release and reacquire
/// the mutex (annotated CSPDB_REQUIRES: held on entry and on return). No
/// predicate overloads — see the header comment for the call-site loop
/// idiom that keeps predicates inside the analyzed scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken). `mu` must be held.
  void Wait(Mutex& mu) CSPDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the mutex
  }

  /// Blocks until notified or the absolute `deadline` passes. Returns
  /// false on timeout. `mu` must be held.
  template <class Clock, class Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      CSPDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cspdb::util

#endif  // CSPDB_UTIL_SYNC_H_
