// Clang Thread Safety Analysis shim: an annotated aud::Mutex / MutexLock /
// CondVar vocabulary that every locking subsystem uses instead of raw
// std::mutex, so `clang++ -Wthread-safety -Werror` (the AUD_THREAD_SAFETY
// CMake option / CI lane) statically proves the lock discipline that PRs 1-2
// could only check dynamically under TSan. Under GCC (which has no thread
// safety analysis) the attributes expand to nothing and the wrappers compile
// down to the std primitives they hold.
//
// The lock hierarchy these types participate in is documented in DESIGN.md
// decision 9 ("lock inventory & ordering"); the analysis checks acquisition
// and guarded-field access per translation unit, the hierarchy doc covers
// cross-object ordering that the analysis cannot see.

#ifndef SRC_COMMON_THREAD_ANNOTATIONS_H_
#define SRC_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/common/lock_rank.h"

#if defined(__clang__) && (!defined(SWIG))
#define AUD_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define AUD_THREAD_ANNOTATION(x)  // no-op under GCC/MSVC
#endif

// A type that acts as a lock (capability). Instances can be acquired and
// released and can guard data.
#define AUD_CAPABILITY(x) AUD_THREAD_ANNOTATION(capability(x))

// An RAII type whose constructor acquires and destructor releases.
#define AUD_SCOPED_CAPABILITY AUD_THREAD_ANNOTATION(scoped_lockable)

// Data member readable/writable only while holding the given capability.
#define AUD_GUARDED_BY(x) AUD_THREAD_ANNOTATION(guarded_by(x))

// Pointer member whose *pointee* is guarded by the given capability.
#define AUD_PT_GUARDED_BY(x) AUD_THREAD_ANNOTATION(pt_guarded_by(x))

// Function-level contracts: the caller must hold / must not hold.
#define AUD_REQUIRES(...) \
  AUD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define AUD_EXCLUDES(...) AUD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Function-level effects: acquires / releases / conditionally acquires.
#define AUD_ACQUIRE(...) \
  AUD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define AUD_RELEASE(...) \
  AUD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define AUD_TRY_ACQUIRE(...) \
  AUD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Documented acquisition order between mutex members of one object.
#define AUD_ACQUIRED_BEFORE(...) \
  AUD_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define AUD_ACQUIRED_AFTER(...) \
  AUD_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// A function that returns a reference to a capability.
#define AUD_RETURN_CAPABILITY(x) AUD_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for code whose synchronization the analysis cannot see
// (callback indirection through std::function, adopted locks). Every use
// carries a comment naming the invariant that makes it safe.
#define AUD_NO_THREAD_SAFETY_ANALYSIS \
  AUD_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace aud {

class CondVar;

// Annotated exclusive mutex. Method names are capitalized so un-migrated
// std::mutex call sites fail to compile rather than silently bypassing the
// analysis.
//
// Every production mutex declares its LockRank (src/common/lock_rank.h) and
// a diagnostic name at construction; under AUD_LOCK_RANK_CHECKS (the
// default) each acquisition is validated against the calling thread's
// held-lock stack and a hierarchy violation aborts naming both locks. The
// default constructor leaves the mutex kUnranked — exempt from checking —
// for test-local and ad-hoc mutexes that are not part of the hierarchy.
class AUD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() AUD_ACQUIRE() {
#if AUD_LOCK_RANK_CHECKS
    lockrank::OnAcquire(this, rank_, name_);
#endif
    mu_.lock();
  }
  void Unlock() AUD_RELEASE() {
    mu_.unlock();
#if AUD_LOCK_RANK_CHECKS
    lockrank::OnRelease(this);
#endif
  }
  bool TryLock() AUD_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) {
      return false;
    }
#if AUD_LOCK_RANK_CHECKS
    // A successful try_lock is an acquisition like any other: taking it out
    // of rank order is the same latent deadlock, just one that happened to
    // win the race this time.
    lockrank::OnAcquire(this, rank_, name_);
#endif
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  // Kept unconditionally so the type's layout does not depend on the
  // checking flag (one TU built with a stale flag would otherwise corrupt
  // every mutex it touches).
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "unranked";
};

// RAII lock for aud::Mutex. Supports temporary release (Unlock/Lock); the
// destructor releases only if currently held.
class AUD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) AUD_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_->Lock();
  }
  ~MutexLock() AUD_RELEASE() {
    if (held_) {
      mu_->Unlock();
    }
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Temporary release inside the scope.
  void Unlock() AUD_RELEASE() {
    mu_->Unlock();
    held_ = false;
  }
  void Lock() AUD_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* mu_;
  bool held_;
};

// Condition variable bound to aud::Mutex. Waits require the mutex held (the
// analysis enforces it); internally the wait adopts the already-held
// std::mutex, waits, and re-adopts ownership back to the caller, so the
// capability state on return matches the annotation. Predicates are explicit
// `while` loops at the call site — that form the analysis verifies directly,
// where an annotated lambda crossing a template boundary would not be.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  void Wait(Mutex& mu) AUD_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  // Waits until notified or the deadline passes. Callers loop on their
  // predicate and re-derive remaining time; returns timeout/no_timeout as
  // std::condition_variable does.
  template <typename ClockT, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<ClockT, Duration>& deadline)
      AUD_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace aud

#endif  // SRC_COMMON_THREAD_ANNOTATIONS_H_
