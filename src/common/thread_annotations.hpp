// Clang thread-safety annotations + capability-annotated lock primitives.
//
// Wraps Clang's `-Wthread-safety` attribute set behind SPRINTCON_* macros
// that expand to nothing on other compilers, and provides Mutex /
// MutexLock — drop-in analogues of std::mutex and std::lock_guard that
// carry the `capability` annotations the analysis needs
// (libstdc++'s std::mutex carries none, so GUARDED_BY against it is
// invisible to the checker). The `tidy` CMake preset builds the tree with
// `-Wthread-safety -Werror=thread-safety`, turning lock-discipline
// violations in annotated classes into compile errors — a static
// complement to the TSan preset, which only sees interleavings a test
// happens to exercise.
//
// Conventions (DESIGN.md §11):
//  * every mutex-protected member is declared SPRINTCON_GUARDED_BY(mu_);
//  * private helpers called with the lock held take SPRINTCON_REQUIRES;
//  * lock acquisition goes through MutexLock (scoped) — never bare
//    lock()/unlock();
//  * single-writer structures (EventLog, TraceBuffer) have no lock to
//    annotate; their ownership contract is documented at the class.
#pragma once

#include <mutex>

#if defined(__clang__) && !defined(SPRINTCON_NO_THREAD_SAFETY_ANNOTATIONS)
#define SPRINTCON_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define SPRINTCON_THREAD_ANNOTATION__(x)
#endif

/// Marks a type as a lockable capability ("mutex", "role", ...).
#define SPRINTCON_CAPABILITY(x) SPRINTCON_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define SPRINTCON_SCOPED_CAPABILITY \
  SPRINTCON_THREAD_ANNOTATION__(scoped_lockable)

/// Member may only be touched while holding the named capability.
#define SPRINTCON_GUARDED_BY(x) SPRINTCON_THREAD_ANNOTATION__(guarded_by(x))

/// Pointee may only be touched while holding the named capability.
#define SPRINTCON_PT_GUARDED_BY(x) \
  SPRINTCON_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function must be called with the capability held (and does not
/// release it).
#define SPRINTCON_REQUIRES(...) \
  SPRINTCON_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function acquires the capability (exclusive) and holds it on return.
#define SPRINTCON_ACQUIRE(...) \
  SPRINTCON_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define SPRINTCON_RELEASE(...) \
  SPRINTCON_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function acquires the capability only when it returns `ret`.
#define SPRINTCON_TRY_ACQUIRE(ret, ...) \
  SPRINTCON_THREAD_ANNOTATION__(try_acquire_capability(ret, __VA_ARGS__))

/// Function must NOT be called with the capability held (self-deadlock).
#define SPRINTCON_EXCLUDES(...) \
  SPRINTCON_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define SPRINTCON_RETURN_CAPABILITY(x) \
  SPRINTCON_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: suppress the analysis for one function. Every use needs
/// a comment explaining why the checker cannot see the invariant.
#define SPRINTCON_NO_THREAD_SAFETY_ANALYSIS \
  SPRINTCON_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace sprintcon {

/// std::mutex with the `capability` annotation the thread-safety analysis
/// keys on. Same semantics and cost.
class SPRINTCON_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SPRINTCON_ACQUIRE() { mutex_.lock(); }
  void unlock() SPRINTCON_RELEASE() { mutex_.unlock(); }
  bool try_lock() SPRINTCON_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  std::mutex mutex_;
};

/// Scoped lock of a Mutex (std::lock_guard analogue the analysis
/// understands).
class SPRINTCON_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SPRINTCON_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SPRINTCON_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace sprintcon
