// Clang thread-safety annotations + an annotated Mutex/MutexLock wrapper
// over std::mutex — the vocabulary that turns the repo's prose locking
// contracts ("guarded by mu", "caller holds the session lock", "never
// taken while holding X") into compile-time-checked invariants.
//
// Under clang, `-Wthread-safety -Werror=thread-safety` (the CI lint leg)
// proves every annotated contract on every build: a new code path that
// touches a SSSJ_GUARDED_BY field without its mutex, calls a
// SSSJ_REQUIRES function unlocked, or forgets to release a capability
// fails the compile. Under GCC (the default build) every macro expands to
// nothing and Mutex/MutexLock compile down to exactly std::mutex /
// std::unique_lock — zero overhead, zero behavior change.
//
// Conventions used across the codebase (see ARCHITECTURE.md "Correctness
// tooling" for the lock-ordering table):
//   * every mutex-protected field carries SSSJ_GUARDED_BY(mu);
//   * "caller holds the lock" helpers carry SSSJ_REQUIRES(mu) — including
//     parameter-dependent forms like SSSJ_REQUIRES(session->mu);
//   * functions that take a lock internally and therefore must NOT be
//     called with it held carry SSSJ_EXCLUDES(mu) (the checked form of
//     the AsyncPush/Drain "lock-free on the session mutex" deadlock
//     rationale);
//   * deliberately lock-free-by-design reads (the thread pool's claim
//     loop) are the only places allowed to carry
//     SSSJ_NO_THREAD_SAFETY_ANALYSIS, each with a rationale comment.
#ifndef SSSJ_UTIL_THREAD_ANNOTATIONS_H_
#define SSSJ_UTIL_THREAD_ANNOTATIONS_H_

#include <mutex>

// Clang exposes the analysis attributes; GCC and others get no-ops. The
// __has_attribute probe (rather than a bare __clang__ check) keeps the
// header correct for clang-based compilers with the analysis disabled.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SSSJ_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef SSSJ_THREAD_ANNOTATION_
#define SSSJ_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

// Type declarations.
#define SSSJ_CAPABILITY(x) SSSJ_THREAD_ANNOTATION_(capability(x))
#define SSSJ_SCOPED_CAPABILITY SSSJ_THREAD_ANNOTATION_(scoped_lockable)

// Data-member annotations.
#define SSSJ_GUARDED_BY(x) SSSJ_THREAD_ANNOTATION_(guarded_by(x))
#define SSSJ_PT_GUARDED_BY(x) SSSJ_THREAD_ANNOTATION_(pt_guarded_by(x))
#define SSSJ_ACQUIRED_BEFORE(...) \
  SSSJ_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define SSSJ_ACQUIRED_AFTER(...) \
  SSSJ_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// Function annotations.
#define SSSJ_REQUIRES(...) \
  SSSJ_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define SSSJ_REQUIRES_SHARED(...) \
  SSSJ_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define SSSJ_ACQUIRE(...) \
  SSSJ_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define SSSJ_ACQUIRE_SHARED(...) \
  SSSJ_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define SSSJ_RELEASE(...) \
  SSSJ_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define SSSJ_RELEASE_SHARED(...) \
  SSSJ_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define SSSJ_TRY_ACQUIRE(...) \
  SSSJ_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define SSSJ_EXCLUDES(...) SSSJ_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define SSSJ_ASSERT_CAPABILITY(x) \
  SSSJ_THREAD_ANNOTATION_(assert_capability(x))
#define SSSJ_RETURN_CAPABILITY(x) SSSJ_THREAD_ANNOTATION_(lock_returned(x))
#define SSSJ_NO_THREAD_SAFETY_ANALYSIS \
  SSSJ_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace sssj {

// std::mutex with the capability attribute, so fields can be
// SSSJ_GUARDED_BY it and functions SSSJ_REQUIRES it. The std::lock_guard /
// std::unique_lock templates in libstdc++ carry no annotations, which is
// why raw std::mutex cannot participate in the analysis — every locked
// region would look like an unlocked access. Use MutexLock below instead.
class SSSJ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SSSJ_ACQUIRE() { mu_.lock(); }
  void Unlock() SSSJ_RELEASE() { mu_.unlock(); }
  bool TryLock() SSSJ_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // The raw handle, for std::condition_variable interop only (the wait
  // call releases and reacquires it internally, which the analysis treats
  // — correctly, for every point the caller can observe — as continuously
  // held). Never lock through this directly.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// Scoped lock over Mutex (RAII std::unique_lock underneath). Supports the
// three idioms the codebase needs: plain scoped locking, adopting a mutex
// already locked via Mutex::TryLock, and mid-scope Unlock/Lock for
// condition-variable hand-off loops.
class SSSJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SSSJ_ACQUIRE(mu) : lock_(mu.native()) {}
  // Adopts a mutex the caller already holds (e.g. after a successful
  // TryLock); the destructor still releases it.
  MutexLock(Mutex& mu, std::adopt_lock_t) SSSJ_REQUIRES(mu)
      : lock_(mu.native(), std::adopt_lock) {}
  ~MutexLock() SSSJ_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Mid-scope hand-off (worker loops that drop the lock to run tasks).
  void Unlock() SSSJ_RELEASE() { lock_.unlock(); }
  void Lock() SSSJ_ACQUIRE() { lock_.lock(); }

  // For std::condition_variable::wait(lock, ...); see Mutex::native().
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace sssj

#endif  // SSSJ_UTIL_THREAD_ANNOTATIONS_H_
