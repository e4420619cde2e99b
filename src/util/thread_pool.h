// Fixed-size fork/join thread pool for the MiniBatch window-close fan-out
// (stream/minibatch.h): one ParallelFor per closed window.
//
// Deliberately minimal: no task queue, no work stealing, no futures. The
// only primitive is ParallelFor(n, fn), which runs fn(0..n-1) across the
// pool (caller thread included) and blocks until every task finished.
// Tasks are claimed with a single atomic counter, so the scheduling
// overhead per call is two condition-variable hand-offs.
//
// Worker participation is gated through the mutex: a worker enters the
// claim loop only after observing a new epoch under the lock (bumping
// `active_`), and ParallelFor mutates job state only while `active_ == 0`.
// A straggler that wakes late therefore either participates fully in the
// current job or finds the claim counter exhausted — it can never observe
// half-published state or claim a task of a job it did not register for.
//
// A pool of size 1 spawns no threads at all and runs tasks inline, so the
// sequential configuration carries zero synchronization cost.
#ifndef SSSJ_UTIL_THREAD_POOL_H_
#define SSSJ_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace sssj {

class ThreadPool {
 public:
  // `num_threads` is the total parallelism, including the calling thread:
  // the pool spawns num_threads - 1 workers. Values < 1 are clamped to 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs fn(i) for every i in [0, n), distributing tasks over the workers
  // and the calling thread, and returns once all n calls finished. Calls
  // are not ordered; fn must be safe to invoke concurrently from
  // different threads for different i. Must not be called reentrantly
  // (from inside fn), and fn must not throw. Concurrent ParallelFor calls
  // from different threads are safe but serialized: one pool can be
  // shared by many engines (JoinService injects one per service), and
  // simultaneous jobs simply queue on the caller mutex. SSSJ_EXCLUDES
  // makes the no-reentrancy rule a compile-time contract for annotated
  // callers: a task body that called back into its own pool would
  // self-deadlock on caller_mu_.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      SSSJ_EXCLUDES(caller_mu_, mu_);

  size_t num_threads() const { return workers_.size() + 1; }

 private:
  void WorkerLoop() SSSJ_EXCLUDES(mu_);
  // Claims and runs tasks of the current job. Deliberately outside the
  // analysis: job_/num_tasks_ are read lock-free here by design — the
  // epoch hand-shake in WorkerLoop/ParallelFor (documented above)
  // guarantees they are quiescent while any claimer is inside.
  void RunTasks() SSSJ_NO_THREAD_SAFETY_ANALYSIS;

  Mutex caller_mu_;  // serializes concurrent ParallelFor callers
  Mutex mu_;
  std::condition_variable work_ready_;  // signals workers: epoch_ changed
  std::condition_variable idle_;        // signals caller: active_ hit 0
  std::vector<std::thread> workers_;

  // Job state, written by ParallelFor only while no worker is registered
  // (active_ == 0) and read by workers only after they registered under
  // the mutex — so the claim loop itself can stay lock-free (RunTasks is
  // the one annotated escape hatch).
  const std::function<void(size_t)>* job_ SSSJ_GUARDED_BY(mu_) = nullptr;
  size_t num_tasks_ SSSJ_GUARDED_BY(mu_) = 0;
  uint64_t epoch_ SSSJ_GUARDED_BY(mu_) = 0;
  // Workers currently inside RunTasks.
  size_t active_ SSSJ_GUARDED_BY(mu_) = 0;
  std::atomic<size_t> next_task_{0};
  bool stop_ SSSJ_GUARDED_BY(mu_) = false;
};

}  // namespace sssj

#endif  // SSSJ_UTIL_THREAD_POOL_H_
