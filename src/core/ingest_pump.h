// Async ingestion: bounded per-session queues, epoch-sized batches, and
// the pump that drains them — the layer that decouples producers from the
// generate/verify scan.
//
// Inline Push runs the full scan on the caller's thread, so throughput is
// bounded by worst-case per-item latency. In async mode the producer only
// appends to a bounded IngestQueue (one mutex-guarded FIFO), and a
// background IngestPump drains it through the engine's deterministic
// sequential push path in *epochs* of at most epoch_max_items items.
// Epochs amortize per-item overhead (session lock acquisitions, batch
// bookkeeping) without changing any result: an epoch boundary is only a
// scheduling boundary, every item is still processed one at a time in
// ticket order, so async output is bit-identical to inline Push fed the
// same arrival order.
//
// Backpressure is explicit. A queue never holds more than queue_capacity
// items: at the bound AsyncPush either fails immediately with
// kResourceExhausted (kTry), blocks until the pump frees space (kBlock),
// or blocks with a deadline (kTimeout). Per-item outcomes from the push
// path — including validation rejects — are reported through the
// completion callback with the dense *ticket* the submit claimed, so a
// producer can correlate them without waiting.
//
// One pump thread can service any number of queues (JoinService runs one
// pump for all of its sessions; a standalone async engine owns a private
// one). The pump sleeps until a submit makes a queue non-empty, then
// visits the queues round-robin — one epoch per visit — until a full pass
// finds them all empty.
#ifndef SSSJ_CORE_INGEST_PUMP_H_
#define SSSJ_CORE_INGEST_PUMP_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/sparse_vector.h"
#include "core/status.h"
#include "core/stream_item.h"
#include "core/types.h"
#include "util/thread_annotations.h"

namespace sssj {

enum class IngestMode {
  kInline,  // Push runs the scan on the caller's thread (the default)
  kAsync,   // Push enqueues; a pump drains epochs through the same path
};

// What AsyncPush does when the queue holds queue_capacity items.
enum class SubmitPolicy {
  kTry,      // fail immediately with kResourceExhausted
  kBlock,    // wait until the pump frees space
  kTimeout,  // wait up to submit_timeout_ms, then kResourceExhausted
};

const char* ToString(IngestMode m);
const char* ToString(SubmitPolicy p);

struct IngestOptions {
  IngestMode mode = IngestMode::kInline;

  // The exact bound on queued (submitted but not yet popped by the pump)
  // items; a submit that finds the queue this full applies the policy.
  size_t queue_capacity = 1024;

  // The most items the pump pops from one queue per visit. Larger epochs
  // amortize per-item overhead; smaller ones let the pump move on to the
  // next queue sooner. Boundaries never affect results.
  size_t epoch_max_items = 256;

  SubmitPolicy submit = SubmitPolicy::kBlock;
  double submit_timeout_ms = 10.0;  // kTimeout only

  // Invoked on the pump thread for every applied item, with the ticket
  // its AsyncPush returned and the Status the sequential push path
  // produced — OK for accepted items, the usual per-item reject Status
  // (kInvalidArgument / kFailedPrecondition) otherwise. Must not call
  // back into the engine.
  std::function<void(uint64_t ticket, const Status&)> on_complete;

  // When true the engine creates its queue but no pump: the owner
  // (JoinService) registers the queue with a shared pump that services
  // all sessions. Leave false for standalone engines.
  bool external_pump = false;
};

// Ingestion-side counters, separate from RunStats (which counts what the
// scan did); these count what the ingress layer did.
struct IngestStats {
  uint64_t submitted = 0;      // accepted into the queue
  uint64_t rejected_backpressure = 0;  // kResourceExhausted submits
  uint64_t blocked_submits = 0;  // submits that had to wait for space
  uint64_t epochs_closed = 0;
  uint64_t items_applied = 0;
  uint64_t queue_depth = 0;      // at snapshot time
  uint64_t max_queue_depth = 0;  // high-water mark observed

  std::string ToString() const;
};

class IngestPump;

// One session's bounded ingress queue: a FIFO under one mutex. Submit is
// safe from any number of threads; PopEpoch and MarkApplied belong to the
// pump servicing the queue. No callback (apply, Notify, on_complete) ever
// runs under the queue's mutex.
class IngestQueue {
 public:
  explicit IngestQueue(const IngestOptions& options);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  // Producer side: enqueues one item per the submit policy. On success
  // stores the claimed ticket (dense, in queue order) into *ticket when
  // given. Fails with kResourceExhausted when the queue is full
  // (immediately, or after the timeout for kTimeout).
  Status Submit(Timestamp ts, SparseVector vec, uint64_t* ticket = nullptr)
      SSSJ_EXCLUDES(mu_);

  // Blocks until every item submitted before this call has been applied
  // by the pump. kFailedPrecondition when no pump is bound.
  Status Drain() SSSJ_EXCLUDES(mu_);

  // ---- pump side ----
  // Pops up to epoch_max_items items into *epoch, appending StreamItems
  // in ticket order; *first_ticket gets the first popped item's ticket.
  // Returns the number popped (0 when empty). Wakes blocked producers.
  size_t PopEpoch(Stream* epoch, uint64_t* first_ticket) SSSJ_EXCLUDES(mu_);
  // Called by the pump after the epoch it popped was applied; wakes Drain
  // waiters.
  void MarkApplied(size_t n) SSSJ_EXCLUDES(mu_);

  void BindPump(IngestPump* pump) { pump_ = pump; }

  IngestStats stats() const SSSJ_EXCLUDES(mu_);

  const std::function<void(uint64_t, const Status&)>& on_complete() const {
    return options_.on_complete;
  }

 private:
  const IngestOptions options_;
  const size_t capacity_;     // queue_capacity, at least 1
  const size_t epoch_items_;  // epoch_max_items, at least 1
  // Immutable after BindPump (which Register calls before any concurrent
  // use of the queue); read without the lock on every submit.
  IngestPump* pump_ = nullptr;

  mutable Mutex mu_;
  std::deque<StreamItem> items_ SSSJ_GUARDED_BY(mu_);
  // The counters. `submitted` doubles as the next ticket and
  // `items_applied` as Drain's progress mark; `queue_depth` is filled in
  // by stats().
  IngestStats counts_ SSSJ_GUARDED_BY(mu_);
  std::condition_variable space_cv_;    // blocked producers
  std::condition_variable applied_cv_;  // Drain waiters
};

// The background drainer. Owns one thread servicing every registered
// queue: it pops an epoch from one non-empty queue and hands it — still in
// ticket order — to the apply callback supplied at registration (the
// engine's sequential push path, wrapped in the session lock by
// JoinService), then moves on to the next queue.
class IngestPump {
 public:
  // apply(epoch, first_ticket): process the epoch's items in order;
  // item i carries ticket first_ticket + i. Runs on the pump thread.
  using ApplyFn = std::function<void(Stream&& epoch, uint64_t first_ticket)>;

  IngestPump();
  ~IngestPump();  // stops and joins the pump thread

  IngestPump(const IngestPump&) = delete;
  IngestPump& operator=(const IngestPump&) = delete;

  // Registers a queue. The pump calls `apply` for its epochs until
  // Unregister. Binds itself to the queue (queue->BindPump).
  uint64_t Register(IngestQueue* queue, ApplyFn apply)
      SSSJ_EXCLUDES(reg_mu_);
  // Removes the registration and blocks until any in-flight apply for it
  // has finished; afterwards the pump never touches the queue again.
  void Unregister(uint64_t id) SSSJ_EXCLUDES(reg_mu_);

  // Wakes the pump (a queue calls this when a submit makes it non-empty).
  void Notify() SSSJ_EXCLUDES(signal_mu_);

  size_t num_queues() const SSSJ_EXCLUDES(reg_mu_);

 private:
  struct Entry {
    IngestQueue* queue = nullptr;
    ApplyFn apply;
    Mutex busy_mu;
    std::condition_variable busy_cv;
    bool dead SSSJ_GUARDED_BY(busy_mu) = false;
    bool busy SSSJ_GUARDED_BY(busy_mu) = false;
  };

  void Loop() SSSJ_EXCLUDES(reg_mu_, signal_mu_);
  // Pops and applies at most one epoch from the entry's queue; returns
  // true if it applied anything. Runs on the pump thread.
  bool ServiceEntry(Entry& entry);

  mutable Mutex reg_mu_;
  std::map<uint64_t, std::shared_ptr<Entry>> entries_ SSSJ_GUARDED_BY(reg_mu_);
  uint64_t next_id_ SSSJ_GUARDED_BY(reg_mu_) = 1;

  Mutex signal_mu_;
  std::condition_variable signal_cv_;
  bool signaled_ SSSJ_GUARDED_BY(signal_mu_) = false;
  bool stop_ SSSJ_GUARDED_BY(signal_mu_) = false;

  std::thread thread_;
};

}  // namespace sssj

#endif  // SSSJ_CORE_INGEST_PUMP_H_
