#include "core/ingest_pump.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <vector>

namespace sssj {

namespace {

std::chrono::steady_clock::duration MillisToDuration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms < 0.0 ? 0.0 : ms));
}

}  // namespace

const char* ToString(IngestMode m) {
  return m == IngestMode::kAsync ? "async" : "inline";
}

const char* ToString(SubmitPolicy p) {
  switch (p) {
    case SubmitPolicy::kTry:
      return "try";
    case SubmitPolicy::kBlock:
      return "block";
    case SubmitPolicy::kTimeout:
      return "timeout";
  }
  return "?";
}

std::string IngestStats::ToString() const {
  std::ostringstream os;
  os << "submitted=" << submitted
     << " rejected_backpressure=" << rejected_backpressure
     << " blocked_submits=" << blocked_submits
     << " epochs_closed=" << epochs_closed << " items_applied=" << items_applied
     << " queue_depth=" << queue_depth
     << " max_queue_depth=" << max_queue_depth;
  return os.str();
}

// ---------------------------------------------------------------- queue

IngestQueue::IngestQueue(const IngestOptions& options)
    : options_(options),
      capacity_(std::max<size_t>(options.queue_capacity, 1)),
      epoch_items_(std::max<size_t>(options.epoch_max_items, 1)) {}

Status IngestQueue::Submit(Timestamp ts, SparseVector vec, uint64_t* ticket) {
  StreamItem item;  // id 0: the engine assigns ids at apply time
  item.ts = ts;
  item.vec = std::move(vec);
  bool went_nonempty = false;
  {
    MutexLock lk(mu_);
    if (items_.size() >= capacity_) {
      if (options_.submit == SubmitPolicy::kTry) {
        ++counts_.rejected_backpressure;
        return Status::ResourceExhausted(
            "ingest queue is at its high-water mark (" +
            std::to_string(capacity_) + " of " + std::to_string(capacity_) +
            " items queued); drain or retry later");
      }
      ++counts_.blocked_submits;
      if (options_.submit == SubmitPolicy::kBlock) {
        while (items_.size() >= capacity_) space_cv_.wait(lk.native());
      } else {
        const auto deadline = std::chrono::steady_clock::now() +
                              MillisToDuration(options_.submit_timeout_ms);
        while (items_.size() >= capacity_) {
          if (space_cv_.wait_until(lk.native(), deadline) ==
                  std::cv_status::timeout &&
              items_.size() >= capacity_) {
            ++counts_.rejected_backpressure;
            return Status::ResourceExhausted(
                "ingest queue still at its high-water mark after " +
                std::to_string(options_.submit_timeout_ms) +
                " ms (submit policy timeout)");
          }
        }
      }
    }
    if (ticket != nullptr) *ticket = counts_.submitted;
    ++counts_.submitted;
    went_nonempty = items_.empty();
    items_.push_back(std::move(item));
    counts_.max_queue_depth =
        std::max<uint64_t>(counts_.max_queue_depth, items_.size());
  }
  // The pump sleeps only after finding every queue empty, so the submit
  // that ends this queue's empty spell is the one that must wake it.
  if (went_nonempty && pump_ != nullptr) pump_->Notify();
  return Status::Ok();
}

Status IngestQueue::Drain() {
  if (pump_ == nullptr) {
    return Status::FailedPrecondition(
        "Drain requires a pump servicing this queue (none is bound)");
  }
  MutexLock lk(mu_);
  const uint64_t target = counts_.submitted;
  while (counts_.items_applied < target) applied_cv_.wait(lk.native());
  return Status::Ok();
}

size_t IngestQueue::PopEpoch(Stream* epoch, uint64_t* first_ticket) {
  size_t n = 0;
  {
    MutexLock lk(mu_);
    n = std::min(items_.size(), epoch_items_);
    if (n == 0) return 0;
    *first_ticket = counts_.submitted - items_.size();
    for (size_t i = 0; i < n; ++i) {
      epoch->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    ++counts_.epochs_closed;
  }
  space_cv_.notify_all();
  return n;
}

void IngestQueue::MarkApplied(size_t n) {
  {
    MutexLock lk(mu_);
    counts_.items_applied += n;
  }
  applied_cv_.notify_all();
}

IngestStats IngestQueue::stats() const {
  MutexLock lk(mu_);
  IngestStats s = counts_;
  s.queue_depth = items_.size();
  return s;
}

// ----------------------------------------------------------------- pump

IngestPump::IngestPump() : thread_([this] { Loop(); }) {}

IngestPump::~IngestPump() {
  {
    MutexLock lk(signal_mu_);
    stop_ = true;
  }
  signal_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

uint64_t IngestPump::Register(IngestQueue* queue, ApplyFn apply) {
  auto entry = std::make_shared<Entry>();
  entry->queue = queue;
  entry->apply = std::move(apply);
  uint64_t id = 0;
  {
    MutexLock lk(reg_mu_);
    id = next_id_++;
    entries_.emplace(id, std::move(entry));
  }
  queue->BindPump(this);
  Notify();  // the queue may already hold items
  return id;
}

void IngestPump::Unregister(uint64_t id) {
  std::shared_ptr<Entry> entry;
  {
    MutexLock lk(reg_mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return;
    entry = it->second;
    entries_.erase(it);
  }
  MutexLock lk(entry->busy_mu);
  entry->dead = true;
  while (entry->busy) entry->busy_cv.wait(lk.native());
}

void IngestPump::Notify() {
  {
    MutexLock lk(signal_mu_);
    signaled_ = true;
  }
  signal_cv_.notify_one();
}

size_t IngestPump::num_queues() const {
  MutexLock lk(reg_mu_);
  return entries_.size();
}

bool IngestPump::ServiceEntry(Entry& entry) {
  {
    MutexLock lk(entry.busy_mu);
    if (entry.dead) return false;
    entry.busy = true;
  }
  // One epoch: popped in ticket order, applied whole, then acknowledged
  // so Drain waiters move as soon as their items land.
  Stream epoch;
  uint64_t first_ticket = 0;
  const size_t n = entry.queue->PopEpoch(&epoch, &first_ticket);
  if (n > 0) {
    entry.apply(std::move(epoch), first_ticket);
    entry.queue->MarkApplied(n);
  }
  {
    MutexLock lk(entry.busy_mu);
    entry.busy = false;
  }
  entry.busy_cv.notify_all();
  return n > 0;
}

void IngestPump::Loop() {
  for (;;) {
    // Visit the queues round-robin, one epoch per visit, until a full
    // pass finds every queue empty.
    for (bool any = true; any;) {
      any = false;
      std::vector<std::shared_ptr<Entry>> snapshot;
      {
        MutexLock lk(reg_mu_);
        snapshot.reserve(entries_.size());
        for (const auto& [id, entry] : entries_) snapshot.push_back(entry);
      }
      for (const auto& entry : snapshot) {
        if (ServiceEntry(*entry)) any = true;
      }
    }
    // A submit that made a queue non-empty after its visit above has set
    // signaled_, so this wait cannot miss it.
    MutexLock lk(signal_mu_);
    while (!signaled_ && !stop_) signal_cv_.wait(lk.native());
    if (stop_) return;
    signaled_ = false;
  }
}

}  // namespace sssj
