// Bounded multi-producer / single-consumer ring buffer — the ingress
// primitive under the async ingestion path (core/ingest_pump.h).
//
// The layout is the classic bounded sequence-number queue: a power-of-two
// array of cells, each carrying an atomic sequence counter, plus an
// enqueue cursor shared by producers and a dequeue cursor owned by the
// single consumer. A producer claims a cell by CAS-advancing the enqueue
// cursor (so a full ring never consumes a position), writes its payload,
// and publishes it by bumping the cell's sequence; the consumer observes
// exactly that publication order. Push and pop are lock-free and touch
// one cell plus one cursor each; the cursors live on their own cache
// lines so producers and the consumer don't false-share.
//
// Ordering guarantees, which the ingestion layer's determinism argument
// leans on (see ARCHITECTURE.md "Ingestion layer"):
//   - the enqueue cursor linearizes all concurrent TryPush calls into a
//     single total order; the position each push claims is returned as
//     its *ticket* (dense, starting at 0, never reused);
//   - TryPop returns items in exactly ticket order, one at a time, so a
//     consumer that replays pops into any sequential path processes the
//     stream in a well-defined arrival order regardless of how many
//     producers raced on the way in.
//
// Single consumer only: TryPop/Peek must be called from one thread at a
// time (the pump). Producers may call TryPush from any number of threads.
// The single-consumer rule is not just prose: the consumer-side calls
// carry SSSJ_REQUIRES(consumer_role()), so under clang's thread-safety
// analysis only code paths that demonstrably hold the consumer role (the
// pump's service loop wraps itself in a RoleLock) may pop or peek.
#ifndef SSSJ_UTIL_MPSC_RING_H_
#define SSSJ_UTIL_MPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/thread_annotations.h"

namespace sssj {

// Cursor padding, fixed per architecture rather than
// std::hardware_destructive_interference_size, whose value may change
// with compiler flags (GCC warns on every use in a header). x86-64 keeps
// the 64 it gets from that constant; aarch64 pads to 128 because some of
// its cores (Apple M-series, for one) have 128-byte lines.
#if defined(__aarch64__)
inline constexpr size_t kCacheLineBytes = 128;
#else
inline constexpr size_t kCacheLineBytes = 64;
#endif

template <typename T>
class MpscRing {
 public:
  // Capacity is `min_capacity` rounded up to the next power of two (so the
  // cursor-to-cell mapping is a mask, not a modulo). Values < 1 become 1;
  // a capacity-1 ring is a valid, fully functional rendezvous slot. (The
  // cell array is at least 2 wide — the sequence scheme cannot tell "just
  // pushed" from "just popped" with a single cell — and the advertised
  // capacity is enforced exactly by a cursor-distance check on push.)
  explicit MpscRing(size_t min_capacity)
      : capacity_(RoundUpPowerOfTwo(min_capacity)),
        num_cells_(capacity_ < 2 ? 2 : capacity_),
        mask_(num_cells_ - 1),
        cells_(new Cell[num_cells_]) {
    for (size_t i = 0; i < num_cells_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  size_t capacity() const { return capacity_; }

  // Approximate live count; exact when no push/pop is in flight. Safe from
  // any thread.
  size_t size_approx() const {
    const uint64_t tail = enqueue_pos_.load(std::memory_order_acquire);
    const uint64_t head = dequeue_pos_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

  // Multi-producer push. On success moves `value` in, stores the claimed
  // position (the ticket) into *ticket when given, and returns true; on a
  // full ring returns false without touching `value` or consuming a
  // ticket.
  bool TryPush(T&& value, uint64_t* ticket = nullptr) {
    uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        // The cell is reusable, but the *advertised* capacity may be
        // smaller than the cell array: claiming position `pos` is only
        // allowed while fewer than capacity_ items separate the cursors.
        // dequeue_pos_ only grows, so a stale read errs toward reporting
        // full — the bound is never exceeded.
        if (pos - dequeue_pos_.load(std::memory_order_acquire) >= capacity_) {
          return false;
        }
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.seq.store(pos + 1, std::memory_order_release);
          if (ticket != nullptr) *ticket = pos;
          return true;
        }
        // CAS failure reloaded `pos`; retry against the new cell.
      } else if (dif < 0) {
        return false;  // the cell is still occupied by a lap-old item: full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  // Single-consumer pop, in ticket order. Stores the popped item's ticket
  // into *ticket when given.
  bool TryPop(T* out, uint64_t* ticket = nullptr)
      SSSJ_REQUIRES(consumer_role_) {
    const uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1) < 0) {
      return false;  // next item not yet published
    }
    *out = std::move(cell.value);
    cell.value = T();  // release payload resources eagerly (vectors)
    cell.seq.store(pos + num_cells_, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_release);
    if (ticket != nullptr) *ticket = pos;
    return true;
  }

  // Single-consumer peek at the next item to pop (null when none is
  // published yet). The pointer is valid until the next TryPop.
  const T* Peek() const SSSJ_REQUIRES(consumer_role_) {
    const uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    const Cell& cell = cells_[pos & mask_];
    const uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1) < 0) {
      return nullptr;
    }
    return &cell.value;
  }

  // Ticket the next successful TryPush would claim (== total successful
  // pushes so far). Approximate while producers race.
  uint64_t next_ticket() const {
    return enqueue_pos_.load(std::memory_order_acquire);
  }

  // The single-consumer capability. Whoever services the ring (the pump
  // thread) holds it via RoleLock for the duration of its consumer-side
  // calls; annotated callers then prove at compile time that no second
  // consumer path exists.
  const Role& consumer_role() const SSSJ_RETURN_CAPABILITY(consumer_role_) {
    return consumer_role_;
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq;
    T value;
  };

  static size_t RoundUpPowerOfTwo(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p == 0 ? 1 : p;
  }

  Role consumer_role_;      // held (conceptually) by the single consumer
  const size_t capacity_;   // advertised bound (power of two, >= 1)
  const size_t num_cells_;  // cell-array width (max(capacity_, 2))
  const uint64_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(kCacheLineBytes) std::atomic<uint64_t> enqueue_pos_{0};
  alignas(kCacheLineBytes) std::atomic<uint64_t> dequeue_pos_{0};
};

}  // namespace sssj

#endif  // SSSJ_UTIL_MPSC_RING_H_
