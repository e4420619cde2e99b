// JoinCore — the runtime-swappable interface behind SssjEngine.
//
// The contract both frameworks satisfy — push, flush, stats, clock, live
// items — as one vtable, so the engine shell can hold "the active core",
// rebuild it from a checkpoint, and swap it at runtime (live scheme
// migration, core/engine.h::SwitchScheme).
//
// Contract (see ARCHITECTURE.md "Live migration layer" for the table):
//   Push/PushBatch/Flush  the join itself; Push returns false only on a
//                         time-order violation, with state unchanged.
//   stats/MemoryBytes     work counters and resident footprint (O(1):
//                         running totals; RecountMemoryBytes is the
//                         walk they are tested against).
//   last_ts/started/      the stream clock, exposed so the engine can
//   RestoreClock          diagnose regressions and restore checkpoints.
//   CollectLiveItems      the items that can still interact with the
//                         future — pair with later arrivals or carry
//                         pending unreported pairs — in arrival order.
//                         This is exactly what a checkpoint must persist
//                         and a migration must replay. STR: the items
//                         rebuilt from the index
//                         (StreamIndex::CollectLiveItems). MB: the two
//                         buffered windows W_{k−1} ∪ W_k.
#ifndef SSSJ_CORE_JOIN_CORE_H_
#define SSSJ_CORE_JOIN_CORE_H_

#include <cstddef>

#include "core/result.h"
#include "core/stats.h"
#include "core/stream_item.h"

namespace sssj {

// The paper's two processing frameworks (§5): MiniBatch windows vs the
// fully streaming join.
enum class Framework { kMiniBatch, kStreaming };
// Indexing schemes (§4). The values are the scheme bytes of the checkpoint
// and wire formats.
enum class IndexScheme { kInv, kAp, kL2ap, kL2 };

class JoinCore {
 public:
  virtual ~JoinCore() = default;

  // Feeds one arrival; pairs are emitted into `sink` (never null here —
  // the engine substitutes a discard sink). Returns false on a time-order
  // violation; the item is rejected and state is unchanged.
  virtual bool Push(const StreamItem& x, ResultSink* sink) = 0;

  // Pushes every item in order, skipping time-order violations; returns
  // the number accepted.
  virtual size_t PushBatch(const Stream& batch, ResultSink* sink) {
    size_t accepted = 0;
    for (const StreamItem& item : batch) {
      if (Push(item, sink)) ++accepted;
    }
    return accepted;
  }

  // Drains buffered state (MB windows); a no-op for STR.
  virtual void Flush(ResultSink* sink) = 0;

  virtual const RunStats& stats() const = 0;
  virtual size_t MemoryBytes() const = 0;
  // Test oracle: MemoryBytes() recomputed by walking the live state.
  virtual size_t RecountMemoryBytes() const = 0;

  // Stream clock, for regression diagnostics and checkpoint restore.
  virtual Timestamp last_ts() const = 0;
  virtual bool started() const = 0;
  virtual void RestoreClock(Timestamp last_ts, bool started) = 0;

  // Appends the live item set (arrival order) to `out`.
  virtual void CollectLiveItems(Stream* out) const = 0;
};

}  // namespace sssj

#endif  // SSSJ_CORE_JOIN_CORE_H_
