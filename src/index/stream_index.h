// Abstract interface for the streaming indexes used by the STR framework
// (Algorithm 5): a single, fully-online index with time filtering built in.
#ifndef SSSJ_INDEX_STREAM_INDEX_H_
#define SSSJ_INDEX_STREAM_INDEX_H_

#include "core/result.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "core/stream_item.h"

namespace sssj {

// True when an item that arrived at `ts` lies outside the time horizon τ
// of the newest arrival. It is the test every STR index expires by (the
// residual store and the posting lists drop ts < newest − τ), so the
// live-item rebuild and the cluster supervisor's journal trim use it
// too: they can never disagree on an item that lands exactly on the
// boundary under rounding.
inline bool OutsideHorizon(Timestamp ts, Timestamp newest, double tau) {
  return ts < newest - tau;
}

// How long an STR index keeps a posting list after the list's newest
// posting fell OutsideHorizon, in horizons τ. At the start of each
// arrival every list whose newest posting is older than DeadListCutoff
// is erased (PostingMap::EraseListsOlderThan). A lag would spare the
// lists of dims that recur soon after, which are otherwise erased and
// re-created; on the measured grid (lags 0, 1, 2 and 3 τ, in
// CHANGES.md) erasing at once held the fewest bytes and was no slower,
// since a re-created list takes a recycled block.
inline constexpr double kDeadListLagHorizons = 0.0;

// The erase cutoff at arrival `newest`. It is never above newest − τ,
// the cutoff every scan expires by, so an erased list held only postings
// that no later scan would read: erasing changes no output. (The lag
// test keeps 0 · ∞ from turning the cutoff into a NaN when τ = ∞.)
inline Timestamp DeadListCutoff(Timestamp newest, double tau) {
  const double lag = kDeadListLagHorizons * tau;
  return (lag > 0.0 ? newest - lag : newest) - tau;
}

class PostingMap;

class StreamIndex {
 public:
  virtual ~StreamIndex() = default;

  // Processes one arrival: emits every pair (y, x) with y earlier in the
  // stream and sim_Δt(x,y) ≥ θ, then inserts x into the index
  // (IndConstr-IDX-STR, Algorithm 6). Arrival timestamps must be
  // non-decreasing — enforced by the StreamingJoin wrapper.
  virtual void ProcessArrival(const StreamItem& x, ResultSink* sink) = 0;

  virtual void Clear() = 0;
  virtual const char* name() const = 0;

  // Posting entries currently alive (appended and not yet time-pruned);
  // the memory-footprint signal of the paper's STR-vs-MB discussion.
  virtual size_t live_posting_entries() const = 0;

  // Approximate resident bytes of the index structures (posting-list
  // backing buffers + residual store). The paper reports that when STR
  // fails it fails on memory (§7): this is the number to watch. O(1): the
  // posting map and residual store keep it as running totals, so the
  // service layer may read it after every push. Pure virtual on purpose:
  // a defaulted `return 0` is a silent-zero trap — an index that forgets
  // to implement it ships a lying mem(MB) column.
  virtual size_t MemoryBytes() const = 0;
  // Test oracle for MemoryBytes(): the same number recomputed by walking
  // every posting list and residual, O(live state). No production caller.
  virtual size_t RecountMemoryBytes() const = 0;

  // Appends, in id order and with exact coordinates, every indexed item
  // that is not OutsideHorizon of `newest` under the index's own τ: the
  // item set a checkpoint persists. One read-only scan of the posting
  // lists (and, for the L2 family, the residual store), shared by every
  // index in index/live_items.cc.
  virtual void CollectLiveItems(Timestamp newest, Stream* out) const = 0;

  // The index's posting lists, for tests that watch lists being erased
  // and recycled.
  virtual const PostingMap& posting_lists() const = 0;

  RunStats& stats() { return stats_; }
  const RunStats& stats() const { return stats_; }

 protected:
  void NoteIndexed(size_t n) {
    live_entries_ += n;
    stats_.entries_indexed += n;
    if (live_entries_ > stats_.peak_index_entries) {
      stats_.peak_index_entries = live_entries_;
    }
  }
  void NotePruned(size_t n) {
    live_entries_ -= n;
    stats_.entries_pruned += n;
  }

  RunStats stats_;
  size_t live_entries_ = 0;
};

}  // namespace sssj

#endif  // SSSJ_INDEX_STREAM_INDEX_H_
