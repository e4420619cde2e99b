// MB-IDX — the MiniBatch framework (Algorithm 1, refined per §6.1).
//
// The stream is chopped into consecutive windows of length τ on the grid
// [kτ, (k+1)τ) (MbWindowIndex): an item's window depends on its timestamp
// alone, not on where the stream began, so a core rebuilt from its live
// items W_{k−1} ∪ W_k (a checkpoint restore, a migration, a fleet replay)
// closes every later window exactly where the original did. The index
// over window W_{k−1} is built lazily, at the *end* of window W_k, so that
// the AP-family prefix-filter invariant can be established with a max
// vector covering both the indexed data (W_{k−1}) and all its future
// queries (W_k) — this is the two-window refinement of §6.1. At each
// window boundary:
//   1. a fresh index is constructed over W_{k−1}, reporting every
//      intra-window pair of W_{k−1} (IndConstr),
//   2. every vector of W_k queries that index, reporting cross-window
//      pairs (CandGen + CandVer),
//   3. every reported pair passes the ApplyDecay filter
//      (dot · e^{−λΔt} ≥ θ),
//   4. windows shift; the old index is dropped wholesale — this is MB's
//      big advantage on dense data: no incremental list surgery.
//
// Completeness: any pair within the horizon τ lies either inside one
// window or spans two adjacent ones; both cases are covered. As the paper
// notes, MB reports pairs with a delay of up to 2τ and wastes work on
// candidate pairs with Δt ∈ (τ, 2τ] that ApplyDecay then rejects.
//
// Special cases: at λ = 0 (τ = ∞) there is one window, which never closes,
// and Flush() performs one classic batch apss over the whole stream; at
// τ = 0 (θ = 1) every distinct timestamp is a window of its own, and no
// two of them pair.
//
// Parallel window close (num_threads > 1): once the index over W_{k−1} is
// built it is immutable, so the query phase — each vector of W_k probing
// it independently — is embarrassingly parallel. The window's queries are
// partitioned into contiguous chunks, each chunk runs on the shared
// fork/join pool with its own BatchQueryScratch and pair buffer, and the
// buffers are emitted in arrival order afterwards. Because a query's
// entire computation (candidate admission order, floating-point
// accumulation, pruning) depends only on the query vector and the
// immutable index, the emitted pair sequence is bit-identical to the
// sequential engine for ANY thread count.
#ifndef SSSJ_STREAM_MINIBATCH_H_
#define SSSJ_STREAM_MINIBATCH_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/join_core.h"
#include "core/result.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "core/stream_item.h"
#include "index/batch_index.h"
#include "util/thread_pool.h"

namespace sssj {

// The index of the MB window holding `ts`, for windows of length
// `window_len`: floor(ts / window_len), so window k is [k·len, (k+1)·len).
// One window (index 0) at window_len = ∞; one per distinct ts (the ts
// itself) at window_len = 0. The fleet supervisor trims an MB session's
// journal with this same function.
double MbWindowIndex(Timestamp ts, double window_len);

class MiniBatchJoin final : public JoinCore {
 public:
  using IndexFactory = std::function<std::unique_ptr<BatchIndex>()>;

  // Windows are τ long, on the grid MbWindowIndex(ts, τ) that the fleet
  // supervisor's journal trim also uses. `pool` runs the query phase of
  // every window close; null or a 1-thread pool keeps the sequential
  // path. The pool may be private or shared with other joins (JoinService
  // creates one per service). Output is bit-identical for any pool size:
  // chunk buffers are drained in arrival order.
  MiniBatchJoin(const DecayParams& params, IndexFactory factory,
                std::shared_ptr<ThreadPool> pool = nullptr);

  // Feeds one arrival; emits any pairs that became reportable (i.e. when
  // `x` closes one or more windows). Returns false on a time-order
  // violation (the item is rejected, state unchanged).
  bool Push(const StreamItem& x, ResultSink* sink) override;

  // Closes all pending windows and reports the remaining pairs. The join
  // can be reused afterwards: windows, the stream clock AND the stats
  // counters start fresh on the next Push, so a reused join never
  // double-counts (stats() keeps the finished run's totals until then).
  void Flush(ResultSink* sink) override;

  // Statistics over all window indexes built in the current run (i.e.
  // since construction or the first Push after a Flush).
  const RunStats& stats() const override { return stats_; }

  // Approximate resident bytes: the buffered windows W_{k−1} and W_k plus
  // the peak footprint of a per-window index seen this run (the index
  // itself only lives inside CloseWindow, so its high-water mark is the
  // number that matters for capacity planning). O(1): the window bytes
  // are running totals kept by Push and CloseWindow.
  size_t MemoryBytes() const override {
    return prev_bytes_ + cur_bytes_ + peak_index_bytes_;
  }
  size_t RecountMemoryBytes() const override;

  // Window sizes, exposed for tests.
  size_t pending_current() const { return cur_.size(); }
  size_t pending_previous() const { return prev_.size(); }

  // Stream-clock state, exposed so the engine can diagnose a time
  // regression precisely before delegating. `started()` is false again
  // after a Flush (the next Push begins a fresh run).
  Timestamp last_ts() const override { return last_ts_; }
  bool started() const override { return started_; }

  // Checkpoint-restore hook: re-arms the clock after a replay rebuilt the
  // windows. With items replayed the clock is already correct and this is
  // a re-assertion. A started core with no items (the fleet's zero-item
  // seed) has no current window: its next Push takes that item's window,
  // as any later arrival's window is fixed by the grid.
  void RestoreClock(Timestamp last_ts, bool started) override {
    last_ts_ = last_ts;
    started_ = started;
  }

  // The buffered windows W_{k−1} ∪ W_k — exactly the items whose pairs
  // (intra- and cross-window) have not been reported yet, in arrival
  // order.
  void CollectLiveItems(Stream* out) const override {
    out->insert(out->end(), prev_.begin(), prev_.end());
    out->insert(out->end(), cur_.begin(), cur_.end());
  }

 private:
  void CloseWindow(ResultSink* sink);
  void QueryWindowParallel(const BatchIndex& index, ResultSink* sink);
  // The ApplyDecay filter of Algorithm 1: both emission paths (sequential
  // and parallel) share it so the acceptance rule can never diverge.
  bool ApplyDecay(const ResultPair& raw, ResultPair* out) const;
  void EmitWithDecay(const std::vector<ResultPair>& raw, ResultSink* sink);

  // Per-chunk working state for the parallel window close. Reused across
  // windows so the steady state allocates nothing.
  struct QueryChunk {
    BatchQueryScratch scratch;
    std::vector<ResultPair> raw;    // one query's unfiltered pairs
    std::vector<ResultPair> ready;  // decay-filtered, in arrival order
  };

  DecayParams params_;
  IndexFactory factory_;
  Stream prev_;  // W_{k−1}: awaiting indexing
  Stream cur_;   // W_k: accumulating
  size_t prev_bytes_ = 0;  // WindowBytes(prev_)
  size_t cur_bytes_ = 0;   // WindowBytes(cur_)
  double window_ = 0.0;  // MbWindowIndex of cur_ (meaningless while empty)
  Timestamp last_ts_ = 0.0;
  bool started_ = false;
  RunStats stats_;
  std::vector<ResultPair> scratch_pairs_;
  std::shared_ptr<ThreadPool> pool_;  // nullptr → sequential close
  std::vector<QueryChunk> chunks_;
  size_t peak_index_bytes_ = 0;
};

}  // namespace sssj

#endif  // SSSJ_STREAM_MINIBATCH_H_
