#include "stream/minibatch.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sssj {

MiniBatchJoin::MiniBatchJoin(const DecayParams& params, IndexFactory factory,
                             std::shared_ptr<ThreadPool> pool)
    : params_(params),
      factory_(std::move(factory)),
      pool_(std::move(pool)) {
  if (pool_ != nullptr && pool_->num_threads() == 1) pool_.reset();
}

double MbWindowIndex(Timestamp ts, double window_len) {
  if (std::isinf(window_len)) return 0.0;
  if (window_len == 0.0) return ts;
  return std::floor(ts / window_len);
}

namespace {
size_t WindowBytes(const Stream& window) {
  size_t bytes = 0;
  for (const StreamItem& item : window) bytes += StreamItemBytes(item);
  return bytes;
}
}  // namespace

bool MiniBatchJoin::Push(const StreamItem& x, ResultSink* sink) {
  if (started_ && x.ts < last_ts_) return false;
  if (!started_) {
    // A fresh run begins (first ever Push, or first Push after a Flush):
    // counters restart so a reused join never double-counts.
    started_ = true;
    stats_ = RunStats{};
    peak_index_bytes_ = 0;
  }
  last_ts_ = x.ts;
  const double window = MbWindowIndex(x.ts, params_.tau);
  if (!cur_.empty() && window > window_) {
    // x starts a new window. O(1), even across long silent gaps:
    CloseWindow(sink);
    if (params_.tau == 0.0 || window > window_ + 1.0) {
      // x is not in the window after the one just closed (at τ = 0 no
      // two windows pair), so nothing buffered can pair with it: close
      // that one too.
      CloseWindow(sink);
    }
  }
  window_ = window;
  cur_.push_back(x);
  cur_bytes_ += StreamItemBytes(x);
  ++stats_.vectors_processed;
  return true;
}

void MiniBatchJoin::Flush(ResultSink* sink) {
  // First close indexes W_{k−1} and queries it with W_k; the second close
  // indexes the final window (its intra-window pairs).
  CloseWindow(sink);
  CloseWindow(sink);
  started_ = false;
  last_ts_ = 0.0;
}

size_t MiniBatchJoin::RecountMemoryBytes() const {
  return WindowBytes(prev_) + WindowBytes(cur_) + peak_index_bytes_;
}

void MiniBatchJoin::CloseWindow(ResultSink* sink) {
  if (prev_.empty() && cur_.empty()) return;

  // Global max vector over both windows (§6.1): makes AP prefix filtering
  // sound for queries coming from the current window.
  MaxVector m;
  for (const StreamItem& item : prev_) m.UpdateFrom(item.vec, nullptr);
  for (const StreamItem& item : cur_) m.UpdateFrom(item.vec, nullptr);

  std::unique_ptr<BatchIndex> index = factory_();
  scratch_pairs_.clear();
  index->Construct(prev_, m, &scratch_pairs_);
  EmitWithDecay(scratch_pairs_, sink);

  // Query phase: the index is now immutable, so the probes of W_k are
  // independent. Fan out across the pool when it pays; tiny windows keep
  // the sequential loop (either path emits the exact same pair sequence).
  if (pool_ != nullptr && cur_.size() >= 2 * pool_->num_threads()) {
    QueryWindowParallel(*index, sink);
  } else {
    for (const StreamItem& x : cur_) {
      scratch_pairs_.clear();
      index->Query(x, &scratch_pairs_);
      EmitWithDecay(scratch_pairs_, sink);
    }
  }

  // Fold the per-window index statistics into the aggregate; the index —
  // and all its posting lists — is then dropped wholesale. A batch index
  // only ever grows, so its entry count at close time is its peak; the
  // aggregate keeps the max across windows.
  peak_index_bytes_ = std::max(peak_index_bytes_, index->MemoryBytes());
  RunStats idx_stats = index->stats();
  idx_stats.vectors_processed = 0;  // already counted in Push
  idx_stats.pairs_emitted = 0;      // counted post-decay in EmitWithDecay
  idx_stats.peak_index_entries = idx_stats.entries_indexed;
  stats_ += idx_stats;

  prev_ = std::move(cur_);
  cur_.clear();
  prev_bytes_ = std::exchange(cur_bytes_, 0);
}

void MiniBatchJoin::QueryWindowParallel(const BatchIndex& index,
                                        ResultSink* sink) {
  const size_t n = cur_.size();
  const size_t num_chunks = std::min(pool_->num_threads(), n);
  const size_t per_chunk = (n + num_chunks - 1) / num_chunks;
  if (chunks_.size() < num_chunks) chunks_.resize(num_chunks);

  pool_->ParallelFor(num_chunks, [&](size_t c) {
    QueryChunk& chunk = chunks_[c];
    chunk.scratch.stats = RunStats{};
    chunk.ready.clear();
    const size_t lo = c * per_chunk;
    const size_t hi = std::min(n, lo + per_chunk);
    for (size_t i = lo; i < hi; ++i) {
      chunk.raw.clear();
      index.Query(cur_[i], &chunk.scratch, &chunk.raw);
      // ApplyDecay, off the coordinator's critical path.
      for (const ResultPair& r : chunk.raw) {
        ResultPair p;
        if (ApplyDecay(r, &p)) chunk.ready.push_back(p);
      }
    }
  });

  // Chunks cover contiguous ascending ranges of cur_, so draining them in
  // chunk order reproduces the sequential arrival-order emission exactly.
  for (size_t c = 0; c < num_chunks; ++c) {
    for (const ResultPair& p : chunks_[c].ready) {
      sink->Emit(p);
      ++stats_.pairs_emitted;
    }
    RunStats worker_stats = chunks_[c].scratch.stats;
    worker_stats.pairs_emitted = 0;  // raw pre-decay count; final tally above
    stats_ += worker_stats;
  }
}

bool MiniBatchJoin::ApplyDecay(const ResultPair& raw, ResultPair* out) const {
  const double sim = raw.dot * DecayFactor(params_.lambda, raw.ta, raw.tb);
  if (sim < params_.theta) return false;
  *out = raw;
  out->sim = sim;
  out->Canonicalize();
  return true;
}

void MiniBatchJoin::EmitWithDecay(const std::vector<ResultPair>& raw,
                                  ResultSink* sink) {
  for (const ResultPair& r : raw) {
    ResultPair p;
    if (ApplyDecay(r, &p)) {
      sink->Emit(p);
      ++stats_.pairs_emitted;
    }
  }
}

}  // namespace sssj
