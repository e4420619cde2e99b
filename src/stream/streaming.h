// STR-IDX — the Streaming framework (Algorithm 5). A thin, validating
// wrapper over a StreamIndex: each arrival is joined against the online
// index and then inserted into it; results are reported immediately (no
// reporting delay, unlike MB).
#ifndef SSSJ_STREAM_STREAMING_H_
#define SSSJ_STREAM_STREAMING_H_

#include <deque>
#include <memory>

#include "core/join_core.h"
#include "core/result.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "core/stream_item.h"
#include "index/stream_index.h"

namespace sssj {

class StreamingJoin final : public JoinCore {
 public:
  // `retain_live` keeps a copy of every in-horizon item (not
  // OutsideHorizon of the newest arrival) in a side deque, which
  // CollectLiveItems then copies instead of rebuilding the items from the
  // index. Off by default: the copy is cheaper per checkpoint, but the
  // deque costs resident bytes (+21%, +1.7% and +1.2% of live state on
  // the dense-async, cli-sparse and tenant-fleet perfbench workloads; more
  // on long horizons). With λ = 0 the horizon is infinite and the deque
  // retains the whole stream — the same growth the index itself has in
  // that regime.
  StreamingJoin(const DecayParams& params, std::unique_ptr<StreamIndex> index,
                bool retain_live = false)
      : params_(params), index_(std::move(index)), retain_live_(retain_live) {}

  // Feeds one arrival; pairs are emitted synchronously. Returns false on a
  // time-order violation (item rejected).
  bool Push(const StreamItem& x, ResultSink* sink) override {
    if (started_ && x.ts < last_ts_) return false;
    started_ = true;
    last_ts_ = x.ts;
    index_->ProcessArrival(x, sink);
    if (retain_live_) RetainItem(x);
    return true;
  }

  // STR has no buffered state to drain; provided for API symmetry with MB.
  void Flush(ResultSink* /*sink*/) override {}

  const RunStats& stats() const override { return index_->stats(); }
  const DecayParams& params() const { return params_; }

  size_t MemoryBytes() const override {
    return index_->MemoryBytes() + live_bytes_;
  }
  size_t RecountMemoryBytes() const override {
    size_t bytes = index_->RecountMemoryBytes();
    for (const StreamItem& item : live_) bytes += StreamItemBytes(item);
    return bytes;
  }

  // Clock state, exposed for checkpoint/restore (engine.cc).
  Timestamp last_ts() const override { return last_ts_; }
  bool started() const override { return started_; }
  void RestoreClock(Timestamp last_ts, bool started) override {
    last_ts_ = last_ts;
    started_ = started;
  }

  // The deque when the core keeps one, else the index's rebuild at the
  // stream clock.
  void CollectLiveItems(Stream* out) const override {
    if (retain_live_) {
      out->insert(out->end(), live_.begin(), live_.end());
    } else {
      index_->CollectLiveItems(last_ts_, out);
    }
  }

 private:
  void RetainItem(const StreamItem& x) {
    live_.push_back(x);
    live_bytes_ += StreamItemBytes(x);
    // Keeps an item at Δt == τ (a dot of 1 still reaches θ exactly), and
    // drops by the index's own test so the two sets stay equal.
    while (!live_.empty() &&
           OutsideHorizon(live_.front().ts, x.ts, params_.tau)) {
      live_bytes_ -= StreamItemBytes(live_.front());
      live_.pop_front();
    }
  }

  DecayParams params_;
  std::unique_ptr<StreamIndex> index_;
  bool retain_live_ = false;
  std::deque<StreamItem> live_;  // in-horizon items, arrival order
  size_t live_bytes_ = 0;
  Timestamp last_ts_ = 0.0;
  bool started_ = false;
};

}  // namespace sssj

#endif  // SSSJ_STREAM_STREAMING_H_
