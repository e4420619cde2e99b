// STR-IDX — the Streaming framework (Algorithm 5). A thin, validating
// wrapper over a StreamIndex: each arrival is joined against the online
// index and then inserted into it; results are reported immediately (no
// reporting delay, unlike MB).
#ifndef SSSJ_STREAM_STREAMING_H_
#define SSSJ_STREAM_STREAMING_H_

#include <memory>

#include "core/join_core.h"
#include "core/result.h"
#include "core/stats.h"
#include "core/stream_item.h"
#include "index/stream_index.h"

namespace sssj {

class StreamingJoin final : public JoinCore {
 public:
  explicit StreamingJoin(std::unique_ptr<StreamIndex> index)
      : index_(std::move(index)) {}

  // Feeds one arrival; pairs are emitted synchronously. Returns false on a
  // time-order violation (item rejected).
  bool Push(const StreamItem& x, ResultSink* sink) override {
    if (started_ && x.ts < last_ts_) return false;
    started_ = true;
    last_ts_ = x.ts;
    index_->ProcessArrival(x, sink);
    return true;
  }

  // STR has no buffered state to drain; provided for API symmetry with MB.
  void Flush(ResultSink* /*sink*/) override {}

  const RunStats& stats() const override { return index_->stats(); }

  size_t MemoryBytes() const override { return index_->MemoryBytes(); }
  size_t RecountMemoryBytes() const override {
    return index_->RecountMemoryBytes();
  }

  // Clock state, exposed for checkpoint/restore (engine.cc).
  Timestamp last_ts() const override { return last_ts_; }
  bool started() const override { return started_; }
  void RestoreClock(Timestamp last_ts, bool started) override {
    last_ts_ = last_ts;
    started_ = started;
  }

  // The index's rebuild of its in-horizon items at the stream clock.
  void CollectLiveItems(Stream* out) const override {
    index_->CollectLiveItems(last_ts_, out);
  }

 private:
  std::unique_ptr<StreamIndex> index_;
  Timestamp last_ts_ = 0.0;
  bool started_ = false;
};

}  // namespace sssj

#endif  // SSSJ_STREAM_STREAMING_H_
