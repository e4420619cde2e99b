// STR-INV (§5.1): streaming inverted index with no similarity pruning.
// Posting lists are time-sorted, so candidate generation scans each list
// backwards (newest first) and, upon meeting the first expired entry,
// truncates that entry and everything older in one O(expired) operation.
// Candidate generation accumulates the exact dot product, so verification
// is just the decayed threshold test — which is why the index works
// unchanged under any DecayFunction (core/decay.h).
#ifndef SSSJ_INDEX_STREAM_INV_INDEX_H_
#define SSSJ_INDEX_STREAM_INV_INDEX_H_

#include <vector>

#include "core/decay.h"
#include "index/candidate_map.h"
#include "index/posting_list.h"
#include "index/stream_index.h"

namespace sssj {

class StreamInvIndex : public StreamIndex {
 public:
  // `use_simd` batches the per-entry contribution products through
  // kernels::ProductColumn — bit-identical output (lane-wise IEEE
  // multiply), so INV behaves the same on both kernel paths. `tiered`
  // enables the frozen-block cold tier (INV lists freeze especially
  // small: the all-zero prefix_norm column is elided per block).
  explicit StreamInvIndex(const DecayParams& params, bool use_simd = false,
                          const TieredStorageOptions& tiered = {})
      : theta_(params.theta),
        decay_(DecayFunction::Exponential(params.lambda)),
        tau_(params.tau),
        use_simd_(use_simd),
        tiered_(tiered) {}

  // Under a generalized decay f: pairs with dot · f(Δt) ≥ θ, horizon
  // τ_f(θ). DecayFunction::Exponential(λ) runs the same code, and emits
  // the same bits, as DecayParams{θ, λ}.
  StreamInvIndex(double theta, const DecayFunction& decay,
                 const TieredStorageOptions& tiered = {})
      : theta_(theta),
        decay_(decay),
        tau_(decay.Horizon(theta)),
        use_simd_(false),
        tiered_(tiered) {}

  void ProcessArrival(const StreamItem& x, ResultSink* sink) override;
  void Clear() override;
  const char* name() const override { return "INV"; }
  size_t live_posting_entries() const override { return live_entries_; }
  size_t MemoryBytes() const override { return lists_.MemoryBytes(); }
  size_t RecountMemoryBytes() const override {
    return lists_.RecountMemoryBytes();
  }
  void CollectLiveItems(Timestamp newest, Stream* out) const override;
  const PostingMap& posting_lists() const override { return lists_; }

 private:
  double theta_;
  DecayFunction decay_;
  double tau_;
  bool use_simd_;
  TieredStorageOptions tiered_;
  PostingMap lists_;
  CandidateMap cands_;
  std::vector<double> contrib_;  // kernel scratch (SIMD path only)
  FrozenColumns posting_;        // frozen-block decode scratch
};

}  // namespace sssj

#endif  // SSSJ_INDEX_STREAM_INV_INDEX_H_
