// Streaming indexes under a *generalized* decay function (core/decay.h) —
// the paper's future-work extension. Two schemes generalize soundly:
//
//   GeneralDecayInvIndex — STR-INV: exact accumulation, decay applied only
//     at verification. Works for any monotone decay.
//   GeneralDecayL2Index  — STR-L2: all three ℓ2 rules (remscore admission,
//     early l2bound, CV ps1) hold for any f ≤ 1, because their proofs only
//     use Cauchy–Schwarz plus f(Δt) ≤ 1 (Appendix A).
//
// STR-L2AP does NOT generalize: its m̂λ decayed-max is exact only under a
// shared exponential rate (see core/decay.h), which is an argument the
// paper's own conclusion anticipates — L2 is the streaming-friendly index.
//
// A DecayFunction with Kind::kSlidingWindow turns GeneralDecayL2Index into
// a classic sliding-window similarity join with L2AP-strength content
// pruning.
#ifndef SSSJ_INDEX_DECAYED_STREAM_INDEX_H_
#define SSSJ_INDEX_DECAYED_STREAM_INDEX_H_

#include <vector>

#include "core/decay.h"
#include "index/candidate_map.h"
#include "index/posting_list.h"
#include "index/residual_store.h"
#include "index/stream_index.h"

namespace sssj {

// Exact sliding-horizon oracle under a generalized decay; also the test
// oracle for the two indexes below.
void BruteForceDecayJoin(const Stream& stream, double theta,
                         const DecayFunction& decay, ResultSink* sink);

class GeneralDecayInvIndex : public StreamIndex {
 public:
  GeneralDecayInvIndex(double theta, const DecayFunction& decay,
                       const TieredStorageOptions& tiered = {})
      : theta_(theta),
        decay_(decay),
        tau_(decay.Horizon(theta)),
        tiered_(tiered) {}

  void ProcessArrival(const StreamItem& x, ResultSink* sink) override;
  void Clear() override;
  const char* name() const override { return "INV(gen)"; }
  size_t live_posting_entries() const override { return live_entries_; }
  size_t MemoryBytes() const override { return lists_.MemoryBytes(); }
  size_t RecountMemoryBytes() const override {
    return lists_.RecountMemoryBytes();
  }
  double horizon() const { return tau_; }

 private:
  double theta_;
  DecayFunction decay_;
  double tau_;
  TieredStorageOptions tiered_;
  PostingMap lists_;
  CandidateMap cands_;
  FrozenColumns posting_;  // frozen-block decode scratch
};

class GeneralDecayL2Index : public StreamIndex {
 public:
  GeneralDecayL2Index(double theta, const DecayFunction& decay,
                      const TieredStorageOptions& tiered = {})
      : theta_(theta),
        decay_(decay),
        tau_(decay.Horizon(theta)),
        tiered_(tiered) {}

  void ProcessArrival(const StreamItem& x, ResultSink* sink) override;
  void Clear() override;
  const char* name() const override { return "L2(gen)"; }
  size_t live_posting_entries() const override { return live_entries_; }
  size_t MemoryBytes() const override {
    return residuals_.ApproxBytes() + lists_.MemoryBytes();
  }
  size_t RecountMemoryBytes() const override {
    return residuals_.RecountApproxBytes() + lists_.RecountMemoryBytes();
  }
  double horizon() const { return tau_; }

 private:
  double theta_;
  DecayFunction decay_;
  double tau_;
  TieredStorageOptions tiered_;
  PostingMap lists_;
  ResidualStore residuals_;
  CandidateMap cands_;
  std::vector<double> prefix_norms_;
  FrozenColumns posting_;  // frozen-block decode scratch
};

}  // namespace sssj

#endif  // SSSJ_INDEX_DECAYED_STREAM_INDEX_H_
