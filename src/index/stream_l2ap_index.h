// STR-L2AP (§5.3): the streaming adaptation of the L2AP index.
//
// Unlike L2, the AP-style b1/rs1 bounds depend on stream-wide statistics:
//   * m  — per-dimension maximum over all vectors seen so far; used by the
//          b1 index-construction bound. Maintained online, *without* decay
//          (§6.2: decaying m would change it constantly and force constant
//          re-indexing).
//   * m̂λ — time-decayed per-dimension maximum over *indexed* values; used
//          by the rs1 candidate-generation bound (dot(x, m̂λ)).
//
// When a new arrival raises m in some dimension, the prefix-filtering
// invariant ("any two similar vectors share an *indexed* dimension") may
// break for vectors whose un-indexed residual contains that dimension:
// their indexing boundary, recomputed under the larger m, can move earlier.
// Restoring the invariant is *re-indexing* — moving the affected residual
// coordinates into the posting lists. Re-indexed postings carry their
// original (old) timestamps, so posting lists are no longer time-sorted:
// candidate generation must scan forward and compact expired entries
// instead of the O(1) backward truncation available to INV/L2. These two
// costs — re-indexing work and full-list scans — are exactly the overheads
// the paper measures in Figures 5 and 6.
//
// Ordering note (DESIGN.md deviation 2): the m-update and re-indexing for
// an arrival x run *before* x's candidate generation. The paper's
// Algorithm 6 writes the coordinate loop (where m updates are discovered)
// after CandGen; that order can miss pairs whose shared dimensions are all
// in a residual that only becomes indexable because of x itself.
#ifndef SSSJ_INDEX_STREAM_L2AP_INDEX_H_
#define SSSJ_INDEX_STREAM_L2AP_INDEX_H_

#include <vector>

#include "index/candidate_map.h"
#include "index/l2_phases.h"
#include "index/max_vector.h"
#include "index/posting_list.h"
#include "index/residual_store.h"
#include "index/stream_index.h"

namespace sssj {

class StreamL2apIndex : public StreamIndex {
 public:
  // `ic_theta_slack` ∈ [0, 1) implements the paper's practical workaround
  // for re-indexing churn ("use a more lax bound to decrease the frequency
  // of re-indexing", §7.1 Q2): index construction uses the lowered
  // threshold θ·(1−slack), so vectors are indexed slightly earlier
  // (shorter residual prefixes). Indexing *more* coordinates is always
  // safe; the benefit is that max-vector growth rarely crosses the relaxed
  // bound, so boundaries rarely move. Candidate generation and
  // verification still prune at the true θ.
  // `use_l2_bounds = false` drops the green (ℓ2) lines and yields STR-AP —
  // the variant the paper's evaluation omits as "much slower than L2AP";
  // we keep it constructible so the ablation bench can reproduce that
  // preliminary finding.
  // `use_simd` selects the vectorized sparse dot for the verification
  // dots (index/kernels.h).
  // `tiered` enables the frozen-block cold tier; L2AP's forward
  // compaction re-freezes straddling blocks instead of assuming time
  // order.
  explicit StreamL2apIndex(const DecayParams& params,
                           double ic_theta_slack = 0.0,
                           bool use_l2_bounds = true, bool use_simd = false,
                           const TieredStorageOptions& tiered = {})
      : params_(params),
        ic_theta_(params.theta * (1.0 - ic_theta_slack)),
        use_l2_bounds_(use_l2_bounds),
        tiered_(tiered),
        residuals_(/*track_prefix_dims=*/true),
        mhat_(params.lambda) {
    kernel_.use_simd = use_simd;
  }

  void ProcessArrival(const StreamItem& x, ResultSink* sink) override;
  void Clear() override;
  const char* name() const override { return use_l2_bounds_ ? "L2AP" : "AP"; }
  size_t live_posting_entries() const override { return live_entries_; }
  size_t MemoryBytes() const override {
    return residuals_.ApproxBytes() + lists_.MemoryBytes();
  }
  size_t RecountMemoryBytes() const override {
    return residuals_.RecountApproxBytes() + lists_.RecountMemoryBytes();
  }
  void CollectLiveItems(Timestamp newest, Stream* out) const override;
  const PostingMap& posting_lists() const override { return lists_; }

  size_t residual_count() const { return residuals_.size(); }

 private:
  // Restores the prefix-filtering invariant after m grew in `updated_dims`.
  void Reindex(const std::vector<DimId>& updated_dims, Timestamp cutoff);
  // Re-scans one residual under the current m; moves newly indexable
  // coordinates into the posting lists. Returns true if anything moved.
  bool ReindexOne(VectorId id, const ResidualRecord& rec);

  DecayParams params_;
  double ic_theta_;  // index-construction threshold (≤ params_.theta)
  bool use_l2_bounds_;
  TieredStorageOptions tiered_;
  L2KernelState kernel_;  // kernel selection + scan scratch
  PostingMap lists_;
  ResidualStore residuals_;
  MaxVector m_;
  DecayedMaxVector mhat_;
  CandidateMap cands_;
  std::vector<double> prefix_norms_;   // scratch
  std::vector<DimId> updated_dims_;    // scratch
  std::vector<VectorId> reindex_ids_;  // scratch
};

}  // namespace sssj

#endif  // SSSJ_INDEX_STREAM_L2AP_INDEX_H_
