// STR-L2 (§5.4) — the paper's main contribution. Uses only the ℓ2 bounds
// (b2 for index construction; rs2, l2bound for candidate generation; ps1
// for verification), all of which depend exclusively on the query and
// candidate vectors — never on stream-wide statistics. Consequently:
//   * no max vector m(t) has to be maintained, so no re-indexing ever
//     happens,
//   * posting lists stay time-sorted, enabling the backward-scan +
//     O(1) truncation optimization of §6.2,
//   * the decay factor tightens every bound (Appendix A).
// The Appendix A proofs use only f(Δt) ≤ 1, so the index runs under any
// DecayFunction (core/decay.h), not only the paper's e^{−λΔt}; a sliding
// window makes it a classic windowed similarity join.
#ifndef SSSJ_INDEX_STREAM_L2_INDEX_H_
#define SSSJ_INDEX_STREAM_L2_INDEX_H_

#include <vector>

#include "core/decay.h"
#include "index/candidate_map.h"
#include "index/l2_phases.h"
#include "index/posting_list.h"
#include "index/residual_store.h"
#include "index/stream_index.h"

namespace sssj {

// The per-arrival processing runs the generation / verification /
// construction phase templates of index/l2_phases.h (which also defines
// the L2IndexOptions ablation switches).

class StreamL2Index : public StreamIndex {
 public:
  // `use_simd` selects the vectorized sparse dot (index/kernels.h) for
  // the verification dots; it is bit-identical to the scalar path.
  // `tiered` enables the frozen-block cold tier under every posting
  // list; it never changes output.
  explicit StreamL2Index(const DecayParams& params,
                         const L2IndexOptions& options = {},
                         bool use_simd = false,
                         const TieredStorageOptions& tiered = {})
      : theta_(params.theta),
        decay_(DecayFunction::Exponential(params.lambda)),
        tau_(params.tau),
        options_(options),
        tiered_(tiered) {
    kernel_.use_simd = use_simd;
  }

  // Under a generalized decay f: pairs with dot · f(Δt) ≥ θ, horizon
  // τ_f(θ). DecayFunction::Exponential(λ) runs the same code, and emits
  // the same bits, as DecayParams{θ, λ}.
  StreamL2Index(double theta, const DecayFunction& decay,
                const TieredStorageOptions& tiered = {})
      : theta_(theta),
        decay_(decay),
        tau_(decay.Horizon(theta)),
        tiered_(tiered) {}

  void ProcessArrival(const StreamItem& x, ResultSink* sink) override;
  void Clear() override;
  const char* name() const override { return "L2"; }
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
  // ProcessArrival's body under one decay policy (index/l2_phases.h). Each
  // .cc instantiates it once: stream_l2_index.cc for the exponential decay,
  // stream_l2_index_general_decay.cc for the other kinds. With one
  // instantiation per file, the list and residual lookups the scans make
  // have one call site per file, so the compiler inlines them into the
  // exponential scans (two instantiations in one file measured ~3%
  // slower on a dense stream).
  template <typename Decay>
  void ProcessUnder(const Decay& decay_fn, const StreamItem& x,
                    ResultSink* sink);
  void ProcessUnderDecayFunction(const StreamItem& x, ResultSink* sink);

  double theta_;
  DecayFunction decay_;
  double tau_;
  L2IndexOptions options_;
  TieredStorageOptions tiered_;
  L2KernelState kernel_;  // kernel selection + scan scratch
  PostingMap lists_;
  ResidualStore residuals_;
  CandidateMap cands_;
  std::vector<double> prefix_norms_;  // scratch
};

template <typename Decay>
void StreamL2Index::ProcessUnder(const Decay& decay_fn, const StreamItem& x,
                                 ResultSink* sink) {
  const SparseVector& v = x.vec;
  const Timestamp cutoff = x.ts - tau_;
  ++stats_.vectors_processed;
  residuals_.ExpireOlderThan(cutoff);
  NotePruned(lists_.EraseListsOlderThan(DeadListCutoff(x.ts, tau_)));
  if (v.empty()) return;

  L2ComputePrefixNorms(v, &prefix_norms_);
  L2PhaseStats phase_stats;

  // ---- Candidate generation (Algorithm 7, green lines) ----
  cands_.Reset();
  L2GenerateCandidates(
      x, theta_, decay_fn, options_, prefix_norms_, cutoff,
      [this](DimId dim) -> PostingList* {
        PostingList* list = lists_.Find(dim);
        if (list != nullptr) {
          // Feeds the scan-rate classifier.
          list->NoteScanned(stats_.vectors_processed);
        }
        return list;
      },
      [this](PostingList& list, size_t n) {
        NotePruned(lists_.TruncateFront(&list, n));
      },
      &kernel_, &cands_, &phase_stats);

  // ---- Candidate verification (Algorithm 8, green lines) ----
  L2VerifyCandidates(x, theta_, decay_fn, options_, cands_, residuals_,
                     &kernel_, &phase_stats,
                     [sink](const ResultPair& p) { sink->Emit(p); });

  // ---- Index construction (Algorithm 6, green lines) ----
  const L2IndexSplit split = L2ComputeIndexSplit(v, theta_);
  const size_t n = v.nnz();
  if (split.first_indexed < n) {
    residuals_.Insert(x.id, L2MakeResidualRecord(x, split));
    for (size_t i = split.first_indexed; i < n; ++i) {
      const Coord& c = v.coord(i);
      lists_.Append(c.dim, x.id, c.value, prefix_norms_[i], x.ts, tiered_);
    }
    NoteIndexed(n - split.first_indexed);
  }
  phase_stats.MergeInto(&stats_);
}

}  // namespace sssj

#endif  // SSSJ_INDEX_STREAM_L2_INDEX_H_
