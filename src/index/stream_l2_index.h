// STR-L2 (§5.4) — the paper's main contribution. Uses only the ℓ2 bounds
// (b2 for index construction; rs2, l2bound for candidate generation; ps1
// for verification), all of which depend exclusively on the query and
// candidate vectors — never on stream-wide statistics. Consequently:
//   * no max vector m(t) has to be maintained, so no re-indexing ever
//     happens,
//   * posting lists stay time-sorted, enabling the backward-scan +
//     O(1) truncation optimization of §6.2,
//   * the decay factor tightens every bound (Appendix A).
#ifndef SSSJ_INDEX_STREAM_L2_INDEX_H_
#define SSSJ_INDEX_STREAM_L2_INDEX_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "index/candidate_map.h"
#include "index/l2_phases.h"
#include "index/posting_list.h"
#include "index/residual_store.h"
#include "index/stream_index.h"

namespace sssj {

// The per-arrival processing is decomposed into generation / verification /
// construction phase templates shared with the parallel ShardedStreamIndex
// — see index/l2_phases.h (which also defines the L2IndexOptions ablation
// switches).

class StreamL2Index : public StreamIndex {
 public:
  // `use_simd` selects the vectorized sparse dot (index/kernels.h) for
  // the verification dots; it is bit-identical to the scalar path.
  // `tiered` enables the frozen-block cold tier under every posting
  // list; with the exact value tier (default) it never changes output.
  explicit StreamL2Index(const DecayParams& params,
                         const L2IndexOptions& options = {},
                         bool use_simd = false,
                         const TieredStorageOptions& tiered = {})
      : params_(params), options_(options), tiered_(tiered) {
    kernel_.use_simd = use_simd;
  }

  // Movable so a checkpoint can be deserialized into a scratch index and
  // swapped into the live engine only once the whole file validated
  // (engine.cc LoadCheckpoint). The base subobject (stats_, live-entry
  // counter) is transferred by copy, which is exactly what a swap wants.
  StreamL2Index(StreamL2Index&&) = default;
  StreamL2Index& operator=(StreamL2Index&&) = default;

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

  size_t residual_count() const { return residuals_.size(); }

  // Checkpointing: serializes the complete live state (posting lists,
  // residual store, live-entry counter) so a streaming job can be resumed
  // after a restart. Counters in stats() are per-process and are NOT part
  // of the checkpoint.
  //
  // Format v2 ("SSSJCKP2"): a magic + version + scheme-tag header, the
  // engine parameters (θ, λ), and posting lists stored column-major
  // (all ids, then all values, then all prefix norms, then all
  // timestamps per list) mirroring the in-memory SoA layout. Deserialize
  // replaces the index state; it fails (returning false, state cleared,
  // a human-readable reason in *error) on bad magic, stale version,
  // scheme or parameter mismatch, or truncation — a checkpoint is only
  // valid for the same scheme and (θ, λ).
  bool Serialize(std::ostream& os) const;
  bool Deserialize(std::istream& is, std::string* error = nullptr);

 private:
  DecayParams params_;
  L2IndexOptions options_;
  TieredStorageOptions tiered_;
  L2KernelState kernel_;  // kernel selection + scan scratch
  PostingMap lists_;
  ResidualStore residuals_;
  CandidateMap cands_;
  std::vector<double> prefix_norms_;  // scratch
};

}  // namespace sssj

#endif  // SSSJ_INDEX_STREAM_L2_INDEX_H_
