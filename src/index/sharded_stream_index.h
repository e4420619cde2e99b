// Sharded parallel STR-L2 (the paper's recommended index, scaled across
// cores). Exact and deterministic: for any shard count the emitted pair
// set is identical to the sequential StreamL2Index, because every
// candidate is processed by exactly one worker running the sequential
// per-candidate computation (see index/l2_phases.h for the argument).
//
// Layout and schedule per arrival x:
//
//   posting lists   — physically partitioned by dim % S across shard
//                     states (parallel construction/expiry, better cache
//                     locality per worker),
//   generation      — worker w scans *all* lists (read-only) but
//                     accumulates only candidates with id % S == w into
//                     its private CandidateMap; all ℓ2 bounds apply at
//                     full sequential strength,
//   verification    — worker w verifies its own candidates against the
//                     shared residual store (read-only) into a private
//                     pair buffer,
//   construction    — worker w appends x's indexed coordinates for its
//                     own dims and truncates time-expired postings of its
//                     own lists,
//   merge           — the coordinator emits pair buffers in shard order
//                     and folds per-worker counters into RunStats, so
//                     stats match a sequential run field for field.
//
// Two ParallelFor barriers per arrival; the single-threaded configuration
// never constructs this class (SssjEngine keeps StreamL2Index for
// num_threads == 1).
#ifndef SSSJ_INDEX_SHARDED_STREAM_INDEX_H_
#define SSSJ_INDEX_SHARDED_STREAM_INDEX_H_

#include <memory>
#include <vector>

#include "index/candidate_map.h"
#include "index/l2_phases.h"
#include "index/posting_list.h"
#include "index/residual_store.h"
#include "index/stream_index.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sssj {

class ShardedStreamIndex : public StreamIndex {
 public:
  // `num_threads` is both the worker count and the shard count (min 1).
  // `use_simd` turns on the vectorized scoring kernels per worker; each
  // shard owns its own kernel scratch, and the kernels are element-wise,
  // so the SIMD output is identical for every shard count (same
  // per-candidate accumulation argument as the scalar path).
  // `tiered` enables the frozen-block cold tier. Freezing (and every other
  // list mutation) happens only in phase 2 by the shard that owns the
  // list's dim; phase-1 cross-shard scans see either the pre-freeze or the
  // post-freeze state of a barrier-separated arrival, never a block under
  // construction, so the sharing stays TSan-clean.
  explicit ShardedStreamIndex(const DecayParams& params, size_t num_threads,
                              const L2IndexOptions& options = {},
                              bool use_simd = false,
                              const TieredStorageOptions& tiered = {});

  // Same, but runs the two per-arrival barriers on an injected pool shared
  // with other indexes (JoinService: one pool per service, not one per
  // engine). The shard count stays `num_threads` — it determines the
  // candidate partition and hence the output order — while the pool may
  // have any size; a null pool gets a private one. Output is identical to
  // the own-pool constructor: determinism depends on the shard count, not
  // on which thread runs which shard.
  ShardedStreamIndex(const DecayParams& params, size_t num_threads,
                     std::shared_ptr<ThreadPool> pool,
                     const L2IndexOptions& options = {},
                     bool use_simd = false,
                     const TieredStorageOptions& tiered = {});

  void ProcessArrival(const StreamItem& x, ResultSink* sink) override;
  void Clear() override;
  const char* name() const override { return "L2-SHARDED"; }
  size_t live_posting_entries() const override { return live_entries_; }
  size_t MemoryBytes() const override;
  size_t RecountMemoryBytes() const override;
  // Reads every shard's lists: call between arrivals, never during one.
  void CollectLiveItems(Timestamp newest, Stream* out) const override;

  size_t num_shards() const { return shards_.size(); }
  size_t residual_count() const { return residuals_.size(); }

 private:
  struct Shard {
    // The owner-writes capability. Exactly one thread holds it at a time:
    // worker w takes it (RoleLock) for the span of each phase body, and
    // the coordinator takes it after the barrier to merge/clear — making
    // "only the owning worker mutates a shard" a compile-checked contract
    // rather than a comment. `lists` is deliberately NOT guarded: phase 1
    // reads lists *across* shards by design (mutation is deferred to
    // phase 2, where only the owner touches them — the phase helpers
    // below carry the REQUIRES), so a guarded-by would outlaw the one
    // cross-shard access the schedule is built around.
    Role owner;
    // Dims with dim % S == w. Its byte total is written only by the
    // owning worker (phase 2) and read by the coordinator between
    // arrivals, after the barrier.
    PostingMap lists;
    // candidates with id % S == w (scratch)
    CandidateMap cands SSSJ_GUARDED_BY(owner);
    // kernel selection + worker-private scratch
    L2KernelState kernel SSSJ_GUARDED_BY(owner);
    // Per-arrival outputs, merged by the coordinator after the barrier.
    L2PhaseStats phase_stats SSSJ_GUARDED_BY(owner);
    std::vector<ResultPair> pairs SSSJ_GUARDED_BY(owner);
    size_t appended SSSJ_GUARDED_BY(owner) = 0;
    size_t pruned SSSJ_GUARDED_BY(owner) = 0;
  };

  // Phase bodies, one call per worker per arrival; both run under the
  // shard's owner role (worker w passes shards_[w]). Phase 1 reads lists
  // across shards but writes only the owned shard's scratch; phase 2
  // verifies owned candidates and mutates only owned lists.
  void GeneratePhase(const StreamItem& x, Timestamp cutoff, size_t w,
                     Shard& shard) SSSJ_REQUIRES(shard.owner);
  void VerifyAndConstructPhase(const StreamItem& x, Timestamp cutoff,
                               const L2IndexSplit& split, size_t w,
                               Shard& shard) SSSJ_REQUIRES(shard.owner);

  DecayParams params_;
  L2IndexOptions options_;
  TieredStorageOptions tiered_;
  std::vector<Shard> shards_;
  ResidualStore residuals_;  // shared; written only by the coordinator
  std::vector<double> prefix_norms_;  // scratch; read-only during phases
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace sssj

#endif  // SSSJ_INDEX_SHARDED_STREAM_INDEX_H_
