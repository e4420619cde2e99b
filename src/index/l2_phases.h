// Phase decomposition of STR-L2 arrival processing (Algorithms 6–8, green
// lines): candidate generation, verification and index construction as
// free function templates. StreamL2Index runs them once per arrival under
// any decay function; the micro-benchmarks and the AoS equivalence test
// drive them directly.
//
// The generate scan is parameterized over three policy hooks:
//   Decay         double (Timestamp dt)     — the decay factor f(Δt) ≤ 1
//                                             (ExponentialDecay, the
//                                             paper's e^{−λΔt}, or any
//                                             DecayFunction: the ℓ2 bounds
//                                             only need f ≤ 1, core/decay.h)
//   ListLookup    PostingList* (DimId)      — where posting lists live
//   OnExpired     void (PostingList&, size_t n) — what to do with a
//                                             list's expired front run of
//                                             n entries (the index
//                                             truncates it; a benchmark
//                                             that rescans one list leaves
//                                             it in place)
#ifndef SSSJ_INDEX_L2_PHASES_H_
#define SSSJ_INDEX_L2_PHASES_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/decay.h"
#include "core/result.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "core/stream_item.h"
#include "index/candidate_map.h"
#include "index/kernels.h"
#include "index/posting_list.h"
#include "index/residual_store.h"

namespace sssj {

// One posting list of the query, as the generate scan's resolve pass
// left it: the list (null when x's dim has none) and its live count.
// After expiry the live run is the list's last `live` entries.
struct L2ResolvedList {
  const PostingList* list = nullptr;
  size_t live = 0;
};

// Kernel selection plus the per-caller scan scratch. With use_simd true,
// verification's full dot products go through kernels::SparseDot
// (bit-identical to the scalar path); the generate scan is the same on
// both paths. The caller owns its state and reuses it across arrivals,
// so a steady-state scan allocates nothing.
struct L2KernelState {
  bool use_simd = false;
  // The resolve pass's output, one entry per coordinate of the query
  // (grow-only).
  std::vector<L2ResolvedList> resolved;
  // Frozen-block decompression scratch for the tiered posting lists:
  // the generate scan thaws one cold block at a time into this buffer.
  FrozenColumns posting;
};

// The decay f(now − ts) between the query and the candidate in `slot`.
// Every posting of a vector carries that vector's arrival time, so the
// factor belongs to the candidate, not the posting: it is evaluated on
// the slot's first non-pruned touch of the arrival and reused by every
// later posting; which posting gets there first does not change the
// value.
template <typename Decay>
double L2SlotDecay(CandidateMap::Slot* slot, Timestamp ts, Timestamp now,
                   const Decay& decay_fn) {
  if (slot->decay == CandidateMap::kNoDecay) {
    slot->decay = decay_fn(now - ts);
  }
  return slot->decay;
}

// Ablation switches for the three ℓ2 pruning rules. Disabling a rule never
// changes the output (each rule only skips provably-dissimilar work); it
// changes how much work is done — which is exactly what the ablation bench
// measures. All enabled by default.
struct L2IndexOptions {
  bool use_remscore_bound = true;  // admission: rs2·f(Δt) ≥ θ (Alg 7 l.7)
  bool use_l2bound = true;         // early prune: C + ||x'||·||y'||·f(Δt)
  bool use_ps1_bound = true;       // verification: (C + Q)·f(Δt) ≥ θ
};

// Counters produced by one arrival's phases, folded into the index-wide
// RunStats once the arrival is done.
struct L2PhaseStats {
  uint64_t entries_traversed = 0;
  uint64_t candidates_generated = 0;
  uint64_t l2_prunes = 0;
  uint64_t verify_calls = 0;
  uint64_t full_dots = 0;
  uint64_t pairs_emitted = 0;

  void MergeInto(RunStats* stats) const {
    stats->entries_traversed += entries_traversed;
    stats->candidates_generated += candidates_generated;
    stats->l2_prunes += l2_prunes;
    stats->verify_calls += verify_calls;
    stats->full_dots += full_dots;
    stats->pairs_emitted += pairs_emitted;
  }
};

// prefix_norms[i] = ||x'_i||, the norm of coordinates strictly before i.
inline void L2ComputePrefixNorms(const SparseVector& v,
                                 std::vector<double>* out) {
  const size_t n = v.nnz();
  out->assign(n, 0.0);
  double sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = std::sqrt(sq);
    sq += v.coord(i).value * v.coord(i).value;
  }
}

// ---- Phase 1: candidate generation (Algorithm 7, green lines) ----
// Two passes over x's dimensions in reverse coordinate order.
//
// Resolve: look up each list, locate its expired front run by one binary
// search on the time-sorted `ts` column, and report it to `on_expired`.
// The lists are independent, so their cache misses (table slot, list
// header, front ts) overlap across the pass instead of each waiting
// behind the previous list's walk.
//
// Walk: each live run newest → oldest over raw per-column pointers,
// accumulating dot-product contributions into `cands`. The `id`/`ts`
// columns are read densely; `value` and `prefix_norm` are only touched
// for admitted candidates. The list order, the entry order and so the
// per-candidate floating-point accumulation order are those of the
// original one-pass scan.
//
// `kernel` is required: it carries the kernel selection and the resolve
// and thaw scratch.
template <typename Decay, typename ListLookup, typename OnExpired>
void L2GenerateCandidates(const StreamItem& x, double theta,
                          const Decay& decay_fn,
                          const L2IndexOptions& options,
                          const std::vector<double>& prefix_norms,
                          Timestamp cutoff, ListLookup&& lookup,
                          OnExpired&& on_expired, L2KernelState* kernel,
                          CandidateMap* cands, L2PhaseStats* stats) {
  const SparseVector& v = x.vec;
  const size_t n = v.nnz();
  std::vector<L2ResolvedList>& resolved = kernel->resolved;
  if (resolved.size() < n) resolved.resize(n);
  for (size_t i = n; i-- > 0;) {
    PostingList* list = lookup(v.coord(i).dim);
    size_t live = 0;
    if (list != nullptr && !list->empty()) {
      const size_t expired = list->LowerBoundTs(cutoff);
      live = list->size() - expired;
      if (expired > 0) on_expired(*list, expired);
      // A truncating on_expired leaves the live run at [0, live); one
      // that leaves the list alone, at [expired, size). Either way it is
      // the last `live` entries. Lookups and expiry create and erase no
      // list, so `list` stays valid through the walk.
    }
    resolved[i] = L2ResolvedList{list, live};
  }

  double rst = v.norm() * v.norm();
  for (size_t i = n; i-- > 0;) {
    const Coord& c = v.coord(i);
    const double rs2 = std::sqrt(std::max(rst, 0.0));
    rst -= c.value * c.value;
    const L2ResolvedList& r = resolved[i];
    if (r.live == 0) continue;
    // The block-cursor walk hands out the hot tail's raw segments first,
    // then decompresses cold frozen blocks one at a time into the
    // kernel's scratch — the entry visit order is identical to the
    // untiered two-segment scan.
    const size_t size = r.list->size();
    r.list->ForSpansNewestFirst(
        size - r.live, size, &kernel->posting, [&](const PostingSpan& sp) {
      for (size_t k = sp.len; k-- > 0;) {  // newest entry first
        const VectorId eid = sp.id[k];
        ++stats->entries_traversed;
        CandidateMap::Slot* slot = cands->FindOrCreate(eid);
        if (slot->score < 0.0) continue;  // l2-pruned: final
        const double decay = L2SlotDecay(slot, sp.ts[k], x.ts, decay_fn);
        if (slot->score == 0.0) {
          // remscore = rs2 · f(Δt) (line 7, AP part disabled).
          if (options.use_remscore_bound && !BoundAtLeast(rs2 * decay, theta)) {
            continue;
          }
          slot->ts = sp.ts[k];
          cands->NoteAdmitted();
          ++stats->candidates_generated;
        }
        slot->score += c.value * sp.value[k];
        if (options.use_l2bound) {
          const double l2bound =
              slot->score + prefix_norms[i] * sp.prefix_norm[k] * decay;
          if (!BoundAtLeast(l2bound, theta)) {
            slot->score = CandidateMap::kPruned;
            ++stats->l2_prunes;
          }
        }
      }
    });
  }
}

// ---- Phase 2: candidate verification (Algorithm 8, green lines) ----
// Emits every verified pair through `emit` in the (deterministic) order
// candidates were first touched during generation.
template <typename Decay, typename EmitFn>
void L2VerifyCandidates(const StreamItem& x, double theta,
                        const Decay& decay_fn, const L2IndexOptions& options,
                        const CandidateMap& cands,
                        const ResidualStore& residuals,
                        const L2KernelState* kernel, L2PhaseStats* stats,
                        EmitFn&& emit) {
  const bool use_simd = kernel != nullptr && kernel->use_simd;
  cands.ForEachLive([&](VectorId id, double score, Timestamp ts) {
    ++stats->verify_calls;
    const ResidualRecord* rec = residuals.Find(id);
    if (rec == nullptr) return;  // defensive: record outlives its postings
    const double decay = decay_fn(x.ts - ts);
    if (options.use_ps1_bound) {
      const double ps1 = (score + rec->q) * decay;
      if (!BoundAtLeast(ps1, theta)) return;
    }
    ++stats->full_dots;
    // SparseDot is bit-identical to x.vec.Dot on both kernel paths; the
    // SIMD variant only accelerates the merge cursors.
    const double s = score + kernels::SparseDot(x.vec, rec->prefix, use_simd);
    const double sim = s * decay;
    if (sim >= theta) {
      ResultPair p;
      p.a = id;
      p.b = x.id;
      p.ta = ts;
      p.tb = x.ts;
      p.dot = s;
      p.sim = sim;
      p.Canonicalize();
      emit(p);
      ++stats->pairs_emitted;
    }
  });
}

// ---- Phase 3: index construction (Algorithm 6, green lines) ----
// The b2 bound admits a suffix of x's coordinates into the index; the
// un-indexed prefix goes to the residual store. This computes the split
// point: coordinates [first_indexed, nnz) are indexed, `q` is the pscore
// (Q[x]) frozen at the split. first_indexed == nnz means x is never
// indexed (its norm cannot reach θ — only possible for non-unit input).
struct L2IndexSplit {
  size_t first_indexed = 0;
  double q = 0.0;
};

inline L2IndexSplit L2ComputeIndexSplit(const SparseVector& v, double theta) {
  const size_t n = v.nnz();
  double bt = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pscore = std::sqrt(bt);  // b2 before this coordinate
    bt += v.coord(i).value * v.coord(i).value;
    if (BoundAtLeast(std::sqrt(bt), theta)) return L2IndexSplit{i, pscore};
  }
  return L2IndexSplit{n, 0.0};
}

// Builds x's residual record for the given split (callers Insert it into
// their ResidualStore). Only valid when split.first_indexed < v.nnz().
inline ResidualRecord L2MakeResidualRecord(const StreamItem& x,
                                           const L2IndexSplit& split) {
  ResidualRecord rec;
  rec.prefix = x.vec.Prefix(split.first_indexed);
  rec.q = split.q;
  rec.ts = x.ts;
  rec.vm = x.vec.max_value();
  rec.sum = x.vec.sum();
  rec.nnz = static_cast<uint32_t>(x.vec.nnz());
  return rec;
}

}  // namespace sssj

#endif  // SSSJ_INDEX_L2_PHASES_H_
