#include "index/stream_l2ap_index.h"

#include <algorithm>
#include <cmath>

namespace sssj {

void StreamL2apIndex::ProcessArrival(const StreamItem& x, ResultSink* sink) {
  const SparseVector& v = x.vec;
  const Timestamp cutoff = x.ts - params_.tau;
  const ExponentialDecay decay_fn{params_.lambda};
  ++stats_.vectors_processed;
  residuals_.ExpireOlderThan(cutoff);
  NotePruned(lists_.EraseListsOlderThan(DeadListCutoff(x.ts, params_.tau)));
  if (v.empty()) return;

  // ---- Max-vector maintenance + re-indexing (must precede CG) ----
  updated_dims_.clear();
  m_.UpdateFrom(v, &updated_dims_);
  if (!updated_dims_.empty()) Reindex(updated_dims_, cutoff);

  // ---- Candidate generation (Algorithm 7, all lines) ----
  cands_.Reset();
  const size_t n = v.nnz();
  prefix_norms_.assign(n, 0.0);
  {
    double sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
      prefix_norms_[i] = std::sqrt(sq);
      sq += v.coord(i).value * v.coord(i).value;
    }
  }

  const double sz1 = params_.theta / v.max_value();
  double rs1 = mhat_.Dot(v, x.ts);
  double rst = v.norm() * v.norm();

  for (size_t i = n; i-- > 0;) {  // reverse coordinate order
    const Coord& c = v.coord(i);
    const double rs2 = std::sqrt(std::max(rst, 0.0));
    PostingList* found = lists_.Find(c.dim);
    if (found != nullptr) {
      PostingList& list = *found;
      list.NoteScanned(stats_.vectors_processed);  // scan-rate classifier
      // Lists are not time-sorted (re-indexing): compact expired entries
      // column-wise, then scan forward — hot-tail segments directly,
      // frozen blocks thawed one at a time into the kernel scratch
      // (§6.2).
      NotePruned(lists_.CompactExpired(&list, cutoff, &kernel_.posting));
      list.ForSpansOldestFirst(0, list.size(), &kernel_.posting,
                               [&](const PostingSpan& sp) {
        for (size_t k = 0; k < sp.len; ++k) {  // oldest entry first
          ++stats_.entries_traversed;
          const Timestamp ets = sp.ts[k];
          CandidateMap::Slot* slot = cands_.FindOrCreate(sp.id[k]);
          if (slot->score < 0.0) continue;  // l2-pruned: final
          // One decay per candidate: re-indexed postings carry their
          // vector's arrival time too (rec.ts).
          const double decay = L2SlotDecay(slot, ets, x.ts, decay_fn);
          if (slot->score == 0.0) {
            const double remscore =
                use_l2_bounds_ ? std::min(rs1, rs2 * decay) : rs1;
            if (!BoundAtLeast(remscore, params_.theta)) continue;
            // AP size filter: |y|·vm_y ≥ θ/vm_x is necessary for
            // similarity.
            const ResidualRecord* rec = residuals_.Find(sp.id[k]);
            if (rec == nullptr || !BoundAtLeast(rec->nnz * rec->vm, sz1)) {
              continue;
            }
            slot->ts = ets;
            cands_.NoteAdmitted();
            ++stats_.candidates_generated;
          }
          slot->score += c.value * sp.value[k];
          if (use_l2_bounds_) {
            const double l2bound =
                slot->score + prefix_norms_[i] * sp.prefix_norm[k] * decay;
            if (!BoundAtLeast(l2bound, params_.theta)) {
              slot->score = CandidateMap::kPruned;
              ++stats_.l2_prunes;
            }
          }
        }
      });
    }
    rs1 -= c.value * mhat_.Get(c.dim, x.ts);
    rst -= c.value * c.value;
  }

  // ---- Candidate verification (Algorithm 8, all lines) ----
  cands_.ForEachLive([&](VectorId id, double score, Timestamp ts) {
    ++stats_.verify_calls;
    const ResidualRecord* rec = residuals_.Find(id);
    if (rec == nullptr) return;
    const double decay = decay_fn(x.ts - ts);
    const double ps1 = (score + rec->q) * decay;
    if (!BoundAtLeast(ps1, params_.theta)) return;
    const SparseVector& yp = rec->prefix;
    const double ds1 =
        (score +
         std::min(v.max_value() * yp.sum(), yp.max_value() * v.sum())) *
        decay;
    if (!BoundAtLeast(ds1, params_.theta)) return;
    const double sz2 =
        (score + static_cast<double>(std::min(v.nnz(), yp.nnz())) *
                     v.max_value() * yp.max_value()) *
        decay;
    if (!BoundAtLeast(sz2, params_.theta)) return;
    ++stats_.full_dots;
    const double s = score + kernels::SparseDot(v, yp, kernel_.use_simd);
    const double sim = s * decay;
    if (sim >= params_.theta) {
      ResultPair p;
      p.a = id;
      p.b = x.id;
      p.ta = ts;
      p.tb = x.ts;
      p.dot = s;
      p.sim = sim;
      p.Canonicalize();
      sink->Emit(p);
      ++stats_.pairs_emitted;
    }
  });

  // ---- Index construction (Algorithm 6, all lines) ----
  // Decay is never applied during IC (§6.2): b1 uses the undecayed m.
  double b1 = 0.0;
  double bt = 0.0;
  bool first_indexed = true;
  size_t appended = 0;
  // m̂λ is defined over *all* coordinates of all past vectors (§5.3), not
  // just the indexed ones: the rs1 admission bound must also cover a
  // candidate's residual contribution in the scanned dimensions.
  for (const Coord& c : v) mhat_.Update(c.dim, c.value, x.ts);
  for (size_t i = 0; i < n; ++i) {
    const Coord& c = v.coord(i);
    const double pscore =
        use_l2_bounds_ ? std::min(b1, std::sqrt(bt)) : b1;
    // Uncapped b1 (no min with vm_x): the paper's cap requires Bayardo's
    // decreasing-max-weight processing order, which a time-ordered stream
    // violates — see DESIGN.md deviation 6.
    b1 += c.value * m_.Get(c.dim);
    bt += c.value * c.value;
    const double bound = use_l2_bounds_ ? std::min(b1, std::sqrt(bt)) : b1;
    if (BoundAtLeast(bound, ic_theta_)) {
      if (first_indexed) {
        ResidualRecord rec;
        rec.prefix = v.Prefix(i);
        rec.q = pscore;
        rec.ts = x.ts;
        rec.vm = v.max_value();
        rec.sum = v.sum();
        rec.nnz = static_cast<uint32_t>(n);
        residuals_.Insert(x.id, std::move(rec));
        first_indexed = false;
      }
      lists_.Append(c.dim, x.id, c.value, prefix_norms_[i], x.ts, tiered_);
      ++appended;
    }
  }
  NoteIndexed(appended);
}

void StreamL2apIndex::Reindex(const std::vector<DimId>& updated_dims,
                              Timestamp cutoff) {
  ++stats_.reindex_events;
  reindex_ids_.clear();
  for (DimId dim : updated_dims) {
    residuals_.ForEachWithPrefixDim(
        dim, [&](VectorId id, const ResidualRecord& rec) {
          if (rec.ts >= cutoff) reindex_ids_.push_back(id);
        });
  }
  std::sort(reindex_ids_.begin(), reindex_ids_.end());
  reindex_ids_.erase(std::unique(reindex_ids_.begin(), reindex_ids_.end()),
                     reindex_ids_.end());
  for (VectorId id : reindex_ids_) {
    const ResidualRecord* rec = residuals_.Find(id);
    if (rec != nullptr && ReindexOne(id, *rec)) ++stats_.reindexed_vectors;
  }
}

bool StreamL2apIndex::ReindexOne(VectorId id, const ResidualRecord& rec) {
  const SparseVector& prefix = rec.prefix;
  const size_t p = prefix.nnz();
  if (p == 0) return false;

  // Recompute the running IC bounds over the residual prefix under the
  // current m. The prefix holds the *first* coordinates of the vector, so
  // this scan is identical to re-running Algorithm 2 from the start.
  double b1 = 0.0;
  double bt = 0.0;
  size_t boundary = p;  // first newly indexable position
  double q_new = rec.q;
  for (size_t i = 0; i < p; ++i) {
    const Coord& c = prefix.coord(i);
    const double pscore =
        use_l2_bounds_ ? std::min(b1, std::sqrt(bt)) : b1;
    b1 += c.value * m_.Get(c.dim);  // uncapped; see IC comment
    bt += c.value * c.value;
    const double bound = use_l2_bounds_ ? std::min(b1, std::sqrt(bt)) : b1;
    if (BoundAtLeast(bound, ic_theta_)) {
      boundary = i;
      q_new = pscore;
      break;
    }
  }
  if (boundary == p) {
    // Boundary unchanged, but Q[y] must still be refreshed: it upper-bounds
    // dot(z, y') for queries z dominated by the *current* m, and b1 over
    // the prefix just grew. Keeping the old (smaller) Q would make the CV
    // ps1 bound under-estimate and silently drop true pairs.
    residuals_.UpdatePrefix(id, p,
                            use_l2_bounds_ ? std::min(b1, std::sqrt(bt)) : b1);
    return false;
  }

  // Move coordinates [boundary, p) into the posting lists with their
  // original timestamp (this is what makes L2AP lists lose time order).
  double sq = 0.0;
  for (size_t i = 0; i < boundary; ++i) {
    sq += prefix.coord(i).value * prefix.coord(i).value;
  }
  size_t appended = 0;
  for (size_t i = boundary; i < p; ++i) {
    const Coord& c = prefix.coord(i);
    // No m̂λ update needed: all of this vector's coordinates were folded
    // into m̂λ when it first arrived.
    lists_.Append(c.dim, id, c.value, std::sqrt(sq), rec.ts, tiered_);
    sq += c.value * c.value;
    ++appended;
    ++stats_.reindexed_coords;
  }
  NoteIndexed(appended);
  residuals_.UpdatePrefix(id, boundary, q_new);
  return true;
}

void StreamL2apIndex::Clear() {
  lists_.Clear();
  residuals_.Clear();
  m_.Clear();
  mhat_.Clear();
  live_entries_ = 0;
}

}  // namespace sssj
