#include "index/stream_inv_index.h"

#include <cmath>

#include "index/kernels.h"

namespace sssj {

void StreamInvIndex::ProcessArrival(const StreamItem& x, ResultSink* sink) {
  const Timestamp cutoff = x.ts - tau_;
  ++stats_.vectors_processed;
  NotePruned(lists_.EraseListsOlderThan(DeadListCutoff(x.ts, tau_)));

  // Candidate generation with lazy time filtering: lists are time-sorted,
  // so the expired prefix is found by binary search on the ts column and
  // truncated in one go; the live suffix is scanned newest → oldest over
  // raw column pointers (prefix_norm is never touched by INV).
  cands_.Reset();
  for (const Coord& c : x.vec) {
    PostingList* found = lists_.Find(c.dim);
    if (found == nullptr) continue;
    PostingList& list = *found;
    list.NoteScanned(stats_.vectors_processed);  // scan-rate classifier
    NotePruned(lists_.TruncateFront(&list, list.LowerBoundTs(cutoff)));
    list.ForSpansNewestFirst(0, list.size(), &posting_,
                             [&](const PostingSpan& sp) {
      // INV accumulates every entry, so the value column is dense either
      // way; the SIMD path batches the products (bit-identical to the
      // per-entry multiply) and the per-entry loop keeps only the map.
      const double* contrib = nullptr;
      if (use_simd_ && sp.len >= kernels::kMinSimdRun) {
        if (contrib_.size() < sp.len) contrib_.resize(sp.len);
        kernels::ProductColumn(sp.value, sp.len, c.value, contrib_.data());
        contrib = contrib_.data();
      }
      for (size_t k = sp.len; k-- > 0;) {  // newest entry first
        ++stats_.entries_traversed;
        CandidateMap::Slot* slot = cands_.FindOrCreate(sp.id[k]);
        if (slot->score == 0.0) {
          slot->ts = sp.ts[k];
          cands_.NoteAdmitted();
          ++stats_.candidates_generated;
        }
        slot->score += contrib != nullptr ? contrib[k] : c.value * sp.value[k];
      }
    });
  }

  // Verification: the accumulated score is the exact dot product, so the
  // decay policy enters only here, instantiated once for ExponentialDecay
  // and once for the other kinds.
  const auto verify = [&](const auto& decay_fn) {
    cands_.ForEachLive([&](VectorId id, double score, Timestamp ts) {
      ++stats_.verify_calls;
      const double sim = score * decay_fn(std::abs(x.ts - ts));
      if (sim >= theta_) {
        ResultPair p;
        p.a = id;
        p.b = x.id;
        p.ta = ts;
        p.tb = x.ts;
        p.dot = score;
        p.sim = sim;
        p.Canonicalize();
        sink->Emit(p);
        ++stats_.pairs_emitted;
      }
    });
  };
  if (decay_.kind() == DecayFunction::Kind::kExponential) {
    verify(ExponentialDecay{decay_.lambda()});
  } else {
    verify([this](Timestamp dt) { return decay_.Eval(dt); });
  }

  // Index construction: append everything (no prefix filtering).
  for (const Coord& c : x.vec) {
    lists_.Append(c.dim, x.id, c.value, 0.0, x.ts, tiered_);
  }
  NoteIndexed(x.vec.nnz());
}

void StreamInvIndex::Clear() {
  lists_.Clear();
  live_entries_ = 0;
}

}  // namespace sssj
