#include "index/decayed_stream_index.h"

#include <algorithm>
#include <cmath>

namespace sssj {

void BruteForceDecayJoin(const Stream& stream, double theta,
                         const DecayFunction& decay, ResultSink* sink) {
  const double tau = decay.Horizon(theta);
  size_t oldest = 0;
  for (size_t j = 0; j < stream.size(); ++j) {
    const StreamItem& x = stream[j];
    while (oldest < j && x.ts - stream[oldest].ts > tau) ++oldest;
    for (size_t i = oldest; i < j; ++i) {
      const StreamItem& y = stream[i];
      const double d = x.vec.Dot(y.vec);
      if (d <= 0.0) continue;
      const double sim = d * decay.Eval(x.ts - y.ts);
      if (sim >= theta) {
        ResultPair p;
        p.a = y.id;
        p.b = x.id;
        p.ta = y.ts;
        p.tb = x.ts;
        p.dot = d;
        p.sim = sim;
        p.Canonicalize();
        sink->Emit(p);
      }
    }
  }
}

void GeneralDecayInvIndex::ProcessArrival(const StreamItem& x,
                                          ResultSink* sink) {
  const Timestamp cutoff = x.ts - tau_;
  ++stats_.vectors_processed;
  cands_.Reset();
  for (const Coord& c : x.vec) {
    PostingList* found = lists_.Find(c.dim);
    if (found == nullptr) continue;
    PostingList& list = *found;
    list.NoteScanned(stats_.vectors_processed);
    NotePruned(lists_.TruncateFront(&list, list.LowerBoundTs(cutoff)));
    list.ForEachNewestFirst(0, list.size(), &posting_,
                            [&](const PostingSpan& sp, size_t k) {
      ++stats_.entries_traversed;
      CandidateMap::Slot* slot = cands_.FindOrCreate(sp.id[k]);
      if (slot->score == 0.0) {
        slot->ts = sp.ts[k];
        cands_.NoteAdmitted();
        ++stats_.candidates_generated;
      }
      slot->score += c.value * sp.value[k];
    });
  }
  cands_.ForEachLive([&](VectorId id, double score, Timestamp ts) {
    ++stats_.verify_calls;
    const double sim = score * decay_.Eval(x.ts - ts);
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
  for (const Coord& c : x.vec) {
    lists_.Append(c.dim, x.id, c.value, 0.0, x.ts, tiered_,
                  stats_.vectors_processed);
  }
  NoteIndexed(x.vec.nnz());
}

void GeneralDecayInvIndex::Clear() {
  lists_.Clear();
  live_entries_ = 0;
}

void GeneralDecayL2Index::ProcessArrival(const StreamItem& x,
                                         ResultSink* sink) {
  const SparseVector& v = x.vec;
  const Timestamp cutoff = x.ts - tau_;
  ++stats_.vectors_processed;
  residuals_.ExpireOlderThan(cutoff);
  if (v.empty()) return;

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

  double rst = v.norm() * v.norm();
  for (size_t i = n; i-- > 0;) {
    const Coord& c = v.coord(i);
    const double rs2 = std::sqrt(std::max(rst, 0.0));
    PostingList* found = lists_.Find(c.dim);
    if (found != nullptr) {
      PostingList& list = *found;
      list.NoteScanned(stats_.vectors_processed);
      NotePruned(lists_.TruncateFront(&list, list.LowerBoundTs(cutoff)));
      list.ForEachNewestFirst(0, list.size(), &posting_,
                              [&](const PostingSpan& sp, size_t k) {
        ++stats_.entries_traversed;
        const double f = decay_.Eval(x.ts - sp.ts[k]);
        CandidateMap::Slot* slot = cands_.FindOrCreate(sp.id[k]);
        if (slot->score < 0.0) return;
        if (slot->score == 0.0) {
          if (!BoundAtLeast(rs2 * f, theta_)) return;
          slot->ts = sp.ts[k];
          cands_.NoteAdmitted();
          ++stats_.candidates_generated;
        }
        slot->score += c.value * sp.value[k];
        const double l2bound =
            slot->score + prefix_norms_[i] * sp.prefix_norm[k] * f;
        if (!BoundAtLeast(l2bound, theta_)) {
          slot->score = CandidateMap::kPruned;
          ++stats_.l2_prunes;
        }
      });
    }
    rst -= c.value * c.value;
  }

  cands_.ForEachLive([&](VectorId id, double score, Timestamp ts) {
    ++stats_.verify_calls;
    const ResidualRecord* rec = residuals_.Find(id);
    if (rec == nullptr) return;
    const double f = decay_.Eval(x.ts - ts);
    if (!BoundAtLeast((score + rec->q) * f, theta_)) return;
    ++stats_.full_dots;
    const double s = score + v.Dot(rec->prefix);
    const double sim = s * f;
    if (sim >= theta_) {
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

  double bt = 0.0;
  bool first_indexed = true;
  size_t appended = 0;
  for (size_t i = 0; i < n; ++i) {
    const Coord& c = v.coord(i);
    const double pscore = std::sqrt(bt);
    bt += c.value * c.value;
    if (BoundAtLeast(std::sqrt(bt), theta_)) {
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
      lists_.Append(c.dim, x.id, c.value, prefix_norms_[i], x.ts, tiered_,
                    stats_.vectors_processed);
      ++appended;
    }
  }
  NoteIndexed(appended);
}

void GeneralDecayL2Index::Clear() {
  lists_.Clear();
  residuals_.Clear();
  live_entries_ = 0;
}

}  // namespace sssj
