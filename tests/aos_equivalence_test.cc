// Pins the columnar (SoA) posting storage to the seed's AoS behavior:
// reference implementations of STR-INV, STR-L2, and STR-L2AP below keep
// the original array-of-structs layout (std::deque<PostingEntry> posting
// lists, per-entry expiry checks) and the original scan loops verbatim.
// The production indexes — now running binary-search expiry and raw
// column-span scans — must emit bit-identical pairs (same order, same
// dot/sim doubles) on seeded random streams. Any change to traversal or
// floating-point accumulation order shows up here as an exact mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <vector>

#include "index/candidate_map.h"
#include "index/l2_phases.h"
#include "index/max_vector.h"
#include "index/residual_store.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

using AosList = std::deque<PostingEntry>;

// ---- Seed-faithful AoS STR-INV ----
class AosInvIndex {
 public:
  explicit AosInvIndex(const DecayParams& params) : params_(params) {}

  void ProcessArrival(const StreamItem& x, std::vector<ResultPair>* out) {
    const Timestamp cutoff = x.ts - params_.tau;
    cands_.Reset();
    for (const Coord& c : x.vec) {
      auto it = lists_.find(c.dim);
      if (it == lists_.end()) continue;
      AosList& list = it->second;
      size_t idx = list.size();
      while (idx-- > 0) {
        const PostingEntry& e = list[idx];
        if (e.ts < cutoff) {
          list.erase(list.begin(), list.begin() + idx + 1);
          break;
        }
        CandidateMap::Slot* slot = cands_.FindOrCreate(e.id);
        if (slot->score == 0.0) {
          slot->ts = e.ts;
          cands_.NoteAdmitted();
        }
        slot->score += c.value * e.value;
      }
    }
    cands_.ForEachLive([&](VectorId id, double score, Timestamp ts) {
      const double sim = score * DecayFactor(params_.lambda, x.ts, ts);
      if (sim >= params_.theta) {
        ResultPair p;
        p.a = id;
        p.b = x.id;
        p.ta = ts;
        p.tb = x.ts;
        p.dot = score;
        p.sim = sim;
        p.Canonicalize();
        out->push_back(p);
      }
    });
    for (const Coord& c : x.vec) {
      lists_[c.dim].push_back(PostingEntry{x.id, c.value, 0.0, x.ts});
    }
  }

 private:
  DecayParams params_;
  std::unordered_map<DimId, AosList> lists_;
  CandidateMap cands_;
};

// ---- Seed-faithful AoS STR-L2 (original per-entry generate loop) ----
class AosL2Index {
 public:
  explicit AosL2Index(const DecayParams& params) : params_(params) {}

  void ProcessArrival(const StreamItem& x, std::vector<ResultPair>* out) {
    const SparseVector& v = x.vec;
    const Timestamp cutoff = x.ts - params_.tau;
    residuals_.ExpireOlderThan(cutoff);
    if (v.empty()) return;

    L2ComputePrefixNorms(v, &prefix_norms_);
    cands_.Reset();
    const size_t n = v.nnz();
    double rst = v.norm() * v.norm();
    for (size_t i = n; i-- > 0;) {
      const Coord& c = v.coord(i);
      const double rs2 = std::sqrt(std::max(rst, 0.0));
      auto it = lists_.find(c.dim);
      if (it != lists_.end()) {
        AosList& list = it->second;
        size_t idx = list.size();
        while (idx-- > 0) {
          const PostingEntry& e = list[idx];
          if (e.ts < cutoff) {
            list.erase(list.begin(), list.begin() + idx + 1);
            break;
          }
          const double decay = std::exp(-params_.lambda * (x.ts - e.ts));
          CandidateMap::Slot* slot = cands_.FindOrCreate(e.id);
          if (slot->score < 0.0) continue;
          if (slot->score == 0.0) {
            if (!BoundAtLeast(rs2 * decay, params_.theta)) continue;
            slot->ts = e.ts;
            cands_.NoteAdmitted();
          }
          slot->score += c.value * e.value;
          const double l2bound =
              slot->score + prefix_norms_[i] * e.prefix_norm * decay;
          if (!BoundAtLeast(l2bound, params_.theta)) {
            slot->score = CandidateMap::kPruned;
          }
        }
      }
      rst -= c.value * c.value;
    }

    L2PhaseStats unused;
    L2VerifyCandidates(x, params_.theta, ExponentialDecay{params_.lambda},
                       L2IndexOptions{}, cands_, residuals_,
                       /*kernel=*/nullptr, &unused,
                       [out](const ResultPair& p) { out->push_back(p); });

    const L2IndexSplit split = L2ComputeIndexSplit(v, params_.theta);
    if (split.first_indexed < n) {
      residuals_.Insert(x.id, L2MakeResidualRecord(x, split));
      for (size_t i = split.first_indexed; i < n; ++i) {
        const Coord& c = v.coord(i);
        lists_[c.dim].push_back(
            PostingEntry{x.id, c.value, prefix_norms_[i], x.ts});
      }
    }
  }

 private:
  DecayParams params_;
  std::unordered_map<DimId, AosList> lists_;
  ResidualStore residuals_;
  CandidateMap cands_;
  std::vector<double> prefix_norms_;
};

// ---- Seed-faithful AoS STR-L2AP (forward scan + in-place compaction) ----
class AosL2apIndex {
 public:
  explicit AosL2apIndex(const DecayParams& params)
      : params_(params),
        residuals_(/*track_prefix_dims=*/true),
        mhat_(params.lambda) {}

  void ProcessArrival(const StreamItem& x, std::vector<ResultPair>* out) {
    const SparseVector& v = x.vec;
    const Timestamp cutoff = x.ts - params_.tau;
    residuals_.ExpireOlderThan(cutoff);
    if (v.empty()) return;

    updated_dims_.clear();
    m_.UpdateFrom(v, &updated_dims_);
    if (!updated_dims_.empty()) Reindex(updated_dims_, cutoff);

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

    for (size_t i = n; i-- > 0;) {
      const Coord& c = v.coord(i);
      const double rs2 = std::sqrt(std::max(rst, 0.0));
      auto it = lists_.find(c.dim);
      if (it != lists_.end()) {
        AosList& list = it->second;
        // Forward compaction, then forward scan (seed order).
        {
          const size_t len = list.size();
          size_t w = 0;
          for (size_t k = 0; k < len; ++k) {
            if (list[k].ts >= cutoff) {
              if (w != k) list[w] = list[k];
              ++w;
            }
          }
          list.resize(w);
        }
        const size_t len = list.size();
        for (size_t k = 0; k < len; ++k) {
          const PostingEntry& e = list[k];
          const double decay = std::exp(-params_.lambda * (x.ts - e.ts));
          CandidateMap::Slot* slot = cands_.FindOrCreate(e.id);
          if (slot->score < 0.0) continue;
          if (slot->score == 0.0) {
            const double remscore = std::min(rs1, rs2 * decay);
            if (!BoundAtLeast(remscore, params_.theta)) continue;
            const ResidualRecord* rec = residuals_.Find(e.id);
            if (rec == nullptr || !BoundAtLeast(rec->nnz * rec->vm, sz1)) {
              continue;
            }
            slot->ts = e.ts;
            cands_.NoteAdmitted();
          }
          slot->score += c.value * e.value;
          const double l2bound =
              slot->score + prefix_norms_[i] * e.prefix_norm * decay;
          if (!BoundAtLeast(l2bound, params_.theta)) {
            slot->score = CandidateMap::kPruned;
          }
        }
      }
      rs1 -= c.value * mhat_.Get(c.dim, x.ts);
      rst -= c.value * c.value;
    }

    cands_.ForEachLive([&](VectorId id, double score, Timestamp ts) {
      const ResidualRecord* rec = residuals_.Find(id);
      if (rec == nullptr) return;
      const double decay = std::exp(-params_.lambda * (x.ts - ts));
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
      const double s = score + v.Dot(yp);
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
        out->push_back(p);
      }
    });

    double b1 = 0.0;
    double bt = 0.0;
    bool first_indexed = true;
    for (const Coord& c : v) mhat_.Update(c.dim, c.value, x.ts);
    for (size_t i = 0; i < n; ++i) {
      const Coord& c = v.coord(i);
      const double pscore = std::min(b1, std::sqrt(bt));
      b1 += c.value * m_.Get(c.dim);
      bt += c.value * c.value;
      const double bound = std::min(b1, std::sqrt(bt));
      if (BoundAtLeast(bound, params_.theta)) {
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
        lists_[c.dim].push_back(
            PostingEntry{x.id, c.value, prefix_norms_[i], x.ts});
      }
    }
  }

 private:
  void Reindex(const std::vector<DimId>& updated_dims, Timestamp cutoff) {
    reindex_ids_.clear();
    for (DimId dim : updated_dims) {
      residuals_.ForEachWithPrefixDim(
          dim, [&](VectorId id, const ResidualRecord& rec) {
            if (rec.ts >= cutoff) reindex_ids_.push_back(id);
          });
    }
    std::sort(reindex_ids_.begin(), reindex_ids_.end());
    reindex_ids_.erase(
        std::unique(reindex_ids_.begin(), reindex_ids_.end()),
        reindex_ids_.end());
    for (VectorId id : reindex_ids_) {
      const ResidualRecord* rec = residuals_.Find(id);
      if (rec != nullptr) ReindexOne(id, *rec);
    }
  }

  void ReindexOne(VectorId id, const ResidualRecord& rec) {
    const SparseVector& prefix = rec.prefix;
    const size_t p = prefix.nnz();
    if (p == 0) return;
    double b1 = 0.0;
    double bt = 0.0;
    size_t boundary = p;
    double q_new = rec.q;
    for (size_t i = 0; i < p; ++i) {
      const Coord& c = prefix.coord(i);
      const double pscore = std::min(b1, std::sqrt(bt));
      b1 += c.value * m_.Get(c.dim);
      bt += c.value * c.value;
      const double bound = std::min(b1, std::sqrt(bt));
      if (BoundAtLeast(bound, params_.theta)) {
        boundary = i;
        q_new = pscore;
        break;
      }
    }
    if (boundary == p) {
      residuals_.UpdatePrefix(id, p, std::min(b1, std::sqrt(bt)));
      return;
    }
    double sq = 0.0;
    for (size_t i = 0; i < boundary; ++i) {
      sq += prefix.coord(i).value * prefix.coord(i).value;
    }
    for (size_t i = boundary; i < p; ++i) {
      const Coord& c = prefix.coord(i);
      lists_[c.dim].push_back(
          PostingEntry{id, c.value, std::sqrt(sq), rec.ts});
      sq += c.value * c.value;
    }
    residuals_.UpdatePrefix(id, boundary, q_new);
  }

  DecayParams params_;
  std::unordered_map<DimId, AosList> lists_;
  ResidualStore residuals_;
  MaxVector m_;
  DecayedMaxVector mhat_;
  CandidateMap cands_;
  std::vector<double> prefix_norms_;
  std::vector<DimId> updated_dims_;
  std::vector<VectorId> reindex_ids_;
};

void ExpectBitIdentical(const std::vector<ResultPair>& actual,
                        const std::vector<ResultPair>& expected,
                        const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].a, expected[i].a) << what << " pair " << i;
    EXPECT_EQ(actual[i].b, expected[i].b) << what << " pair " << i;
    // Exact double equality on purpose: the columnar engine must preserve
    // the AoS floating-point accumulation order bit for bit.
    EXPECT_EQ(actual[i].dot, expected[i].dot) << what << " pair " << i;
    EXPECT_EQ(actual[i].sim, expected[i].sim) << what << " pair " << i;
  }
}

Stream PinStream(uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = 600;
  spec.dims = 40;
  spec.max_nnz = 7;
  spec.seed = seed;
  return RandomStream(spec);
}

TEST(AosEquivalenceTest, StrInvOutputBitIdenticalToAos) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  for (uint64_t seed : {11u, 12u}) {
    const Stream stream = PinStream(seed);
    StreamInvIndex soa(params);
    AosInvIndex aos(params);
    CollectorSink sink;
    std::vector<ResultPair> ref;
    for (const StreamItem& item : stream) {
      soa.ProcessArrival(item, &sink);
      aos.ProcessArrival(item, &ref);
    }
    ExpectBitIdentical(sink.pairs(), ref, "STR-INV");
    EXPECT_FALSE(ref.empty()) << "vacuous pin (no pairs emitted)";
  }
}

TEST(AosEquivalenceTest, StrL2OutputBitIdenticalToAos) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  for (uint64_t seed : {21u, 22u}) {
    const Stream stream = PinStream(seed);
    StreamL2Index soa(params);
    AosL2Index aos(params);
    CollectorSink sink;
    std::vector<ResultPair> ref;
    for (const StreamItem& item : stream) {
      soa.ProcessArrival(item, &sink);
      aos.ProcessArrival(item, &ref);
    }
    ExpectBitIdentical(sink.pairs(), ref, "STR-L2");
    EXPECT_FALSE(ref.empty()) << "vacuous pin (no pairs emitted)";
  }
}

TEST(AosEquivalenceTest, StrL2apOutputBitIdenticalToAos) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  for (uint64_t seed : {31u, 32u}) {
    const Stream stream = PinStream(seed);
    StreamL2apIndex soa(params);
    AosL2apIndex aos(params);
    CollectorSink sink;
    std::vector<ResultPair> ref;
    for (const StreamItem& item : stream) {
      soa.ProcessArrival(item, &sink);
      aos.ProcessArrival(item, &ref);
    }
    ExpectBitIdentical(sink.pairs(), ref, "STR-L2AP");
    EXPECT_FALSE(ref.empty()) << "vacuous pin (no pairs emitted)";
  }
}

}  // namespace
}  // namespace sssj
