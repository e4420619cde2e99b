// Streaming indexes (STR-INV, STR-L2, STR-L2AP) against the exact sliding-
// window oracle, across a grid of θ × λ and stream shapes, plus targeted
// regressions for time filtering and L2AP re-indexing.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/brute_force.h"
#include "core/decay.h"
#include "index/posting_list.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"
#include "stream/streaming.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::Item;
using ::sssj::testing::PairSet;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

enum class Scheme { kInv, kL2, kL2ap };

std::unique_ptr<StreamIndex> Make(Scheme s, const DecayParams& params) {
  switch (s) {
    case Scheme::kInv:
      return std::make_unique<StreamInvIndex>(params);
    case Scheme::kL2:
      return std::make_unique<StreamL2Index>(params);
    case Scheme::kL2ap:
      return std::make_unique<StreamL2apIndex>(params);
  }
  return nullptr;
}

std::vector<ResultPair> RunStreamIndex(Scheme s, const DecayParams& params,
                                       const Stream& stream,
                                       RunStats* stats = nullptr) {
  auto index = Make(s, params);
  CollectorSink sink;
  for (const StreamItem& item : stream) index->ProcessArrival(item, &sink);
  if (stats != nullptr) *stats = index->stats();
  return sink.pairs();
}

class StreamIndexParamTest
    : public ::testing::TestWithParam<
          std::tuple<Scheme, double, double, uint64_t>> {};

TEST_P(StreamIndexParamTest, MatchesSlidingWindowOracle) {
  const auto [scheme, theta, lambda, seed] = GetParam();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(theta, lambda, &params));

  RandomStreamSpec spec;
  spec.n = 300;
  spec.dims = 35;
  spec.max_nnz = 7;
  spec.max_gap = 3.0;
  spec.seed = seed;
  const Stream stream = RandomStream(spec);

  const auto pairs = RunStreamIndex(scheme, params, stream);
  ExpectMatchesOracle(stream, params, pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamIndexParamTest,
    ::testing::Combine(::testing::Values(Scheme::kInv, Scheme::kL2,
                                         Scheme::kL2ap),
                       ::testing::Values(0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(0.0, 0.001, 0.05, 0.5),
                       ::testing::Values(11u, 12u)));

// Dense, bursty streams with many near-duplicates: the regime where
// re-indexing actually triggers.
class StreamIndexDuplicateHeavyTest
    : public ::testing::TestWithParam<std::tuple<Scheme, double>> {};

TEST_P(StreamIndexDuplicateHeavyTest, NearDuplicateStreamMatchesOracle) {
  const auto [scheme, lambda] = GetParam();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.8, lambda, &params));

  // Base vectors + jittered repeats arriving close in time.
  Rng rng(99);
  Stream stream;
  Timestamp now = 0.0;
  std::vector<SparseVector> bases;
  for (int b = 0; b < 12; ++b) {
    std::vector<Coord> coords;
    for (int k = 0; k < 6; ++k) {
      coords.push_back(
          Coord{static_cast<DimId>(rng.NextBelow(25)), 0.2 + rng.NextDouble()});
    }
    bases.push_back(UnitVec(std::move(coords)));
  }
  for (int i = 0; i < 400; ++i) {
    const SparseVector& base = bases[rng.NextBelow(bases.size())];
    std::vector<Coord> coords(base.coords());
    for (Coord& c : coords) {
      c.value *= 1.0 + 0.05 * (rng.NextDouble() - 0.5);
    }
    if (rng.NextBool(0.3)) {
      coords.push_back(
          Coord{static_cast<DimId>(rng.NextBelow(25)), rng.NextDouble()});
    }
    now += rng.NextDouble() * 0.5;
    stream.push_back(Item(i, now, UnitVec(std::move(coords))));
  }

  const auto pairs = RunStreamIndex(scheme, params, stream);
  ExpectMatchesOracle(stream, params, pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamIndexDuplicateHeavyTest,
    ::testing::Combine(::testing::Values(Scheme::kInv, Scheme::kL2,
                                         Scheme::kL2ap),
                       ::testing::Values(0.0, 0.01, 0.2)));

// Regression: growing maximum values force L2AP re-indexing. The stream is
// built so early vectors have small coordinates in a dimension whose max
// later explodes, and a late query is similar to an early vector only
// through coordinates that were originally residual.
TEST(StreamL2apTest, ReindexingTriggersAndStaysCorrect) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.001, &params));

  Stream stream;
  Rng rng(7);
  Timestamp now = 0.0;
  // Phase 1: balanced vectors over dims 0..9 (flat maxima).
  for (int i = 0; i < 50; ++i) {
    std::vector<Coord> coords;
    for (int k = 0; k < 5; ++k) {
      coords.push_back(
          Coord{static_cast<DimId>(rng.NextBelow(10)), 0.9 + 0.2 * rng.NextDouble()});
    }
    now += 0.1;
    stream.push_back(Item(stream.size(), now, UnitVec(std::move(coords))));
  }
  // Phase 2: spiky vectors — each concentrates on one dimension, pushing
  // that dimension's max near 1 and triggering re-indexing of residuals.
  for (int i = 0; i < 50; ++i) {
    const DimId spike = static_cast<DimId>(rng.NextBelow(10));
    std::vector<Coord> coords = {{spike, 10.0}};
    for (int k = 0; k < 3; ++k) {
      coords.push_back(
          Coord{static_cast<DimId>(rng.NextBelow(10)), 0.5 * rng.NextDouble() + 0.1});
    }
    now += 0.1;
    stream.push_back(Item(stream.size(), now, UnitVec(std::move(coords))));
  }

  RunStats stats;
  const auto pairs =
      RunStreamIndex(Scheme::kL2ap, params, stream, &stats);
  EXPECT_GT(stats.reindex_events, 0u) << "test stream failed to trigger "
                                         "re-indexing; regression has no bite";
  ExpectMatchesOracle(stream, params, pairs);
}

// Regression for DESIGN.md deviations 2 and 6 (the vm-cap counterexample).
//
// y has nine equal coordinates (1/3 each). At θ=0.6 with m = y's own
// values, the IC bounds cross θ at the 6th coordinate, leaving a
// five-coordinate un-indexed prefix. The query x has five coordinates of
// 1/√5 ≈ 0.447 over exactly those prefix dimensions: dot(x,y) ≈ 0.745 ≥ θ,
// yet the pair shares no indexed dimension at y's indexing time. Finding
// it requires the full chain to work:
//   * x's arrival must raise m in the prefix dims *before* x's CandGen
//     (deviation 2: the paper's literal Algorithm 6 order would miss it),
//   * the re-indexing scan must use the *uncapped* b1 — with the paper's
//     min{mj, vmy} cap, the bound is stuck at 5·(1/3)·(1/3) ≈ 0.556 < θ
//     and y's boundary never moves (deviation 6),
//   * m̂λ must cover y's residual coordinates, or rs1 rejects y on
//     admission.
TEST(StreamL2apTest, VmCapCounterexamplePairIsFound) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.001, &params));

  std::vector<Coord> y_coords;
  for (DimId d = 0; d < 9; ++d) y_coords.push_back(Coord{d, 1.0});
  SparseVector y = UnitVec(std::move(y_coords));

  std::vector<Coord> x_coords;
  for (DimId d = 0; d < 5; ++d) x_coords.push_back(Coord{d, 1.0});
  SparseVector x = UnitVec(std::move(x_coords));

  ASSERT_GT(y.Dot(x), params.theta);

  Stream stream = {Item(0, 0.0, y), Item(1, 0.5, x)};
  RunStats stats;
  const auto pairs = RunStreamIndex(Scheme::kL2ap, params, stream, &stats);
  const auto got = PairSet(pairs);
  EXPECT_TRUE(got.count({0, 1}))
      << "vm-capped b1 / late m-update / indexed-only m̂λ regression";
  EXPECT_GT(stats.reindexed_coords, 0u)
      << "the pair requires re-indexing to move y's boundary";
}

// Time filtering: expired entries must be physically dropped from the
// index (entries_pruned grows, live entries bounded).
TEST(StreamIndexTest, TimeFilteringPrunesIndex) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.5, &params));  // τ ≈ 1.39

  for (Scheme s : {Scheme::kInv, Scheme::kL2, Scheme::kL2ap}) {
    auto index = Make(s, params);
    CollectorSink sink;
    SparseVector v = UnitVec({{0, 1.0}, {1, 1.0}});
    for (int i = 0; i < 200; ++i) {
      index->ProcessArrival(Item(i, i * 1.0, v), &sink);
    }
    EXPECT_GT(index->stats().entries_pruned, 0u) << index->name();
    // Horizon ≈ 1.39 → only ~2 vectors alive at a time.
    EXPECT_LE(index->live_posting_entries(), 8u) << index->name();
  }
}

// A vector that arrives after a gap > τ must not match anything.
TEST(StreamIndexTest, GapLargerThanHorizonYieldsNoPairs) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.9, 1.0, &params));
  SparseVector v = UnitVec({{0, 1.0}});
  for (Scheme s : {Scheme::kInv, Scheme::kL2, Scheme::kL2ap}) {
    auto index = Make(s, params);
    CollectorSink sink;
    index->ProcessArrival(Item(0, 0.0, v), &sink);
    index->ProcessArrival(Item(1, params.tau * 10, v), &sink);
    EXPECT_TRUE(sink.pairs().empty()) << index->name();
  }
}

// Identical simultaneous vectors must always be reported, at any θ < 1
// (at θ = 1.0 exactly, the pair sits on the threshold and floating-point
// summation order legitimately decides either way).
TEST(StreamIndexTest, SimultaneousIdenticalAlwaysSimilar) {
  for (double theta : {0.5, 0.9, 0.99}) {
    DecayParams params;
    ASSERT_TRUE(DecayParams::Make(theta, 0.1, &params));
    SparseVector v = UnitVec({{3, 0.3}, {5, 0.4}, {9, 0.2}});
    for (Scheme s : {Scheme::kInv, Scheme::kL2, Scheme::kL2ap}) {
      auto index = Make(s, params);
      CollectorSink sink;
      index->ProcessArrival(Item(0, 7.0, v), &sink);
      index->ProcessArrival(Item(1, 7.0, v), &sink);
      ASSERT_EQ(sink.pairs().size(), 1u)
          << index->name() << " theta=" << theta;
      EXPECT_NEAR(sink.pairs()[0].sim, 1.0, 1e-9);
    }
  }
}

// θ = 1 with λ > 0 gives τ = 0: only exact ties in time can pair, and
// entries even one instant older must be pruned.
TEST(StreamIndexTest, ZeroHorizonPairsOnlyTies) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(1.0, 0.5, &params));
  EXPECT_EQ(params.tau, 0.0);
  SparseVector v = UnitVec({{3, 2.0}});  // single coordinate: dot exactly 1
  for (Scheme s : {Scheme::kInv, Scheme::kL2, Scheme::kL2ap}) {
    auto index = Make(s, params);
    CollectorSink sink;
    index->ProcessArrival(Item(0, 5.0, v), &sink);
    index->ProcessArrival(Item(1, 5.0, v), &sink);  // tie → sim = 1 ≥ θ
    index->ProcessArrival(Item(2, 5.5, v), &sink);  // later → below θ
    const auto got = PairSet(sink.pairs());
    EXPECT_TRUE(got.count({0, 1})) << index->name();
    EXPECT_EQ(got.size(), 1u) << index->name();
  }
}

// Every τ a vector on dim 5 arrives, exactly τ after the last one, and
// between two of them seven fillers arrive on three dims of their own,
// whose lists die and are erased. τ = 8 keeps every timestamp exact.
Stream HorizonRecurrenceStream(Timestamp tau) {
  Stream stream;
  for (int k = 0; k <= 12; ++k) {
    const Timestamp t = k * tau;
    stream.push_back(Item(stream.size(), t, UnitVec({{5, 1.0}})));
    for (int j = 1; j < 8; ++j) {
      const DimId d = static_cast<DimId>(1000 + 3 * stream.size());
      stream.push_back(Item(stream.size(), t + j * tau / 8,
                            UnitVec({{d, 1.0}, {d + 1, 1.0}, {d + 2, 1.0}})));
    }
  }
  return stream;
}

// A dim that recurs at exactly newest − τ sits on the horizon, which
// OutsideHorizon keeps, so the dead-list erasure must keep its list
// while the fillers' lists around it are erased. Under a sliding window
// the boundary pair has sim = dot = 1 and must be emitted; under the
// exponential decay it sits on θ, so the check there is that every
// boundary posting is still scanned and the pairs equal the oracle's.
TEST(StreamIndexTest, DimRecurringOnTheHorizonStillPairs) {
  const double theta = 0.5;
  const Timestamp tau = 8.0;
  const Stream stream = HorizonRecurrenceStream(tau);

  const DecayFunction window = DecayFunction::SlidingWindow(tau);
  CollectorSink oracle;
  BruteForceDecayJoin(stream, theta, window, &oracle);
  ASSERT_EQ(oracle.pairs().size(), 12u);
  StreamInvIndex inv(theta, window);
  StreamL2Index l2(theta, window);
  for (StreamIndex* index : std::vector<StreamIndex*>{&inv, &l2}) {
    CollectorSink sink;
    for (const StreamItem& item : stream) index->ProcessArrival(item, &sink);
    EXPECT_EQ(PairSet(sink.pairs()), PairSet(oracle.pairs())) << index->name();
    EXPECT_GT(index->posting_lists().lists_erased(), 0u) << index->name();
  }

  DecayParams params;
  ASSERT_TRUE(DecayParams::FromApplicationSpec(theta, tau, &params));
  ASSERT_EQ(params.tau, tau);
  const auto expected = PairSet(BruteForceStreamJoinSorted(stream, params));
  for (Scheme s : {Scheme::kInv, Scheme::kL2, Scheme::kL2ap}) {
    auto index = Make(s, params);
    CollectorSink sink;
    for (const StreamItem& item : stream) index->ProcessArrival(item, &sink);
    EXPECT_EQ(PairSet(sink.pairs()), expected) << index->name();
    // Each dim-5 arrival scans the one posting τ before it.
    EXPECT_EQ(index->stats().entries_traversed, 12u) << index->name();
    EXPECT_GT(index->posting_lists().lists_erased(), 0u) << index->name();
  }
}

// The L2 index must traverse no more entries than INV on the same stream
// (it prunes; INV does not) — the Figure 6 ordering.
TEST(StreamIndexTest, L2TraversesNoMoreThanInv) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.01, &params));
  RandomStreamSpec spec;
  spec.n = 400;
  spec.dims = 30;
  spec.seed = 31;
  const Stream stream = RandomStream(spec);

  RunStats inv_stats, l2_stats;
  RunStreamIndex(Scheme::kInv, params, stream, &inv_stats);
  RunStreamIndex(Scheme::kL2, params, stream, &l2_stats);
  EXPECT_LE(l2_stats.entries_traversed, inv_stats.entries_traversed);
  EXPECT_LE(l2_stats.entries_indexed, inv_stats.entries_indexed);
}

TEST(StreamIndexTest, ClearResetsState) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.01, &params));
  SparseVector v = UnitVec({{0, 1.0}});
  for (Scheme s : {Scheme::kInv, Scheme::kL2, Scheme::kL2ap}) {
    auto index = Make(s, params);
    CollectorSink sink;
    index->ProcessArrival(Item(0, 0.0, v), &sink);
    index->Clear();
    EXPECT_EQ(index->live_posting_entries(), 0u) << index->name();
    // After Clear, an identical vector finds no partner.
    CollectorSink sink2;
    index->ProcessArrival(Item(1, 0.1, v), &sink2);
    EXPECT_TRUE(sink2.pairs().empty()) << index->name();
  }
}

// The framework-layer batch API (for pre-validated items with ids already
// assigned) matches per-item pushes, and skips a time-order violation
// inside a batch instead of failing the batch.
TEST(StreamingJoinTest, PushBatchMatchesPerItemPushAndSkipsRegressions) {
  RandomStreamSpec spec;
  spec.n = 500;
  spec.dims = 30;
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.5;
  spec.seed = 23;
  const Stream stream = RandomStream(spec);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));

  StreamingJoin batched(std::make_unique<StreamL2Index>(params));
  CollectorSink batch_sink;
  EXPECT_EQ(batched.PushBatch(stream, &batch_sink), stream.size());

  StreamingJoin itemized(std::make_unique<StreamL2Index>(params));
  CollectorSink item_sink;
  for (const StreamItem& item : stream) {
    EXPECT_TRUE(itemized.Push(item, &item_sink));
  }
  EXPECT_FALSE(batch_sink.pairs().empty()) << "vacuous test stream";
  EXPECT_EQ(batch_sink.pairs().size(), item_sink.pairs().size());
  EXPECT_EQ(PairSet(batch_sink.pairs()), PairSet(item_sink.pairs()));

  Stream bad;
  bad.push_back(Item(stream.back().id + 1, stream.back().ts - 1.0,
                     UnitVec({{1, 1.0}})));
  bad.push_back(Item(stream.back().id + 2, stream.back().ts + 1.0,
                     UnitVec({{1, 1.0}})));
  EXPECT_EQ(batched.PushBatch(bad, &batch_sink), 1u);
  EXPECT_EQ(batched.last_ts(), stream.back().ts + 1.0);
}

}  // namespace
}  // namespace sssj
