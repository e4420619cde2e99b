// MB framework (Algorithm 1 + §6.1 two-window refinement) against the
// sliding-window oracle, plus window-mechanics unit tests.
#include "stream/minibatch.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "index/inv_index.h"
#include "index/prefix_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::Item;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

enum class Scheme { kInv, kAp, kL2ap, kL2 };

MiniBatchJoin::IndexFactory FactoryFor(Scheme s, double theta) {
  switch (s) {
    case Scheme::kInv:
      return [theta] { return std::make_unique<InvIndex>(theta); };
    case Scheme::kAp:
      return [theta] { return std::make_unique<ApIndex>(theta); };
    case Scheme::kL2ap:
      return [theta] { return std::make_unique<L2apIndex>(theta); };
    case Scheme::kL2:
      return [theta] { return std::make_unique<L2Index>(theta); };
  }
  return nullptr;
}

std::vector<ResultPair> RunMb(Scheme s, const DecayParams& params,
                              const Stream& stream) {
  MiniBatchJoin mb(params, FactoryFor(s, params.theta));
  CollectorSink sink;
  for (const StreamItem& item : stream) {
    EXPECT_TRUE(mb.Push(item, &sink));
  }
  mb.Flush(&sink);
  return sink.pairs();
}

class MiniBatchParamTest
    : public ::testing::TestWithParam<
          std::tuple<Scheme, double, double, uint64_t>> {};

TEST_P(MiniBatchParamTest, MatchesSlidingWindowOracle) {
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

  const auto pairs = RunMb(scheme, params, stream);
  ExpectMatchesOracle(stream, params, pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MiniBatchParamTest,
    ::testing::Combine(::testing::Values(Scheme::kInv, Scheme::kAp,
                                         Scheme::kL2ap, Scheme::kL2),
                       ::testing::Values(0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(0.001, 0.05, 0.5),
                       ::testing::Values(21u, 22u)));

TEST(MiniBatchTest, LambdaZeroDegeneratesToBatchApss) {
  // τ = ∞: one window, everything reported at Flush.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.0, &params));
  RandomStreamSpec spec;
  spec.n = 150;
  spec.dims = 25;
  spec.seed = 30;
  const Stream stream = RandomStream(spec);

  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.7));
  CollectorSink sink;
  for (const StreamItem& item : stream) mb.Push(item, &sink);
  EXPECT_TRUE(sink.pairs().empty());  // nothing until the window closes
  EXPECT_EQ(mb.pending_current(), stream.size());
  mb.Flush(&sink);
  ExpectMatchesOracle(stream, params, sink.pairs());
}

TEST(MiniBatchTest, CrossWindowPairsReported) {
  // Windows sit on the grid: [0, τ), [τ, 2τ), …
  // An unrelated anchor item starts window 1; the similar pair straddles
  // the boundary (0.9τ and 1.1τ, Δt = 0.2τ → sim = θ^0.2 ≥ θ).
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.8, 0.01, &params));
  SparseVector v = UnitVec({{1, 0.5}, {2, 0.5}});
  Stream stream = {Item(0, 0.0, UnitVec({{9, 1.0}})),
                   Item(1, params.tau * 0.9, v),
                   Item(2, params.tau * 1.1, v)};
  const auto pairs = RunMb(Scheme::kL2, params, stream);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, 1u);
  EXPECT_EQ(pairs[0].b, 2u);
}

TEST(MiniBatchTest, DecayFilterDropsCrossWindowFarPairs) {
  // MB tests pairs up to 2τ apart; ApplyDecay must reject those beyond τ.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.8, 0.01, &params));
  SparseVector v = UnitVec({{1, 1.0}});
  Stream stream = {Item(0, 0.0, v), Item(1, params.tau * 1.8, v)};
  const auto pairs = RunMb(Scheme::kInv, params, stream);
  EXPECT_TRUE(pairs.empty());
}

TEST(MiniBatchTest, RejectsOutOfOrderTimestamps) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  MiniBatchJoin mb(params, FactoryFor(Scheme::kInv, 0.5));
  CollectorSink sink;
  EXPECT_TRUE(mb.Push(Item(0, 10.0, UnitVec({{1, 1.0}})), &sink));
  EXPECT_FALSE(mb.Push(Item(1, 5.0, UnitVec({{1, 1.0}})), &sink));
  // Equal timestamps are fine.
  EXPECT_TRUE(mb.Push(Item(1, 10.0, UnitVec({{1, 1.0}})), &sink));
}

TEST(MiniBatchTest, EmptyWindowsInTheMiddleAreHandled) {
  // A long silent gap spans several windows; the loop must close them all
  // without emitting garbage.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));  // τ ≈ 6.93
  SparseVector v = UnitVec({{1, 1.0}});
  Stream stream = {Item(0, 0.0, v), Item(1, params.tau * 7.5, v),
                   Item(2, params.tau * 7.6, v)};
  const auto pairs = RunMb(Scheme::kL2, params, stream);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, 1u);
  EXPECT_EQ(pairs[0].b, 2u);
}

TEST(MiniBatchTest, ThetaOneZeroHorizonOnlyPairsTies) {
  // θ = 1, λ > 0 → τ = 0: only simultaneous identical vectors qualify.
  // Regression: the window-advance logic must not loop or divide by the
  // zero-length window.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(1.0, 0.5, &params));
  EXPECT_EQ(params.tau, 0.0);
  MiniBatchJoin mb(params, FactoryFor(Scheme::kInv, 1.0));
  CollectorSink sink;
  SparseVector v = UnitVec({{1, 3.0}});  // single-coordinate: dot is exact 1
  mb.Push(Item(0, 5.0, v), &sink);
  mb.Push(Item(1, 5.0, v), &sink);  // tie: sim = 1 ≥ θ
  EXPECT_EQ(mb.pending_current(), 2u);
  mb.Push(Item(2, 6.0, v), &sink);  // later: decayed below 1
  // Each distinct ts is a window, and no two of them pair: 6.0 closes the
  // tie's window and the one after it, emitting the tie.
  EXPECT_EQ(mb.pending_previous(), 0u);
  EXPECT_EQ(mb.pending_current(), 1u);
  EXPECT_EQ(sink.pairs().size(), 1u);
  mb.Push(Item(3, 1e9, v), &sink);  // far future
  mb.Flush(&sink);
  ASSERT_EQ(sink.pairs().size(), 1u);
  EXPECT_EQ(sink.pairs()[0].a, 0u);
  EXPECT_EQ(sink.pairs()[0].b, 1u);
}

TEST(MiniBatchTest, HugeGapIsConstantTime) {
  // A gap spanning ~10^12 windows must not iterate per window.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.99, 0.1, &params));  // τ ≈ 0.1
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.99));
  CollectorSink sink;
  SparseVector v = UnitVec({{1, 1.0}});
  mb.Push(Item(0, 0.0, v), &sink);
  mb.Push(Item(1, 0.05, v), &sink);
  mb.Push(Item(2, 1e11, v), &sink);  // would previously take ~10^12 steps
  mb.Push(Item(3, 1e11 + 0.01, v), &sink);
  mb.Flush(&sink);
  const auto got = ::sssj::testing::PairSet(sink.pairs());
  EXPECT_TRUE(got.count({0, 1}));
  EXPECT_TRUE(got.count({2, 3}));
  EXPECT_EQ(got.size(), 2u);
}

TEST(MiniBatchTest, WindowIndexIsTheGridCell) {
  EXPECT_EQ(MbWindowIndex(0.0, 2.0), 0.0);
  EXPECT_EQ(MbWindowIndex(1.999, 2.0), 0.0);
  EXPECT_EQ(MbWindowIndex(2.0, 2.0), 1.0);
  EXPECT_EQ(MbWindowIndex(-0.001, 2.0), -1.0);
  EXPECT_EQ(MbWindowIndex(-2.0, 2.0), -1.0);
  EXPECT_EQ(MbWindowIndex(-2.001, 2.0), -2.0);
  // τ = ∞ (λ = 0): one window for every ts.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(MbWindowIndex(-1e9, inf), 0.0);
  EXPECT_EQ(MbWindowIndex(1e9, inf), 0.0);
  // τ = 0 (θ = 1): one window per distinct ts.
  EXPECT_EQ(MbWindowIndex(5.0, 0.0), 5.0);
  EXPECT_EQ(MbWindowIndex(-5.0, 0.0), -5.0);
}

TEST(MiniBatchTest, FirstArrivalOffTheGridKeepsTheGrid) {
  // The first item lands at 0.7τ, in window 0; 1.2τ is in window 1, so it
  // closes window 0 although it is less than τ after the first item.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.8, 0.01, &params));
  const double tau = params.tau;
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.8));
  CollectorSink sink;
  SparseVector v = UnitVec({{1, 0.5}, {2, 0.5}});
  ASSERT_TRUE(mb.Push(Item(0, 0.7 * tau, v), &sink));
  ASSERT_TRUE(mb.Push(Item(1, 0.9 * tau, v), &sink));
  EXPECT_EQ(mb.pending_current(), 2u);
  ASSERT_TRUE(mb.Push(Item(2, 1.2 * tau, v), &sink));
  EXPECT_EQ(mb.pending_previous(), 2u);
  EXPECT_EQ(mb.pending_current(), 1u);
  ASSERT_TRUE(mb.Push(Item(3, 2.1 * tau, v), &sink));  // window 2: adjacent
  EXPECT_EQ(mb.pending_previous(), 1u);
  EXPECT_EQ(mb.pending_current(), 1u);
  mb.Flush(&sink);
  const auto got = ::sssj::testing::PairSet(sink.pairs());
  // Δt ≤ τ: {0,1}, {0,2}, {1,2}, {2,3}; {1,3} is 1.2τ apart.
  EXPECT_EQ(got, (std::set<std::pair<VectorId, VectorId>>{
                     {0, 1}, {0, 2}, {1, 2}, {2, 3}}));
}

TEST(MiniBatchTest, NegativeTimestampsUseTheGrid) {
  // A stream shifted to end 0.3τ before 0: windows k < 0 behave as any
  // other, and the output still matches the oracle.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.1, &params));
  RandomStreamSpec spec;
  spec.n = 200;
  spec.dims = 25;
  spec.seed = 46;
  Stream stream = RandomStream(spec);
  const double shift = stream.back().ts + 0.3 * params.tau;
  for (StreamItem& item : stream) item.ts -= shift;
  ASSERT_LT(stream.back().ts, 0.0);
  ExpectMatchesOracle(stream, params, RunMb(Scheme::kL2, params, stream));

  // −0.1τ and 0.1τ straddle the boundary at 0: one close.
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.6));
  CollectorSink sink;
  SparseVector v = UnitVec({{1, 1.0}});
  ASSERT_TRUE(mb.Push(Item(0, -0.1 * params.tau, v), &sink));
  ASSERT_TRUE(mb.Push(Item(1, 0.1 * params.tau, v), &sink));
  EXPECT_EQ(mb.pending_previous(), 1u);
  EXPECT_EQ(mb.pending_current(), 1u);
}

TEST(MiniBatchTest, ZeroItemSeedTakesItsFirstPushWindow) {
  // A started core with no items (the fleet's zero-item seed) has no
  // current window: its first push opens that push's grid window and
  // closes nothing, and the next grid boundary closes it, less than τ
  // after that push.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  const double tau = params.tau;
  SparseVector v = UnitVec({{1, 1.0}});
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.5));
  mb.RestoreClock(30.0 * tau, /*started=*/true);
  CollectorSink sink;
  EXPECT_FALSE(mb.Push(Item(0, 29.0 * tau, v), &sink));  // behind the clock
  ASSERT_TRUE(mb.Push(Item(0, 40.3 * tau, v), &sink));
  ASSERT_TRUE(mb.Push(Item(1, 40.9 * tau, v), &sink));
  EXPECT_EQ(mb.pending_previous(), 0u);
  EXPECT_EQ(mb.pending_current(), 2u);
  ASSERT_TRUE(mb.Push(Item(2, 41.1 * tau, v), &sink));
  EXPECT_EQ(mb.pending_previous(), 2u);
  EXPECT_EQ(mb.pending_current(), 1u);

  // Seeded or fresh, a core fed the same items emits the same pairs.
  RandomStreamSpec spec;
  spec.n = 120;
  spec.dims = 20;
  spec.seed = 47;
  Stream stream = RandomStream(spec);
  for (StreamItem& item : stream) item.ts += 40.3 * tau;
  MiniBatchJoin seeded(params, FactoryFor(Scheme::kL2, 0.5));
  seeded.RestoreClock(stream.front().ts, /*started=*/true);
  MiniBatchJoin fresh(params, FactoryFor(Scheme::kL2, 0.5));
  CollectorSink seeded_sink;
  CollectorSink fresh_sink;
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(seeded.Push(item, &seeded_sink));
    ASSERT_TRUE(fresh.Push(item, &fresh_sink));
  }
  seeded.Flush(&seeded_sink);
  fresh.Flush(&fresh_sink);
  ASSERT_FALSE(fresh_sink.pairs().empty());
  ASSERT_EQ(seeded_sink.pairs().size(), fresh_sink.pairs().size());
  for (size_t i = 0; i < fresh_sink.pairs().size(); ++i) {
    EXPECT_EQ(seeded_sink.pairs()[i].a, fresh_sink.pairs()[i].a);
    EXPECT_EQ(seeded_sink.pairs()[i].b, fresh_sink.pairs()[i].b);
    EXPECT_EQ(seeded_sink.pairs()[i].sim, fresh_sink.pairs()[i].sim);
  }
}

TEST(MiniBatchTest, StatsAggregateAcrossWindows) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.5, &params));
  RandomStreamSpec spec;
  spec.n = 120;
  spec.seed = 33;
  const Stream stream = RandomStream(spec);
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.5));
  CollectorSink sink;
  for (const StreamItem& item : stream) mb.Push(item, &sink);
  mb.Flush(&sink);
  EXPECT_EQ(mb.stats().vectors_processed, stream.size());
  EXPECT_GT(mb.stats().index_rebuilds, 1u);  // many windows
}

TEST(MiniBatchTest, BuildsOneIndexPerTauGridClose) {
  // Windows are exactly τ long: a move to the next grid cell closes one
  // window, a move further on closes two, and Flush closes the last two,
  // each with one index build. The count follows from the cells alone.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.1, &params));
  RandomStreamSpec spec;
  spec.n = 400;
  spec.max_gap = 0.4 * params.tau;
  spec.seed = 41;
  Stream stream = RandomStream(spec);
  // One silent gap of several windows.
  for (size_t i = stream.size() / 2; i < stream.size(); ++i) {
    stream[i].ts += 3.5 * params.tau;
  }
  uint64_t closes = 2;  // Flush
  for (size_t i = 1; i < stream.size(); ++i) {
    const double from = MbWindowIndex(stream[i - 1].ts, params.tau);
    const double to = MbWindowIndex(stream[i].ts, params.tau);
    if (to > from) closes += to > from + 1.0 ? 2 : 1;
  }
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, params.theta));
  CollectorSink sink;
  for (const StreamItem& item : stream) ASSERT_TRUE(mb.Push(item, &sink));
  mb.Flush(&sink);
  EXPECT_GT(closes, 10u);  // many windows
  EXPECT_EQ(mb.stats().index_rebuilds, closes);
}

TEST(MiniBatchTest, ReuseAfterFlushDoesNotDoubleCountStats) {
  // Flush's contract says the join is reusable; stats_ used to survive the
  // reset, so a reused join reported run-1 + run-2 aggregates. Counters
  // must restart with the first Push of the new run, while reading stats()
  // right after Flush still gives the finished run's totals.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  RandomStreamSpec spec;
  spec.n = 150;
  spec.seed = 44;
  const Stream stream = RandomStream(spec);

  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.5));
  CollectorSink sink;
  for (const StreamItem& item : stream) mb.Push(item, &sink);
  mb.Flush(&sink);
  const RunStats first_run = mb.stats();
  EXPECT_EQ(first_run.vectors_processed, stream.size());

  // Same stream again (clock restarts with the run): the second run's
  // stats must equal the first run's, not twice them.
  for (const StreamItem& item : stream) ASSERT_TRUE(mb.Push(item, &sink));
  mb.Flush(&sink);
  EXPECT_EQ(mb.stats().vectors_processed, first_run.vectors_processed);
  EXPECT_EQ(mb.stats().pairs_emitted, first_run.pairs_emitted);
  EXPECT_EQ(mb.stats().entries_indexed, first_run.entries_indexed);
  EXPECT_EQ(mb.stats().index_rebuilds, first_run.index_rebuilds);
}

TEST(MiniBatchTest, MemoryBytesTracksWindowsAndPeakIndex) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.01, &params));  // long windows
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.5));
  CollectorSink sink;
  EXPECT_EQ(mb.MemoryBytes(), 0u);
  RandomStreamSpec spec;
  spec.n = 100;
  spec.max_gap = 0.5;
  spec.seed = 45;
  const Stream stream = RandomStream(spec);
  for (const StreamItem& item : stream) mb.Push(item, &sink);
  EXPECT_GT(mb.MemoryBytes(), 0u);  // buffered windows count
  mb.Flush(&sink);
  // Windows drained; the peak per-window index footprint remains visible.
  EXPECT_EQ(mb.pending_current(), 0u);
  EXPECT_EQ(mb.pending_previous(), 0u);
  EXPECT_GT(mb.MemoryBytes(), 0u);
}

TEST(MiniBatchTest, FlushIsIdempotentAndReusable) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.5));
  CollectorSink sink;
  SparseVector v = UnitVec({{1, 1.0}});
  mb.Push(Item(0, 0.0, v), &sink);
  mb.Push(Item(1, 0.1, v), &sink);
  mb.Flush(&sink);
  const size_t after_first = sink.pairs().size();
  EXPECT_EQ(after_first, 1u);
  mb.Flush(&sink);  // nothing new
  EXPECT_EQ(sink.pairs().size(), after_first);
  // Reuse after flush.
  mb.Push(Item(2, 100.0, v), &sink);
  mb.Push(Item(3, 100.05, v), &sink);
  mb.Flush(&sink);
  EXPECT_EQ(sink.pairs().size(), after_first + 1);
}

}  // namespace
}  // namespace sssj
