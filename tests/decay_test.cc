// DecayFunction families and the STR-L2 / STR-INV indexes under them
// (the paper's future-work extension), verified against the generalized
// brute-force oracle, and the exponential family pinned bit for bit to
// the paper's DecayParams constructors.
#include "core/decay.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>

#include "core/brute_force.h"
#include "data/profiles.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::Item;
using ::sssj::testing::PairSet;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

TEST(DecayFunctionTest, ExponentialMatchesClosedForm) {
  const DecayFunction f = DecayFunction::Exponential(0.2);
  EXPECT_DOUBLE_EQ(f.Eval(0.0), 1.0);
  EXPECT_NEAR(f.Eval(5.0), std::exp(-1.0), 1e-15);
  EXPECT_NEAR(f.Horizon(0.5), std::log(2.0) / 0.2, 1e-12);
}

TEST(DecayFunctionTest, PolynomialMatchesClosedForm) {
  const DecayFunction f = DecayFunction::Polynomial(2.0, 4.0);
  EXPECT_DOUBLE_EQ(f.Eval(0.0), 1.0);
  EXPECT_NEAR(f.Eval(4.0), 0.25, 1e-15);  // (1+1)^-2
  // Horizon: f(τ) = θ.
  const double tau = f.Horizon(0.25);
  EXPECT_NEAR(f.Eval(tau), 0.25, 1e-12);
}

TEST(DecayFunctionTest, SlidingWindowIsStep) {
  const DecayFunction f = DecayFunction::SlidingWindow(10.0);
  EXPECT_DOUBLE_EQ(f.Eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f.Eval(10.0), 1.0);  // boundary inclusive
  EXPECT_DOUBLE_EQ(f.Eval(10.0001), 0.0);
  EXPECT_DOUBLE_EQ(f.Horizon(0.7), 10.0);
}

TEST(DecayFunctionTest, AllFamiliesMonotoneAndBounded) {
  const std::vector<DecayFunction> fams = {
      DecayFunction::Exponential(0.05),
      DecayFunction::Polynomial(1.5, 2.0),
      DecayFunction::SlidingWindow(7.0),
  };
  for (const DecayFunction& f : fams) {
    double prev = 1.0;
    for (double dt = 0.0; dt <= 50.0; dt += 0.5) {
      const double v = f.Eval(dt);
      EXPECT_LE(v, prev + 1e-15) << f.ToString() << " at " << dt;
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      prev = v;
    }
  }
}

TEST(DecayFunctionTest, HorizonIsCorrectCutoff) {
  // Eval(horizon) >= theta and Eval(horizon·1.01) < theta for strictly
  // decreasing families.
  for (const DecayFunction& f : {DecayFunction::Exponential(0.1),
                                 DecayFunction::Polynomial(2.0, 3.0)}) {
    for (double theta : {0.3, 0.6, 0.9}) {
      const double tau = f.Horizon(theta);
      EXPECT_GE(f.Eval(tau) + 1e-12, theta) << f.ToString();
      EXPECT_LT(f.Eval(tau * 1.01), theta) << f.ToString();
    }
  }
}

TEST(DecayFunctionTest, ZeroRateMeansInfiniteHorizon) {
  EXPECT_TRUE(std::isinf(DecayFunction::Exponential(0.0).Horizon(0.5)));
  EXPECT_TRUE(std::isinf(DecayFunction::Polynomial(0.0).Horizon(0.5)));
}

TEST(DecayFunctionTest, NegativeGapTreatedAsAbsolute) {
  const DecayFunction f = DecayFunction::Exponential(0.1);
  EXPECT_DOUBLE_EQ(f.Eval(-3.0), f.Eval(3.0));
}

// Exponential generalized indexes must agree exactly with the dedicated
// STR implementation's semantics (same oracle).
TEST(GeneralizedIndexTest, ExponentialReducesToPaperSemantics) {
  RandomStreamSpec spec;
  spec.n = 250;
  spec.dims = 30;
  spec.seed = 71;
  const Stream stream = RandomStream(spec);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  const DecayFunction f = DecayFunction::Exponential(params.lambda);

  StreamL2Index index(params.theta, f);
  CollectorSink sink;
  for (const StreamItem& item : stream) index.ProcessArrival(item, &sink);

  CollectorSink oracle;
  BruteForceStreamJoin(stream, params, &oracle);
  EXPECT_EQ(PairSet(sink.pairs()), PairSet(oracle.pairs()));
}

// Tiny blocks and tails, so short test streams freeze, amend and expire
// frozen blocks many times over.
TieredStorageOptions TinyBlockTiers(bool enabled) {
  TieredStorageOptions tiered;
  tiered.enabled = enabled;
  tiered.block_entries = 8;
  tiered.dormant_tail_entries = 2;
  tiered.dormant_after_appends = 4;
  tiered.cold_freeze_quantum = 2;
  return tiered;
}

struct IndexRun {
  std::vector<ResultPair> pairs;
  RunStats stats;
};

IndexRun Drive(StreamIndex* index, const Stream& stream) {
  CollectorSink sink;
  for (const StreamItem& item : stream) index->ProcessArrival(item, &sink);
  return {sink.pairs(), index->stats()};
}

// Same pairs in the same emission order, every field's bits equal, and
// every work counter equal (RunStats::ToString prints each one).
void ExpectBitIdentical(const IndexRun& got, const IndexRun& want) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  for (size_t i = 0; i < got.pairs.size(); ++i) {
    const ResultPair& g = got.pairs[i];
    const ResultPair& w = want.pairs[i];
    ASSERT_EQ(g.a, w.a) << "pair " << i;
    ASSERT_EQ(g.b, w.b) << "pair " << i;
    EXPECT_EQ(std::memcmp(&g.ta, &w.ta, sizeof(double)), 0) << "pair " << i;
    EXPECT_EQ(std::memcmp(&g.tb, &w.tb, sizeof(double)), 0) << "pair " << i;
    EXPECT_EQ(std::memcmp(&g.dot, &w.dot, sizeof(double)), 0) << "pair " << i;
    EXPECT_EQ(std::memcmp(&g.sim, &w.sim, sizeof(double)), 0) << "pair " << i;
  }
  EXPECT_EQ(got.stats.ToString(), want.stats.ToString());
}

// The exponential DecayFunction runs the production scan instantiation,
// so StreamL2Index / StreamInvIndex built from (θ, Exponential(λ)) and
// from DecayParams{θ, λ} must agree bit for bit, untiered and tiered.
TEST(GeneralizedIndexTest, ExponentialFunctionPinsDecayParamsBitwise) {
  const Stream streams[] = {
      GenerateProfile(DatasetProfile::kRcv1, /*scale=*/0.2, /*seed=*/5),
      GenerateProfile(DatasetProfile::kWebSpam, /*scale=*/0.12, /*seed=*/5),
  };
  for (const Stream& stream : streams) {
    for (const double lambda : {0.001, 0.01, 0.1}) {
      for (const bool tiered : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << stream.size() << " lambda=" << lambda
                     << " tiered=" << tiered);
        const TieredStorageOptions storage = TinyBlockTiers(tiered);
        DecayParams params;
        ASSERT_TRUE(DecayParams::Make(0.6, lambda, &params));
        const DecayFunction f = DecayFunction::Exponential(lambda);

        StreamL2Index l2_params(params, L2IndexOptions{}, false, storage);
        StreamL2Index l2_function(params.theta, f, storage);
        const IndexRun l2_want = Drive(&l2_params, stream);
        EXPECT_GT(l2_want.pairs.size(), 0u);
        ExpectBitIdentical(Drive(&l2_function, stream), l2_want);

        StreamInvIndex inv_params(params, false, storage);
        StreamInvIndex inv_function(params.theta, f, storage);
        ExpectBitIdentical(Drive(&inv_function, stream),
                           Drive(&inv_params, stream));
      }
    }
  }
}

enum class GenScheme { kInv, kL2 };

class GeneralizedIndexParamTest
    : public ::testing::TestWithParam<
          std::tuple<GenScheme, int /*decay family*/, double, uint64_t>> {
 protected:
  void ExpectMatchesOracle(const TieredStorageOptions& tiered);
};

void GeneralizedIndexParamTest::ExpectMatchesOracle(
    const TieredStorageOptions& tiered) {
  const auto [scheme, family, theta, seed] = GetParam();
  const DecayFunction f =
      family == 0   ? DecayFunction::Exponential(0.03)
      : family == 1 ? DecayFunction::Polynomial(1.2, 5.0)
                    : DecayFunction::SlidingWindow(25.0);

  RandomStreamSpec spec;
  spec.n = 250;
  spec.dims = 30;
  spec.max_gap = 2.0;
  spec.seed = seed;
  const Stream stream = RandomStream(spec);

  CollectorSink sink;
  std::unique_ptr<StreamIndex> index;
  if (scheme == GenScheme::kInv) {
    index = std::make_unique<StreamInvIndex>(theta, f, tiered);
  } else {
    index = std::make_unique<StreamL2Index>(theta, f, tiered);
  }
  for (const StreamItem& item : stream) index->ProcessArrival(item, &sink);

  CollectorSink oracle;
  BruteForceDecayJoin(stream, theta, f, &oracle);

  const auto got = PairSet(sink.pairs());
  const auto want_pairs = oracle.pairs();
  const double eps = 1e-9;
  for (const ResultPair& p : want_pairs) {
    if (p.sim >= theta + eps) {
      EXPECT_TRUE(got.count({p.a, p.b}))
          << "missing " << p.ToString() << " under " << f.ToString();
    }
  }
  const auto want = PairSet(want_pairs);
  for (const ResultPair& p : sink.pairs()) {
    EXPECT_TRUE(want.count({p.a, p.b}))
        << "spurious " << p.ToString() << " under " << f.ToString();
  }
}

TEST_P(GeneralizedIndexParamTest, MatchesGeneralizedOracle) {
  ExpectMatchesOracle(TieredStorageOptions{});
}

// Tiny frozen blocks: every decay family also runs the frozen-block scans.
TEST_P(GeneralizedIndexParamTest, TieredMatchesGeneralizedOracle) {
  ExpectMatchesOracle(TinyBlockTiers(true));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneralizedIndexParamTest,
    ::testing::Combine(::testing::Values(GenScheme::kInv, GenScheme::kL2),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(0.4, 0.7, 0.9),
                       ::testing::Values(81u, 82u)));

// The sliding-window family makes StreamL2Index a classic windowed
// similarity join: a pair inside the window is judged by pure cosine.
TEST(GeneralizedIndexTest, SlidingWindowKeepsFullSimilarityInWindow) {
  const DecayFunction f = DecayFunction::SlidingWindow(5.0);
  StreamL2Index index(0.9, f);
  CollectorSink sink;
  SparseVector v = UnitVec({{1, 1.0}, {2, 1.0}});
  index.ProcessArrival(Item(0, 0.0, v), &sink);
  index.ProcessArrival(Item(1, 4.9, v), &sink);   // inside window: sim = 1
  index.ProcessArrival(Item(2, 10.5, v), &sink);  // outside both windows? 10.5-4.9=5.6 > 5
  ASSERT_EQ(sink.pairs().size(), 1u);
  EXPECT_NEAR(sink.pairs()[0].sim, 1.0, 1e-12);
}

TEST(GeneralizedIndexTest, PolynomialHasHeavierTailBeyondHorizon) {
  // Calibrate both families to the same horizon at θ = 0.5. Within the
  // horizon the exponential dominates (log-poly is convex, below the
  // chord); beyond it the polynomial's heavy tail keeps more similarity —
  // the qualitative difference an application picks the family by.
  const double theta = 0.5;
  const DecayFunction exp_f = DecayFunction::Exponential(0.1);
  const double tau = exp_f.Horizon(theta);
  const double alpha = 1.0;
  const double scale = tau / (std::pow(theta, -1.0 / alpha) - 1.0);
  const DecayFunction poly_f = DecayFunction::Polynomial(alpha, scale);
  ASSERT_NEAR(poly_f.Horizon(theta), tau, 1e-9);
  EXPECT_DOUBLE_EQ(poly_f.Eval(0.0), exp_f.Eval(0.0));
  EXPECT_LT(poly_f.Eval(tau / 2), exp_f.Eval(tau / 2));  // convex in-horizon
  EXPECT_GT(poly_f.Eval(3 * tau), exp_f.Eval(3 * tau));  // heavy tail
  EXPECT_GT(poly_f.Eval(10 * tau), exp_f.Eval(10 * tau));
}

}  // namespace
}  // namespace sssj
