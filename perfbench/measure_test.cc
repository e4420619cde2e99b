// Pins the two rules every benchmark result leans on: the pair digest
// ignores emission order, and a latency tail is reported only when at
// least ten samples lie beyond it.
#include "measure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {
namespace {

sssj::ResultPair Pair(uint64_t a, uint64_t b, double dot, double sim) {
  sssj::ResultPair p;
  p.a = a;
  p.b = b;
  p.dot = dot;
  p.sim = sim;
  return p;
}

std::vector<sssj::ResultPair> SomePairs() {
  std::vector<sssj::ResultPair> pairs;
  for (uint64_t i = 0; i < 50; ++i) {
    pairs.push_back(Pair(i, i + 7, 0.7 + i * 1e-3, 0.71 + i * 1e-3));
  }
  return pairs;
}

TEST(PairDigestTest, IndependentOfEmissionOrder) {
  std::vector<sssj::ResultPair> pairs = SomePairs();
  PairDigest forward;
  for (const auto& p : pairs) forward.Add(3, p);
  std::mt19937 rng(42);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(pairs.begin(), pairs.end(), rng);
    PairDigest shuffled;
    for (const auto& p : pairs) shuffled.Add(3, p);
    EXPECT_EQ(forward, shuffled);
  }
}

TEST(PairDigestTest, MergeOfSplitsEqualsWhole) {
  const std::vector<sssj::ResultPair> pairs = SomePairs();
  PairDigest whole;
  PairDigest odd;
  PairDigest even;
  for (size_t i = 0; i < pairs.size(); ++i) {
    whole.Add(1, pairs[i]);
    (i % 2 == 0 ? even : odd).Add(1, pairs[i]);
  }
  even.Merge(odd);
  EXPECT_EQ(whole, even);
}

TEST(PairDigestTest, DistinguishesIdsScoresAndTenants) {
  const sssj::ResultPair base = Pair(1, 2, 0.8, 0.75);
  PairDigest reference;
  reference.Add(0, base);

  PairDigest swapped;  // a/b order is not part of the pair's identity
  swapped.Add(0, Pair(2, 1, 0.8, 0.75));
  EXPECT_EQ(reference, swapped);

  PairDigest other_id;
  other_id.Add(0, Pair(1, 3, 0.8, 0.75));
  EXPECT_NE(reference, other_id);

  PairDigest other_bits;  // one ulp off in the score
  other_bits.Add(0, Pair(1, 2, 0.8, std::nextafter(0.75, 1.0)));
  EXPECT_NE(reference, other_bits);

  PairDigest other_tenant;
  other_tenant.Add(1, base);
  EXPECT_NE(reference, other_tenant);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(TailSupported(1000, 100));   // 10 samples beyond p99
  EXPECT_FALSE(TailSupported(999, 100));   // only 9
  EXPECT_TRUE(TailSupported(20, 2));       // median of 20: 10 beyond
  EXPECT_FALSE(TailSupported(19, 2));
  EXPECT_EQ(HighestSupportedTail(999), 10u);     // p90
  EXPECT_EQ(HighestSupportedTail(1000), 100u);   // p99
  EXPECT_EQ(HighestSupportedTail(10000), 1000u); // p99.9
  EXPECT_EQ(HighestSupportedTail(19), 0u);
}

TEST(PercentileTest, LeavesExactlyTheTailAbove) {
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  // p99 of 1..1000 is 990: ten samples (991..1000) lie beyond it.
  EXPECT_EQ(UpperPercentile(sorted, 100), 990.0);
  EXPECT_EQ(UpperPercentile(sorted, 2), 500.0);
  const double p99 = UpperPercentile(sorted, 100);
  EXPECT_EQ(std::count_if(sorted.begin(), sorted.end(),
                          [p99](double v) { return v > p99; }),
            10);
}

TEST(SummaryTest, InterquartileMeanDropsTheOuterQuarters) {
  EXPECT_EQ(InterquartileMean({1, 2, 3, 4, 5, 6, 7, 100}), 4.5);
  EXPECT_EQ(InterquartileMean({3, 1, 2}), 2.0);  // < 4 values: plain mean
  EXPECT_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(SummaryTest, ScaleTimesTouchesOnlyTimes) {
  std::map<std::string, double> m = {{"a.save_ms", 4.0},
                                     {"a.self_ns_per_push", 8.0},
                                     {"a.bytes_per_session", 6.0},
                                     {"a.samples", 10.0}};
  ScaleTimes(&m, 2.0);
  EXPECT_EQ(m["a.save_ms"], 2.0);
  EXPECT_EQ(m["a.self_ns_per_push"], 8.0);  // the unit is not the suffix
  EXPECT_EQ(m["a.bytes_per_session"], 6.0);
  EXPECT_EQ(m["a.samples"], 10.0);
}

TEST(PercentileTest, Names) {
  EXPECT_EQ(PercentileName(2), "p50");
  EXPECT_EQ(PercentileName(10), "p90");
  EXPECT_EQ(PercentileName(100), "p99");
  EXPECT_EQ(PercentileName(1000), "p99.9");
}

}  // namespace
}  // namespace perfbench
