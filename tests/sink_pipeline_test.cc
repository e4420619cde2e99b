// Composable sink pipeline (core/sinks.h): Tee/Filter/TopK/Sampling
// verified against CollectorSink ground truth, plus chain composition
// through a real engine, and the thread-safe ConcurrentCollectingSink.
#include "core/sinks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "core/engine.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

ResultPair MakePair(VectorId a, VectorId b, double dot, double sim) {
  ResultPair p;
  p.a = a;
  p.b = b;
  p.dot = dot;
  p.sim = sim;
  return p;
}

// A seeded batch of pairs with distinct sims, used as ground truth.
std::vector<ResultPair> SamplePairs(size_t n) {
  std::vector<ResultPair> pairs;
  Rng rng(17);
  for (size_t i = 0; i < n; ++i) {
    const double sim = 0.5 + 0.5 * rng.NextDouble();
    pairs.push_back(MakePair(i, i + n, sim + 1e-3, sim));
  }
  return pairs;
}

TEST(TeeSinkTest, FansOutToEveryOutputInOrder) {
  CollectorSink a, b;
  CountingSink c;
  TeeSink tee({&a, &b});
  tee.Add(&c);
  EXPECT_EQ(tee.num_outputs(), 3u);
  const auto pairs = SamplePairs(20);
  for (const ResultPair& p : pairs) tee.Emit(p);
  ASSERT_EQ(a.pairs().size(), pairs.size());
  ASSERT_EQ(b.pairs().size(), pairs.size());
  EXPECT_EQ(c.count(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(a.pairs()[i].a, pairs[i].a);
    EXPECT_EQ(b.pairs()[i].a, pairs[i].a);
    EXPECT_EQ(a.pairs()[i].sim, pairs[i].sim);
  }
}

TEST(TeeSinkTest, OwnedOutputsLiveWithTheTee) {
  auto owned = std::make_unique<CountingSink>();
  CountingSink* raw = owned.get();
  TeeSink tee;
  tee.Own(std::move(owned));
  tee.Add(nullptr);  // ignored, not a crash
  tee.Emit(MakePair(1, 2, 0.9, 0.8));
  EXPECT_EQ(raw->count(), 1u);
}

TEST(FilterSinkTest, ForwardsExactlyThePredicateMatches) {
  const auto pairs = SamplePairs(50);
  CollectorSink expected;
  for (const ResultPair& p : pairs) {
    if (p.sim >= 0.75) expected.Emit(p);
  }

  CollectorSink got;
  FilterSink filter([](const ResultPair& p) { return p.sim >= 0.75; }, &got);
  for (const ResultPair& p : pairs) filter.Emit(p);

  ASSERT_EQ(got.pairs().size(), expected.pairs().size());
  for (size_t i = 0; i < got.pairs().size(); ++i) {
    EXPECT_EQ(got.pairs()[i].a, expected.pairs()[i].a);
    EXPECT_EQ(got.pairs()[i].sim, expected.pairs()[i].sim);
  }
  EXPECT_EQ(filter.passed(), expected.pairs().size());
  EXPECT_EQ(filter.dropped(), pairs.size() - expected.pairs().size());
}

TEST(FilterSinkTest, EmptyPredicatePassesEverything) {
  CollectorSink got;
  FilterSink filter(FilterSink::Predicate(), &got);
  const auto pairs = SamplePairs(10);
  for (const ResultPair& p : pairs) filter.Emit(p);
  EXPECT_EQ(got.pairs().size(), pairs.size());
  EXPECT_EQ(filter.dropped(), 0u);
}

TEST(TopKSinkTest, KeepsExactlyTheKBestBySim) {
  const auto pairs = SamplePairs(100);
  // Ground truth: sort a copy descending by sim and take the top 7.
  std::vector<ResultPair> expected = pairs;
  std::sort(expected.begin(), expected.end(),
            [](const ResultPair& x, const ResultPair& y) {
              return x.sim > y.sim;
            });
  expected.resize(7);

  TopKSink top(7);
  for (const ResultPair& p : pairs) top.Emit(p);
  EXPECT_EQ(top.seen(), pairs.size());
  const auto got = top.TopPairs();
  ASSERT_EQ(got.size(), 7u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, expected[i].a) << i;
    EXPECT_EQ(got[i].sim, expected[i].sim) << i;
    if (i > 0) {
      EXPECT_LE(got[i].sim, got[i - 1].sim);
    }
  }
}

TEST(TopKSinkTest, FewerThanKKeepsAll) {
  TopKSink top(10);
  const auto pairs = SamplePairs(4);
  for (const ResultPair& p : pairs) top.Emit(p);
  EXPECT_EQ(top.size(), 4u);
  EXPECT_EQ(top.TopPairs().size(), 4u);
}

TEST(TopKSinkTest, ZeroKKeepsNothing) {
  TopKSink top(0);
  top.Emit(MakePair(1, 2, 1.0, 1.0));
  EXPECT_EQ(top.size(), 0u);
  EXPECT_EQ(top.seen(), 1u);
}

TEST(TopKSinkTest, ClearResets) {
  TopKSink top(3);
  for (const ResultPair& p : SamplePairs(5)) top.Emit(p);
  top.Clear();
  EXPECT_EQ(top.size(), 0u);
  EXPECT_EQ(top.seen(), 0u);
}

TEST(SamplingSinkTest, ProbabilityEndpointsAreExact) {
  const auto pairs = SamplePairs(40);
  CollectorSink all, none;
  SamplingSink keep_all(1.0, &all);
  SamplingSink keep_none(0.0, &none);
  for (const ResultPair& p : pairs) {
    keep_all.Emit(p);
    keep_none.Emit(p);
  }
  EXPECT_EQ(all.pairs().size(), pairs.size());
  EXPECT_EQ(keep_all.forwarded(), pairs.size());
  EXPECT_TRUE(none.pairs().empty());
  EXPECT_EQ(keep_none.seen(), pairs.size());
}

TEST(SamplingSinkTest, SameSeedSameSample) {
  const auto pairs = SamplePairs(200);
  CollectorSink a, b;
  SamplingSink sa(0.3, &a, /*seed=*/123);
  SamplingSink sb(0.3, &b, /*seed=*/123);
  for (const ResultPair& p : pairs) {
    sa.Emit(p);
    sb.Emit(p);
  }
  ASSERT_EQ(a.pairs().size(), b.pairs().size());
  for (size_t i = 0; i < a.pairs().size(); ++i) {
    EXPECT_EQ(a.pairs()[i].a, b.pairs()[i].a);
  }
  // Roughly 30%: loose bounds, deterministic given the fixed seed.
  EXPECT_GT(a.pairs().size(), 30u);
  EXPECT_LT(a.pairs().size(), 90u);
}

// A full chain — engine → filter → tee → {collector, top-k} — must see
// exactly what a bare CollectorSink sees, modulo the filter predicate.
TEST(SinkPipelineTest, ChainMatchesCollectorGroundTruthThroughEngine) {
  RandomStreamSpec spec;
  spec.n = 300;
  spec.dims = 25;
  spec.seed = 91;
  const Stream stream = RandomStream(spec);

  EngineConfig cfg;
  cfg.theta = 0.6;
  cfg.lambda = 0.05;
  cfg.normalize_inputs = false;

  // Ground truth: everything, via a bare collector.
  CollectorSink all;
  {
    auto engine = *SssjEngine::Make(cfg, &all);
    for (const StreamItem& item : stream) engine->Push(item.ts, item.vec);
    engine->Flush();
  }
  ASSERT_FALSE(all.pairs().empty());

  // Chain run.
  const auto strong = [](const ResultPair& p) { return p.dot >= 0.8; };
  CollectorSink chained;
  TopKSink best(5);
  TeeSink tee({&chained, &best});
  FilterSink filter(strong, &tee);
  {
    auto engine = *SssjEngine::Make(cfg, &filter);
    for (const StreamItem& item : stream) engine->Push(item.ts, item.vec);
    engine->Flush();
  }

  // Filtered collector must equal the filtered ground truth, in order.
  std::vector<ResultPair> expected;
  for (const ResultPair& p : all.pairs()) {
    if (strong(p)) expected.push_back(p);
  }
  ASSERT_EQ(chained.pairs().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(chained.pairs()[i].a, expected[i].a);
    EXPECT_EQ(chained.pairs()[i].b, expected[i].b);
    EXPECT_EQ(chained.pairs()[i].sim, expected[i].sim);  // bit-identical
  }

  // TopK must equal the k best of the filtered ground truth (same
  // tie-break as TopPairs: descending sim, then ascending pair id).
  std::sort(expected.begin(), expected.end(),
            [](const ResultPair& x, const ResultPair& y) {
              if (x.sim != y.sim) return x.sim > y.sim;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  const auto top = best.TopPairs();
  ASSERT_EQ(top.size(), std::min<size_t>(5, expected.size()));
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].sim, expected[i].sim);
  }
}

TEST(ConcurrentCollectingSinkTest, ParallelEmitsAreAllRecorded) {
  ConcurrentCollectingSink sink;
  const int kThreads = 4;
  const int kPerThread = 2500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ResultPair p;
        p.a = static_cast<VectorId>(t);
        p.b = static_cast<VectorId>(kThreads + i);
        p.sim = 1.0;
        sink.Emit(p);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sink.size(), static_cast<size_t>(kThreads * kPerThread));

  std::map<VectorId, int> per_thread;
  for (const ResultPair& p : sink.Snapshot()) ++per_thread[p.a];
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[static_cast<VectorId>(t)], kPerThread);
  }
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.SortedPairs().empty());
}

}  // namespace
}  // namespace sssj
