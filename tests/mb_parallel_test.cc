// Parallel MiniBatch window execution: with num_threads > 1 the query
// phase of every window close fans out across the thread pool, and the
// emitted pair SEQUENCE (order, ids, timestamps, and bit-exact dot/sim
// scores) must be identical to the sequential engine for any thread
// count, for every batch index scheme. The suite name intentionally
// matches the TSan CI filter (MiniBatchParallel), so these tests also run
// under ThreadSanitizer to watch the concurrent const-Query path.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "index/inv_index.h"
#include "index/prefix_index.h"
#include "stream/minibatch.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

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
                              const Stream& stream, size_t num_threads) {
  // A 1-thread pool keeps the sequential path.
  MiniBatchJoin mb(params, FactoryFor(s, params.theta),
                   std::make_shared<ThreadPool>(num_threads));
  CollectorSink sink;
  for (const StreamItem& item : stream) {
    EXPECT_TRUE(mb.Push(item, &sink));
  }
  mb.Flush(&sink);
  return sink.pairs();
}

// Every field of every pair, bit for bit, in the same order.
void ExpectBitIdentical(const std::vector<ResultPair>& a,
                        const std::vector<ResultPair>& b, size_t threads) {
  ASSERT_EQ(a.size(), b.size()) << "pair count differs at " << threads
                                << " threads";
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a) << "i=" << i << " threads=" << threads;
    EXPECT_EQ(a[i].b, b[i].b) << "i=" << i << " threads=" << threads;
    EXPECT_EQ(std::memcmp(&a[i].ta, &b[i].ta, sizeof(Timestamp)), 0)
        << "i=" << i << " threads=" << threads;
    EXPECT_EQ(std::memcmp(&a[i].tb, &b[i].tb, sizeof(Timestamp)), 0)
        << "i=" << i << " threads=" << threads;
    EXPECT_EQ(std::memcmp(&a[i].dot, &b[i].dot, sizeof(double)), 0)
        << "i=" << i << " threads=" << threads;
    EXPECT_EQ(std::memcmp(&a[i].sim, &b[i].sim, sizeof(double)), 0)
        << "i=" << i << " threads=" << threads;
  }
}

class MiniBatchParallelTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(MiniBatchParallelTest, BitIdenticalPairSequenceAcrossThreadCounts) {
  const Scheme scheme = GetParam();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.02, &params));

  RandomStreamSpec spec;
  spec.n = 600;
  spec.dims = 40;
  spec.max_nnz = 7;
  spec.max_gap = 1.0;  // dozens of items per window → parallel path taken
  spec.seed = 77;
  const Stream stream = RandomStream(spec);

  const auto sequential = RunMb(scheme, params, stream, 1);
  ExpectMatchesOracle(stream, params, sequential);
  ASSERT_FALSE(sequential.empty());

  for (const size_t threads : {2u, 4u, 8u}) {
    const auto parallel = RunMb(scheme, params, stream, threads);
    ExpectBitIdentical(sequential, parallel, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, MiniBatchParallelTest,
                         ::testing::Values(Scheme::kInv, Scheme::kAp,
                                           Scheme::kL2ap, Scheme::kL2));

TEST(MiniBatchParallelTest, StatsMatchSequentialRun) {
  // Work counters are folded from per-chunk scratches; the totals must be
  // exactly the sequential ones (the per-query work is identical, only
  // its distribution over threads changes).
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  RandomStreamSpec spec;
  spec.n = 500;
  spec.max_gap = 0.5;
  spec.seed = 78;
  const Stream stream = RandomStream(spec);

  const auto run = [&](size_t threads) {
    MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, params.theta),
                     std::make_shared<ThreadPool>(threads));
    CollectorSink sink;
    for (const StreamItem& item : stream) mb.Push(item, &sink);
    mb.Flush(&sink);
    return mb.stats();
  };
  const RunStats seq = run(1);
  const RunStats par = run(4);
  EXPECT_EQ(par.pairs_emitted, seq.pairs_emitted);
  EXPECT_EQ(par.entries_traversed, seq.entries_traversed);
  EXPECT_EQ(par.candidates_generated, seq.candidates_generated);
  EXPECT_EQ(par.verify_calls, seq.verify_calls);
  EXPECT_EQ(par.full_dots, seq.full_dots);
  EXPECT_EQ(par.l2_prunes, seq.l2_prunes);
  EXPECT_EQ(par.entries_indexed, seq.entries_indexed);
  EXPECT_EQ(par.index_rebuilds, seq.index_rebuilds);
  EXPECT_EQ(par.vectors_processed, seq.vectors_processed);
}

TEST(MiniBatchParallelTest, EnginePlumbsThreadsIntoMiniBatch) {
  // End-to-end through the facade: EngineConfig::num_threads must reach
  // the MB branch and preserve the bit-identical sequence.
  const Stream stream = RandomStream([] {
    RandomStreamSpec spec;
    spec.n = 400;
    spec.dims = 30;
    spec.max_gap = 0.8;
    spec.seed = 79;
    return spec;
  }());

  const auto run = [&](int threads) {
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.index = IndexScheme::kL2ap;
    cfg.theta = 0.5;
    cfg.lambda = 0.05;
    cfg.num_threads = threads;
    CollectorSink sink;
    auto engine_or = SssjEngine::Make(cfg, &sink);
    EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    auto engine = *std::move(engine_or);
    engine->PushBatch(stream);
    engine->Flush();
    return sink.pairs();
  };
  const auto sequential = run(1);
  ASSERT_FALSE(sequential.empty());
  ExpectBitIdentical(sequential, run(4), 4);
}

TEST(MiniBatchParallelTest, TinyWindowsFallBackToSequentialPath) {
  // Windows smaller than the fan-out cutoff keep the sequential loop;
  // output must still match, and the join must not deadlock or misorder.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.5, &params));  // τ ≈ 1.39: tiny windows
  RandomStreamSpec spec;
  spec.n = 200;
  spec.max_gap = 2.0;
  spec.seed = 80;
  const Stream stream = RandomStream(spec);
  const auto sequential = RunMb(Scheme::kInv, params, stream, 1);
  const auto parallel = RunMb(Scheme::kInv, params, stream, 8);
  ExpectBitIdentical(sequential, parallel, 8);
}

TEST(MiniBatchParallelTest, NullPoolRunsTheSequentialPath) {
  // The default (no pool) is the sequential configuration: the same
  // sequence as a 1-thread pool and as a 4-thread one.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.02, &params));
  RandomStreamSpec spec;
  spec.n = 400;
  spec.dims = 40;
  spec.max_gap = 1.0;
  spec.seed = 81;
  const Stream stream = RandomStream(spec);

  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2ap, params.theta));
  CollectorSink sink;
  for (const StreamItem& item : stream) ASSERT_TRUE(mb.Push(item, &sink));
  mb.Flush(&sink);
  ASSERT_FALSE(sink.pairs().empty());
  ExpectBitIdentical(sink.pairs(), RunMb(Scheme::kL2ap, params, stream, 1), 1);
  ExpectBitIdentical(sink.pairs(), RunMb(Scheme::kL2ap, params, stream, 4), 4);
}

TEST(MiniBatchParallelTest, OneSharedPoolServesConcurrentJoins) {
  // JoinService hands one pool to every MB session; two joins pushed
  // from their own threads queue their window closes on it, and each
  // still emits its sequential run's sequence.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.02, &params));
  RandomStreamSpec spec;
  spec.n = 500;
  spec.dims = 40;
  spec.max_gap = 1.0;
  spec.seed = 82;
  const Stream first = RandomStream(spec);
  spec.seed = 83;
  const Stream second = RandomStream(spec);

  const auto pool = std::make_shared<ThreadPool>(4);
  const auto run = [&pool](Scheme scheme, const DecayParams& p,
                           const Stream& stream, CollectorSink* sink) {
    MiniBatchJoin mb(p, FactoryFor(scheme, p.theta), pool);
    for (const StreamItem& item : stream) mb.Push(item, sink);
    mb.Flush(sink);
  };
  CollectorSink first_sink, second_sink;
  std::thread other(run, Scheme::kInv, params, std::cref(first), &first_sink);
  run(Scheme::kL2, params, second, &second_sink);
  other.join();

  ASSERT_FALSE(first_sink.pairs().empty());
  ASSERT_FALSE(second_sink.pairs().empty());
  ExpectBitIdentical(first_sink.pairs(),
                     RunMb(Scheme::kInv, params, first, 1), 4);
  ExpectBitIdentical(second_sink.pairs(),
                     RunMb(Scheme::kL2, params, second, 1), 4);
}

}  // namespace
}  // namespace sssj
