// Tests for the sharded parallel execution layer: determinism of the
// sharded engine against the sequential one, shard-merge parity at the
// index level (pairs *and* work counters), batched ingestion, and the
// thread-safe sink.
#include "index/sharded_stream_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "core/engine.h"
#include "index/stream_l2_index.h"
#include "stream/streaming.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using testing::Item;
using testing::PairSet;
using testing::RandomStream;
using testing::RandomStreamSpec;
using testing::UnitVec;

Stream DenseishStream(uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = 500;
  spec.dims = 30;  // few dims → long posting lists → many candidates
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.5;
  spec.seed = seed;
  return RandomStream(spec);
}

std::vector<ResultPair> RunEngine(const Stream& stream, double theta,
                                  double lambda, int num_threads) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = theta;
  cfg.lambda = lambda;
  cfg.num_threads = num_threads;
  CollectorSink sink;
  auto engine_or = SssjEngine::Make(cfg, &sink);
  EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  auto engine = *std::move(engine_or);
  const BatchPushResult pushed = engine->PushBatch(stream);
  EXPECT_EQ(pushed.accepted, stream.size());
  return sink.SortedPairs();
}

// The acceptance test of the layer: every thread count emits exactly the
// same result-pair set as the sequential engine, with matching
// similarities, on a seeded generator stream.
TEST(ShardedEngineTest, DeterministicAcrossThreadCounts) {
  for (const uint64_t seed : {7u, 21u}) {
    const Stream stream = DenseishStream(seed);
    for (const double theta : {0.5, 0.7, 0.9}) {
      const double lambda = 0.05;
      const auto sequential = RunEngine(stream, theta, lambda, 1);
      for (const int threads : {2, 4}) {
        const auto sharded = RunEngine(stream, theta, lambda, threads);
        ASSERT_EQ(PairSet(sharded), PairSet(sequential))
            << "theta=" << theta << " threads=" << threads
            << " seed=" << seed;
        ASSERT_EQ(sharded.size(), sequential.size());
        for (size_t i = 0; i < sharded.size(); ++i) {
          ASSERT_EQ(sharded[i].a, sequential[i].a);
          ASSERT_EQ(sharded[i].b, sequential[i].b);
          ASSERT_NEAR(sharded[i].sim, sequential[i].sim, 1e-12);
          ASSERT_NEAR(sharded[i].dot, sequential[i].dot, 1e-12);
        }
      }
    }
  }
}

TEST(ShardedEngineTest, MatchesBruteForceOracle) {
  const Stream stream = DenseishStream(3);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = params.theta;
  cfg.lambda = params.lambda;
  cfg.num_threads = 4;
  CollectorSink sink;
  auto engine_or = SssjEngine::Make(cfg, &sink);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  auto engine = *std::move(engine_or);
  engine->PushBatch(stream);
  testing::ExpectMatchesOracle(stream, params, sink.pairs());
}

// Index-level parity: the sharded index must report the same pairs AND do
// the same amount of algorithmic work (the candidate partition preserves
// every pruning decision) as the sequential index.
TEST(ShardedIndexTest, ShardMergeMatchesSequentialIndexAndStats) {
  const Stream stream = DenseishStream(11);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.1, &params));

  StreamL2Index sequential(params);
  ShardedStreamIndex sharded(params, 3);
  CollectorSink seq_sink, shard_sink;
  for (const StreamItem& item : stream) {
    sequential.ProcessArrival(item, &seq_sink);
    sharded.ProcessArrival(item, &shard_sink);
    ASSERT_EQ(sharded.live_posting_entries(),
              sequential.live_posting_entries());
  }

  EXPECT_EQ(PairSet(shard_sink.pairs()), PairSet(seq_sink.pairs()));
  EXPECT_FALSE(seq_sink.pairs().empty()) << "vacuous test stream";

  const RunStats& a = sequential.stats();
  const RunStats& b = sharded.stats();
  EXPECT_EQ(b.vectors_processed, a.vectors_processed);
  EXPECT_EQ(b.entries_traversed, a.entries_traversed);
  EXPECT_EQ(b.candidates_generated, a.candidates_generated);
  EXPECT_EQ(b.l2_prunes, a.l2_prunes);
  EXPECT_EQ(b.verify_calls, a.verify_calls);
  EXPECT_EQ(b.full_dots, a.full_dots);
  EXPECT_EQ(b.pairs_emitted, a.pairs_emitted);
  EXPECT_EQ(b.entries_indexed, a.entries_indexed);
  EXPECT_EQ(b.entries_pruned, a.entries_pruned);
  EXPECT_EQ(b.peak_index_entries, a.peak_index_entries);
  EXPECT_EQ(sharded.residual_count(), sequential.residual_count());
}

TEST(ShardedIndexTest, AblationOptionsPreserveOutput) {
  const Stream stream = DenseishStream(13);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  CollectorSink baseline_sink;
  {
    ShardedStreamIndex index(params, 2);
    for (const StreamItem& item : stream) {
      index.ProcessArrival(item, &baseline_sink);
    }
  }
  for (int mask = 0; mask < 8; ++mask) {
    L2IndexOptions options;
    options.use_remscore_bound = (mask & 1) != 0;
    options.use_l2bound = (mask & 2) != 0;
    options.use_ps1_bound = (mask & 4) != 0;
    ShardedStreamIndex index(params, 4, options);
    CollectorSink sink;
    for (const StreamItem& item : stream) {
      index.ProcessArrival(item, &sink);
    }
    EXPECT_EQ(PairSet(sink.pairs()), PairSet(baseline_sink.pairs()))
        << "options mask " << mask;
  }
}

TEST(ShardedIndexTest, ClearAndMemoryBytes) {
  const Stream stream = DenseishStream(17);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  ShardedStreamIndex index(params, 2);
  CountingSink sink;
  for (const StreamItem& item : stream) index.ProcessArrival(item, &sink);
  EXPECT_GT(index.MemoryBytes(), 0u);
  EXPECT_GT(index.live_posting_entries(), 0u);
  index.Clear();
  EXPECT_EQ(index.live_posting_entries(), 0u);
  EXPECT_EQ(index.residual_count(), 0u);
}

TEST(ShardedEngineTest, PushBatchMatchesPerItemPush) {
  const Stream stream = DenseishStream(19);
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.05;
  cfg.num_threads = 2;

  CollectorSink batch_sink, item_sink;
  auto batch_engine = *SssjEngine::Make(cfg, &batch_sink);
  auto item_engine = *SssjEngine::Make(cfg, &item_sink);
  ASSERT_NE(batch_engine, nullptr);
  ASSERT_NE(item_engine, nullptr);
  EXPECT_EQ(batch_engine->PushBatch(stream).accepted, stream.size());
  for (const StreamItem& item : stream) {
    EXPECT_TRUE(item_engine->Push(item.ts, item.vec).ok());
  }
  EXPECT_EQ(PairSet(batch_sink.pairs()), PairSet(item_sink.pairs()));
  EXPECT_EQ(batch_engine->next_id(), item_engine->next_id());
}

// The framework-layer batch API (for pre-validated items with ids already
// assigned) must match per-item pushes and reject time-order violations.
TEST(StreamingJoinTest, PushBatchOverShardedIndex) {
  Stream stream = DenseishStream(23);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));

  StreamingJoin batched(std::make_unique<ShardedStreamIndex>(params, 2));
  CollectorSink batch_sink;
  EXPECT_EQ(batched.PushBatch(stream, &batch_sink), stream.size());

  StreamingJoin itemized(std::make_unique<ShardedStreamIndex>(params, 2));
  CollectorSink item_sink;
  for (const StreamItem& item : stream) {
    EXPECT_TRUE(itemized.Push(item, &item_sink));
  }
  EXPECT_EQ(PairSet(batch_sink.pairs()), PairSet(item_sink.pairs()));

  // An out-of-order item inside a batch is skipped, not fatal.
  Stream bad;
  bad.push_back(Item(stream.back().id + 1, stream.back().ts - 1.0,
                     UnitVec({{1, 1.0}})));
  bad.push_back(Item(stream.back().id + 2, stream.back().ts + 1.0,
                     UnitVec({{1, 1.0}})));
  EXPECT_EQ(batched.PushBatch(bad, &batch_sink), 1u);
}

TEST(ShardedEngineTest, PushBatchSkipsInvalidItemsAndContinues) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.7;
  cfg.lambda = 0.01;
  cfg.num_threads = 2;
  CollectorSink sink;
  auto engine = *SssjEngine::Make(cfg, &sink);
  ASSERT_NE(engine, nullptr);

  Stream batch;
  batch.push_back(Item(0, 10.0, UnitVec({{1, 1.0}})));
  batch.push_back(Item(1, 5.0, UnitVec({{1, 1.0}})));  // time goes backwards
  batch.push_back(Item(2, 11.0, UnitVec({{1, 1.0}})));
  const BatchPushResult pushed = engine->PushBatch(batch);
  EXPECT_EQ(pushed.accepted, 2u);
  ASSERT_EQ(pushed.rejects.size(), 1u);
  EXPECT_EQ(pushed.rejects[0].index, 1u);
  EXPECT_EQ(pushed.rejects[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->next_id(), 2u);
  ASSERT_EQ(sink.pairs().size(), 1u);  // items 0 and 2 are near-identical
}

// A sharded engine checkpoints like the sequential one: the live items are
// rebuilt from every shard's lists, and a resumed engine with the same
// shard count continues with the uninterrupted run's pair sequence.
TEST(ShardedEngineTest, CheckpointResumesWithTheSameShardCount) {
  const Stream stream = DenseishStream(7);
  const size_t cut = stream.size() / 2;
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.7;
  cfg.lambda = 0.01;
  cfg.num_threads = 4;
  CollectorSink ref_sink;
  auto ref = *SssjEngine::Make(cfg, &ref_sink);
  EXPECT_EQ(ref->PushBatch(stream).accepted, stream.size());

  const std::string path = ::testing::TempDir() + "/sssj_sharded.ckpt";
  CollectorSink sink;
  {
    auto first = *SssjEngine::Make(cfg, &sink);
    const Stream head(stream.begin(), stream.begin() + cut);
    EXPECT_EQ(first->PushBatch(head).accepted, cut);
    const Status saved = first->SaveCheckpoint(path);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  auto resumed = *SssjEngine::Make(cfg, &sink);
  const Status loaded = resumed->LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  const Stream tail(stream.begin() + cut, stream.end());
  EXPECT_EQ(resumed->PushBatch(tail).accepted, tail.size());
  std::remove(path.c_str());

  ASSERT_EQ(sink.pairs().size(), ref_sink.pairs().size());
  ASSERT_GT(sink.pairs().size(), 0u);
  for (size_t i = 0; i < sink.pairs().size(); ++i) {
    EXPECT_EQ(sink.pairs()[i].a, ref_sink.pairs()[i].a) << "pair " << i;
    EXPECT_EQ(sink.pairs()[i].b, ref_sink.pairs()[i].b) << "pair " << i;
    EXPECT_EQ(sink.pairs()[i].sim, ref_sink.pairs()[i].sim) << "pair " << i;
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
