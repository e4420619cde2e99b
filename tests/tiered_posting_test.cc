// Tiered posting storage: the frozen-block cold tier under PostingList,
// and the engine-level contract that tiering changes memory layout but
// never output — for every STR scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "index/posting_list.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

// Lists freeze whenever their tail reaches 4 entries, keeping 2: a list
// with 3 appends since its last scan freezes compressed blocks, one
// scanned more recently (no arrival tick, so no scan rate) raw ones, and
// each freeze amends the newest block until it holds 4 entries.
TieredStorageOptions SmallBlocks() {
  TieredStorageOptions opts;
  opts.enabled = true;
  opts.block_entries = 4;
  opts.dormant_tail_entries = 2;
  opts.dormant_after_appends = 3;
  opts.cold_freeze_quantum = 2;
  return opts;
}

struct ModelEntry {
  VectorId id;
  double value;
  double prefix_norm;
  Timestamp ts;
};

void ExpectMatchesModel(const PostingList& list,
                        const std::vector<ModelEntry>& model) {
  ASSERT_EQ(list.size(), model.size());
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(list.id(i), model[i].id) << i;
    EXPECT_EQ(list.value(i), model[i].value) << i;
    EXPECT_EQ(list.prefix_norm(i), model[i].prefix_norm) << i;
    EXPECT_EQ(list.ts(i), model[i].ts) << i;
  }
  // Block-cursor iteration visits exactly the model, in both directions.
  FrozenColumns scratch;
  size_t fwd = 0;
  list.ForEachOldestFirst(0, list.size(), &scratch,
                          [&](const PostingSpan& sp, size_t k) {
    ASSERT_LT(fwd, model.size());
    EXPECT_EQ(sp.id[k], model[fwd].id);
    EXPECT_EQ(sp.value[k], model[fwd].value);
    EXPECT_EQ(sp.ts[k], model[fwd].ts);
    ++fwd;
  });
  EXPECT_EQ(fwd, model.size());
  size_t bwd = model.size();
  list.ForEachNewestFirst(0, list.size(), &scratch,
                          [&](const PostingSpan& sp, size_t k) {
    ASSERT_GT(bwd, 0u);
    --bwd;
    EXPECT_EQ(sp.id[k], model[bwd].id);
    EXPECT_EQ(sp.ts[k], model[bwd].ts);
  });
  EXPECT_EQ(bwd, 0u);
}

TEST(TieredPostingTest, RandomizedOpsMatchFlatModel) {
  Rng rng(2024);
  const TieredStorageOptions opts = SmallBlocks();
  PostingList list;
  std::vector<ModelEntry> model;
  Timestamp now = 0.0;
  Timestamp cutoff = -1.0;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.NextBelow(10);
    if (op < 6) {  // append (time-sorted) + freeze policy
      now += rng.NextDouble();
      const ModelEntry e{rng.NextU64() >> 40, rng.NextDouble(),
                         rng.NextDouble(), now};
      list.Append(e.id, e.value, e.prefix_norm, e.ts);
      list.MaybeFreeze(opts);
      model.push_back(e);
    } else if (op < 8) {  // scan: resets the dormancy counter
      list.NoteScanned();
    } else {  // expire a prefix through LowerBoundTs + TruncateFront
      cutoff = std::max(cutoff, now - 2.0 - rng.NextDouble() * 4.0);
      const size_t n = list.LowerBoundTs(cutoff);
      size_t expected = 0;
      while (expected < model.size() && model[expected].ts < cutoff) {
        ++expected;
      }
      EXPECT_EQ(n, expected) << "step " << step;
      EXPECT_EQ(list.TruncateFront(n), n);
      model.erase(model.begin(), model.begin() + expected);
    }
    if (step % 250 == 0) ExpectMatchesModel(list, model);
  }
  EXPECT_GT(list.frozen_blocks(), 0u);  // the policy actually froze
  ExpectMatchesModel(list, model);
}

// λ-horizon cutoffs landing exactly on, inside, and between frozen-block
// boundaries. Layout: blocks [ts 0..3] [ts 4..7], hot tail [ts 8..11]:
// the list keeps 4 entries mutable and freezes the next 4 whenever its
// tail reaches 8. Built twice — from a dormant list (never scanned),
// which freezes compressed blocks, and from a list scanned after every
// append without an arrival tick, which freezes raw ones.
class FrozenBoundaryTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    const bool dormant = GetParam();
    TieredStorageOptions opts = SmallBlocks();
    opts.dormant_tail_entries = 4;
    opts.cold_freeze_quantum = 4;
    for (int i = 0; i < 12; ++i) {
      list_.Append(100 + i, 1.0, 0.0, static_cast<Timestamp>(i));
      if (!dormant) list_.NoteScanned();
      list_.MaybeFreeze(opts);
    }
    ASSERT_EQ(list_.frozen_blocks(), 2u);
    ASSERT_EQ(list_.frozen_live_entries(), 8u);
    ASSERT_EQ(list_.size(), 12u);
    // Compressed blocks serve their spans out of the thaw scratch; raw
    // blocks serve their own columns.
    FrozenColumns scratch;
    list_.ForSpansOldestFirst(0, 8, &scratch, [&](const PostingSpan& sp) {
      EXPECT_EQ(sp.id == scratch.id.data(), dormant) << sp.begin;
    });
  }
  PostingList list_;
};

INSTANTIATE_TEST_SUITE_P(BlockForms, FrozenBoundaryTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Compressed"
                                                         : "Raw");
                         });

TEST_P(FrozenBoundaryTest, LowerBoundTsAtEveryBoundaryKind) {
  EXPECT_EQ(list_.LowerBoundTs(-1.0), 0u);   // before everything
  EXPECT_EQ(list_.LowerBoundTs(0.0), 0u);    // exactly the oldest entry
  EXPECT_EQ(list_.LowerBoundTs(2.0), 2u);    // inside block 0
  EXPECT_EQ(list_.LowerBoundTs(3.5), 4u);    // between blocks 0 and 1
  EXPECT_EQ(list_.LowerBoundTs(4.0), 4u);    // exactly on block boundary
  EXPECT_EQ(list_.LowerBoundTs(7.5), 8u);    // between block 1 and tail
  EXPECT_EQ(list_.LowerBoundTs(8.0), 8u);    // exactly at the tail start
  EXPECT_EQ(list_.LowerBoundTs(10.0), 10u);  // inside the hot tail
  EXPECT_EQ(list_.LowerBoundTs(99.0), 12u);  // everything expired
}

TEST_P(FrozenBoundaryTest, TruncateInsideFrozenBlockKeepsSkipConsistent) {
  // Drop 2 entries: the cut lands inside block 0, which must survive with
  // a skip instead of being rewritten.
  EXPECT_EQ(list_.TruncateFront(2), 2u);
  EXPECT_EQ(list_.size(), 10u);
  EXPECT_EQ(list_.ts(0), 2.0);
  EXPECT_EQ(list_.id(0), 102u);
  // The skip interacts with later lookups and truncations.
  EXPECT_EQ(list_.LowerBoundTs(4.0), 2u);
  EXPECT_EQ(list_.TruncateFront(list_.LowerBoundTs(6.0)), 4u);
  EXPECT_EQ(list_.ts(0), 6.0);
  EXPECT_EQ(list_.size(), 6u);
  FrozenColumns scratch;
  std::vector<Timestamp> seen;
  list_.ForEachOldestFirst(0, list_.size(), &scratch,
                           [&](const PostingSpan& sp, size_t k) {
    seen.push_back(sp.ts[k]);
  });
  EXPECT_EQ(seen, (std::vector<Timestamp>{6, 7, 8, 9, 10, 11}));
}

TEST_P(FrozenBoundaryTest, TruncateWholeBlocksDropsThemWithoutThaw) {
  EXPECT_EQ(list_.TruncateFront(list_.LowerBoundTs(8.0)), 8u);
  EXPECT_EQ(list_.frozen_blocks(), 0u);
  EXPECT_EQ(list_.frozen_live_entries(), 0u);
  EXPECT_EQ(list_.size(), 4u);
  EXPECT_EQ(list_.ts(0), 8.0);
}

TEST(TieredPostingTest, CompactExpiredOnUnsortedListMatchesModel) {
  // L2AP re-indexing appends old timestamps after new ones; forward
  // compaction must filter per entry, never assume time order — including
  // inside frozen blocks, which are re-frozen without the dead entries.
  const TieredStorageOptions opts = SmallBlocks();
  Rng rng(555);
  PostingList list;
  std::vector<ModelEntry> model;
  for (int i = 0; i < 40; ++i) {
    const ModelEntry e{static_cast<VectorId>(i), 0.5,
                       0.1 * static_cast<double>(i % 7),
                       static_cast<Timestamp>(rng.NextBelow(20))};
    list.Append(e.id, e.value, e.prefix_norm, e.ts);
    list.MaybeFreeze(opts);
    model.push_back(e);
  }
  ASSERT_GT(list.frozen_blocks(), 0u);
  for (Timestamp cutoff : {5.0, 5.0, 11.5, 19.0, 25.0}) {
    FrozenColumns scratch;
    std::vector<ModelEntry> surviving;
    for (const ModelEntry& e : model) {
      if (e.ts >= cutoff) surviving.push_back(e);
    }
    const size_t removed = model.size() - surviving.size();
    EXPECT_EQ(list.CompactExpired(cutoff, &scratch), removed);
    model = surviving;
    ExpectMatchesModel(list, model);
  }
  EXPECT_TRUE(list.empty());
}

// ---- Engine-level equivalence: tiering on vs off ----

std::vector<ResultPair> RunEngine(const EngineConfig& cfg, const Stream& s) {
  CollectorSink sink;
  auto engine = SssjEngine::Make(cfg, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  if (!engine.ok()) return {};
  for (const StreamItem& item : s) {
    const Status status = (*engine)->Push(item.ts, item.vec);
    EXPECT_TRUE(status.ok()) << status.message();
  }
  (*engine)->Flush();
  return sink.pairs();
}

void ExpectBitIdentical(const std::vector<ResultPair>& a,
                        const std::vector<ResultPair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a) << i;
    EXPECT_EQ(a[i].b, b[i].b) << i;
    EXPECT_EQ(a[i].ta, b[i].ta) << i;
    EXPECT_EQ(a[i].tb, b[i].tb) << i;
    EXPECT_EQ(a[i].dot, b[i].dot) << i;  // bit-identical, not NEAR
    EXPECT_EQ(a[i].sim, b[i].sim) << i;
  }
}

EngineConfig TieredConfig(IndexScheme scheme, int threads, bool tiered) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = scheme;
  cfg.theta = 0.6;
  cfg.lambda = 0.001;  // long horizon: scans reach deep into cold blocks
  cfg.num_threads = threads;
  if (tiered) {
    cfg.tiered.enabled = true;
    cfg.tiered.block_entries = 8;
    cfg.tiered.dormant_tail_entries = 4;
    cfg.tiered.dormant_after_appends = 4;
  }
  return cfg;
}

struct SchemeThreads {
  IndexScheme scheme;
  int threads;
};

class TieredEquivalenceTest
    : public ::testing::TestWithParam<SchemeThreads> {};

Stream EquivalenceStream() {
  RandomStreamSpec spec;
  spec.n = 400;
  spec.dims = 25;  // few dims → long lists → plenty of frozen blocks
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.5;
  spec.seed = 99;
  return RandomStream(spec);
}

TEST_P(TieredEquivalenceTest, ExactTierOutputBitIdenticalToUntiered) {
  const SchemeThreads param = GetParam();
  const Stream stream = EquivalenceStream();
  const std::vector<ResultPair> flat =
      RunEngine(TieredConfig(param.scheme, param.threads, false), stream);
  const std::vector<ResultPair> tiered =
      RunEngine(TieredConfig(param.scheme, param.threads, true), stream);
  EXPECT_GT(flat.size(), 10u);  // non-vacuous
  ExpectBitIdentical(flat, tiered);
}

// No list ever goes dormant or under the scan budget, so every block
// freezes raw and the scans read its columns zero-copy.
TEST_P(TieredEquivalenceTest, RawBlockOutputBitIdenticalToUntiered) {
  const SchemeThreads param = GetParam();
  const Stream stream = EquivalenceStream();
  EngineConfig raw_cfg = TieredConfig(param.scheme, param.threads, true);
  raw_cfg.tiered.dormant_after_appends = UINT32_MAX;
  raw_cfg.tiered.cold_scan_budget = 0;
  const std::vector<ResultPair> flat =
      RunEngine(TieredConfig(param.scheme, param.threads, false), stream);
  const std::vector<ResultPair> raw = RunEngine(raw_cfg, stream);
  EXPECT_GT(flat.size(), 10u);  // non-vacuous
  ExpectBitIdentical(flat, raw);
}

// STR ignores num_threads, so the L2 rows at 2 and 4 threads must hold
// exactly as the 1-thread row does.
INSTANTIATE_TEST_SUITE_P(
    Schemes, TieredEquivalenceTest,
    ::testing::Values(SchemeThreads{IndexScheme::kInv, 1},
                      SchemeThreads{IndexScheme::kL2ap, 1},
                      SchemeThreads{IndexScheme::kL2, 1},
                      SchemeThreads{IndexScheme::kL2, 2},
                      SchemeThreads{IndexScheme::kL2, 4}));

TEST(TieredEquivalenceTest, SimdKernelsAlsoUnaffectedByTiering) {
  RandomStreamSpec spec;
  spec.n = 300;
  spec.dims = 20;
  spec.seed = 7;
  const Stream stream = RandomStream(spec);
  for (IndexScheme scheme :
       {IndexScheme::kInv, IndexScheme::kL2ap, IndexScheme::kL2}) {
    EngineConfig flat_cfg = TieredConfig(scheme, 1, false);
    EngineConfig tier_cfg = TieredConfig(scheme, 1, true);
    flat_cfg.kernel = KernelMode::kSimd;
    tier_cfg.kernel = KernelMode::kSimd;
    ExpectBitIdentical(RunEngine(flat_cfg, stream),
                       RunEngine(tier_cfg, stream));
  }
}

TEST(TieredEquivalenceTest, CheckpointRoundTripWithTieringEnabled) {
  RandomStreamSpec spec;
  spec.n = 300;
  spec.dims = 20;
  spec.seed = 77;
  const Stream stream = RandomStream(spec);
  const size_t half = stream.size() / 2;
  const std::string path = ::testing::TempDir() + "tiered_ckpt.bin";

  // Uninterrupted tiered run.
  const std::vector<ResultPair> full =
      RunEngine(TieredConfig(IndexScheme::kL2, 1, true), stream);

  // Interrupted run: push half, checkpoint, restore into a fresh tiered
  // engine, replay the rest.
  CollectorSink sink_a;
  auto a = SssjEngine::Make(TieredConfig(IndexScheme::kL2, 1, true), &sink_a);
  ASSERT_TRUE(a.ok());
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*a)->Push(stream[i].ts, stream[i].vec).ok());
  }
  ASSERT_TRUE((*a)->SaveCheckpoint(path).ok());

  CollectorSink sink_b;
  auto b = SssjEngine::Make(TieredConfig(IndexScheme::kL2, 1, true), &sink_b);
  ASSERT_TRUE(b.ok());
  const Status load = (*b)->LoadCheckpoint(path);
  ASSERT_TRUE(load.ok()) << load.message();
  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE((*b)->Push(stream[i].ts, stream[i].vec).ok());
  }
  std::remove(path.c_str());

  // First-half pairs + restored-run pairs must equal the uninterrupted
  // run's sequence bit for bit (the frozen layout after restore may
  // differ from the interrupted engine's — block boundaries are not part
  // of the output contract).
  std::vector<ResultPair> resumed = sink_a.pairs();
  resumed.insert(resumed.end(), sink_b.pairs().begin(), sink_b.pairs().end());
  ExpectBitIdentical(full, resumed);
}

TEST(TieredPostingTest, TieredConfigValidation) {
  EngineConfig cfg = TieredConfig(IndexScheme::kL2, 1, true);
  cfg.tiered.block_entries = 0;
  EXPECT_EQ(SssjEngine::Make(cfg).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace sssj
