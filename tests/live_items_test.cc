// The live-item rebuild (StreamIndex::CollectLiveItems, index/live_items.cc).
//
//   * After every push an STR engine saves exactly the SSSJENG3 bytes of
//     the pushed items that are not OutsideHorizon of that push: same
//     items, same order, same coordinate bits. Covers STR-L2, STR-INV and
//     STR-L2AP (untiered and tiered-exact), and STR-L2 at 2 and 4 threads,
//     on a sparse and a dense generated stream and on a stream whose
//     arrivals land exactly on newest − τ.
//   * A checkpoint saved at any cut and loaded into a fresh engine resumes
//     to the uninterrupted run's pairs: the same sequence, bit for bit, for
//     STR-L2, STR-INV and MB (its windows sit on a grid, so the restored
//     core closes each window where the original did); the
//     same set for STR-L2AP (its max vector then covers only the live
//     items, so dot summation order can change).
//   * A general-decay index rebuilds over its own horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/decay.h"
#include "core/engine.h"
#include "data/profiles.h"
#include "index/stream_index.h"
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

constexpr double kTheta = 0.5;
constexpr double kLambda = 0.03;  // τ = ln 2 / 0.03 ≈ 23.1 time units

double Tau() {
  DecayParams params;
  EXPECT_TRUE(DecayParams::Make(kTheta, kLambda, &params));
  return params.tau;
}

struct NamedStream {
  const char* name;
  Stream stream;
};

// Arrivals that land on the horizon boundary: a first run at irregular
// times t_k, then a second run at fl(t_k + τ). Each second-run arrival puts
// its first-run twin exactly on newest − τ, or one rounding step to either
// side of it, where `newest − ts > τ` and `ts < newest − τ` can disagree.
Stream BoundaryStream() {
  const double tau = Tau();
  std::vector<Timestamp> firsts;
  for (int k = 0; k < 48; ++k) {
    firsts.push_back(0.37 * k + k * k * 1e-3 + 1.0 / 3.0);
  }
  Stream stream;
  for (const int run : {0, 1}) {
    for (size_t k = 0; k < firsts.size(); ++k) {
      const Timestamp ts = run == 0 ? firsts[k] : firsts[k] + tau;
      const DimId d = static_cast<DimId>(k % 5);
      stream.push_back(Item(stream.size(), ts,
                            UnitVec({{d, 1.0},
                                     {static_cast<DimId>(5 + k % 7), 0.3},
                                     {static_cast<DimId>(12 + run), 0.2}})));
    }
  }
  return stream;
}

std::vector<NamedStream> Streams() {
  return {{"sparse", GenerateProfile(DatasetProfile::kRcv1, 0.12, 41)},
          {"dense", GenerateProfile(DatasetProfile::kWebSpam, 0.05, 43)},
          {"boundary", BoundaryStream()}};
}

TEST(LiveItemBoundaryStreamTest, ArrivalsLandOnTheHorizon) {
  // The boundary stream must exercise both cases it exists for: arrivals
  // exactly on newest − τ, and arrivals where the two tests disagree.
  const double tau = Tau();
  const Stream stream = BoundaryStream();
  const size_t half = stream.size() / 2;
  size_t exact = 0;
  size_t disagree = 0;
  for (size_t k = 0; k < half; ++k) {
    const Timestamp ts = stream[k].ts;
    const Timestamp newest = stream[half + k].ts;
    if (ts == newest - tau) ++exact;
    if ((newest - ts > tau) != OutsideHorizon(ts, newest, tau)) ++disagree;
  }
  EXPECT_GT(exact, 0u);
  EXPECT_GT(disagree, 0u);
}

TieredStorageOptions SmallBlocks() {
  TieredStorageOptions tiered;
  tiered.enabled = true;
  tiered.block_entries = 8;
  tiered.dormant_tail_entries = 2;
  tiered.dormant_after_appends = 4;
  tiered.cold_freeze_quantum = 2;
  return tiered;
}

struct Variant {
  const char* name;
  Framework framework;
  IndexScheme scheme;
  int threads;
  bool tiered;
  // Continuation pin: the resumed pairs equal the uninterrupted run's as
  // a bitwise sequence (true) or as a set (false).
  bool same_sequence;
};

// gtest prints a parameter into each test's ctest id; without this it
// would dump the struct's bytes, `name`'s pointer included, so the ids
// would change from build to build.
void PrintTo(const Variant& variant, std::ostream* os) { *os << variant.name; }

EngineConfig ConfigFor(const Variant& variant) {
  EngineConfig cfg;
  cfg.framework = variant.framework;
  cfg.index = variant.scheme;
  cfg.num_threads = variant.threads;
  cfg.theta = kTheta;
  cfg.lambda = kLambda;
  if (variant.tiered) cfg.tiered = SmallBlocks();
  return cfg;
}

const Variant kStrVariants[] = {
    {"L2", Framework::kStreaming, IndexScheme::kL2, 1, false, true},
    {"L2Tiered", Framework::kStreaming, IndexScheme::kL2, 1, true, true},
    {"Inv", Framework::kStreaming, IndexScheme::kInv, 1, false, true},
    {"InvTiered", Framework::kStreaming, IndexScheme::kInv, 1, true, true},
    {"L2ap", Framework::kStreaming, IndexScheme::kL2ap, 1, false, false},
    {"L2apTiered", Framework::kStreaming, IndexScheme::kL2ap, 1, true, false},
    // STR ignores num_threads: these must save and resume exactly like
    // the 1-thread L2 rows.
    {"L2Threads2", Framework::kStreaming, IndexScheme::kL2, 2, false, true},
    {"L2Threads4", Framework::kStreaming, IndexScheme::kL2, 4, false, true},
    {"L2Threads4Tiered", Framework::kStreaming, IndexScheme::kL2, 4, true,
     true},
};

const Variant kMbVariants[] = {
    {"MbL2", Framework::kMiniBatch, IndexScheme::kL2, 1, false, true},
    {"MbInv", Framework::kMiniBatch, IndexScheme::kInv, 2, false, true},
};

std::string Save(const SssjEngine& engine) {
  std::ostringstream os;
  EXPECT_TRUE(engine.SaveCheckpoint(os).ok());
  return std::move(os).str();
}

// The checkpoint's item count (SssjEngine::SaveCheckpoint's layout).
uint64_t LiveCount(const std::string& bytes) {
  constexpr size_t kNumItemsOffset = 8 + 4 + 1 + 1 + 8 + 8 + 8 + 8 + 1 + 8;
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + kNumItemsOffset, sizeof(count));
  return count;
}

std::string VariantName(const ::testing::TestParamInfo<Variant>& info) {
  return info.param.name;
}

class LiveItemRebuildTest : public ::testing::TestWithParam<Variant> {};

// The SSSJENG3 bytes an STR engine must save after push `i` of `pushed`:
// the items not OutsideHorizon of that push's ts, with the ids the engine
// assigned and the vectors it normalized.
std::string ExpectedCheckpoint(const EngineConfig& cfg, const Stream& pushed,
                               size_t i) {
  const double tau = Tau();
  const Timestamp newest = pushed[i].ts;
  CheckpointHeader header;
  header.framework = cfg.framework;
  header.scheme = cfg.index;
  header.theta = cfg.theta;
  header.lambda = cfg.lambda;
  header.next_id = i + 1;
  header.last_ts = newest;
  header.started = true;
  header.watermark = i + 1;
  Stream live;
  for (size_t j = 0; j <= i; ++j) {
    if (OutsideHorizon(pushed[j].ts, newest, tau)) continue;
    SparseVector vec = pushed[j].vec;
    vec.Normalize();
    live.push_back(Item(j, pushed[j].ts, std::move(vec)));
  }
  std::ostringstream os;
  EXPECT_TRUE(WriteCheckpoint(header, live, os).ok());
  return std::move(os).str();
}

TEST_P(LiveItemRebuildTest, RebuiltItemsEqualTheInHorizonItemsAfterEveryPush) {
  const EngineConfig cfg = ConfigFor(GetParam());
  for (const NamedStream& named : Streams()) {
    SCOPED_TRACE(named.name);
    auto engine = *SssjEngine::Make(cfg);
    uint64_t most_live = 0;
    for (size_t i = 0; i < named.stream.size(); ++i) {
      const StreamItem& item = named.stream[i];
      ASSERT_TRUE(engine->Push(item.ts, item.vec).ok());
      const std::string rebuilt = Save(*engine);
      ASSERT_TRUE(rebuilt == ExpectedCheckpoint(cfg, named.stream, i))
          << "after push " << i;
      most_live = std::max(most_live, LiveCount(rebuilt));
    }
    EXPECT_GT(most_live, 1u);
    EXPECT_GT(engine->stats().pairs_emitted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Str, LiveItemRebuildTest,
                         ::testing::ValuesIn(kStrVariants), VariantName);

void ExpectSameSequence(const std::vector<ResultPair>& got,
                        const std::vector<ResultPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const ResultPair& g = got[i];
    const ResultPair& w = want[i];
    ASSERT_EQ(g.a, w.a) << "pair " << i;
    ASSERT_EQ(g.b, w.b) << "pair " << i;
    ASSERT_EQ(std::memcmp(&g.ta, &w.ta, sizeof(double)), 0) << "pair " << i;
    ASSERT_EQ(std::memcmp(&g.tb, &w.tb, sizeof(double)), 0) << "pair " << i;
    ASSERT_EQ(std::memcmp(&g.dot, &w.dot, sizeof(double)), 0) << "pair " << i;
    ASSERT_EQ(std::memcmp(&g.sim, &w.sim, sizeof(double)), 0) << "pair " << i;
  }
}

class LiveItemContinuationTest : public ::testing::TestWithParam<Variant> {};

TEST_P(LiveItemContinuationTest, CheckpointAnywhereResumesTheUninterruptedRun) {
  const Variant& variant = GetParam();
  const EngineConfig cfg = ConfigFor(variant);
  for (const NamedStream& named : Streams()) {
    SCOPED_TRACE(named.name);
    const Stream& stream = named.stream;
    CollectorSink ref_sink;
    auto ref = *SssjEngine::Make(cfg, &ref_sink);
    for (const StreamItem& item : stream) {
      ASSERT_TRUE(ref->Push(item.ts, item.vec).ok());
    }
    ref->Flush();
    ASSERT_GT(ref_sink.pairs().size(), 0u);

    for (size_t part = 1; part < 7; ++part) {
      const size_t cut = stream.size() * part / 7;
      SCOPED_TRACE("cut " + std::to_string(cut));
      CollectorSink sink;
      std::string bytes;
      {
        auto first = *SssjEngine::Make(cfg, &sink);
        for (size_t i = 0; i < cut; ++i) {
          ASSERT_TRUE(first->Push(stream[i].ts, stream[i].vec).ok());
        }
        bytes = Save(*first);
      }
      auto resumed = *SssjEngine::Make(cfg, &sink);
      std::istringstream is(bytes);
      const Status loaded = resumed->LoadCheckpoint(is);
      ASSERT_TRUE(loaded.ok()) << loaded.ToString();
      for (size_t i = cut; i < stream.size(); ++i) {
        ASSERT_TRUE(resumed->Push(stream[i].ts, stream[i].vec).ok());
      }
      resumed->Flush();
      if (variant.same_sequence) {
        ExpectSameSequence(sink.pairs(), ref_sink.pairs());
      } else {
        EXPECT_EQ(sink.pairs().size(), ref_sink.pairs().size());
        EXPECT_EQ(PairSet(sink.pairs()), PairSet(ref_sink.pairs()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Str, LiveItemContinuationTest,
                         ::testing::ValuesIn(kStrVariants), VariantName);
INSTANTIATE_TEST_SUITE_P(Mb, LiveItemContinuationTest,
                         ::testing::ValuesIn(kMbVariants), VariantName);

// A restored MB core rebuilds the original's windows from its live items
// alone. Its first live item seldom sits on a window boundary (gaps up to
// 0.3 against τ ≈ 7.1), so a core that anchored its windows there rather
// than on the grid would close every later window at other arrivals than
// the original, and emit other pairs, or the same pairs in another order.
TEST(LiveItemMbContinuationTest, RestoredWindowsCloseWhereTheOriginalsDid) {
  EngineConfig cfg;
  cfg.framework = Framework::kMiniBatch;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.7;
  cfg.lambda = 0.05;
  for (const uint64_t seed : {2, 15, 32, 36}) {
    RandomStreamSpec spec;
    spec.n = 300;
    spec.dims = 30;
    spec.min_nnz = 2;
    spec.max_nnz = 6;
    spec.max_gap = 0.3;
    spec.seed = seed;
    const Stream stream = RandomStream(spec);
    CollectorSink ref_sink;
    auto ref = *SssjEngine::Make(cfg, &ref_sink);
    for (const StreamItem& item : stream) {
      ASSERT_TRUE(ref->Push(item.ts, item.vec).ok());
    }
    ref->Flush();
    ASSERT_GT(ref_sink.pairs().size(), 0u);
    for (const size_t cut : {101, 222}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", cut " +
                   std::to_string(cut));
      CollectorSink sink;
      std::string bytes;
      {
        auto first = *SssjEngine::Make(cfg, &sink);
        for (size_t i = 0; i < cut; ++i) {
          ASSERT_TRUE(first->Push(stream[i].ts, stream[i].vec).ok());
        }
        bytes = Save(*first);
      }
      auto resumed = *SssjEngine::Make(cfg, &sink);
      std::istringstream is(bytes);
      ASSERT_TRUE(resumed->LoadCheckpoint(is).ok());
      for (size_t i = cut; i < stream.size(); ++i) {
        ASSERT_TRUE(resumed->Push(stream[i].ts, stream[i].vec).ok());
      }
      resumed->Flush();
      ExpectSameSequence(sink.pairs(), ref_sink.pairs());
    }
  }
}

// A general-decay index rebuilds over its own horizon τ_f(θ): under a
// sliding window of width w, exactly the items with ts >= newest − w, with
// the pushed vectors' exact coordinates.
TEST(LiveItemGeneralDecayTest, RebuildUsesTheIndexHorizon) {
  constexpr double kWindow = 5.0;
  const DecayFunction window = DecayFunction::SlidingWindow(kWindow);
  StreamL2Index l2(kTheta, window);
  StreamInvIndex inv(kTheta, window);
  Stream pushed;
  CollectorSink sink;
  for (int i = 0; i < 40; ++i) {
    const StreamItem item = Item(
        i, 0.5 * i,
        UnitVec({{static_cast<DimId>(i % 4), 1.0 + 0.1 * (i % 3)},
                 {static_cast<DimId>(4 + i % 6), 0.7},
                 {static_cast<DimId>(10 + i % 2), 0.4}}));
    l2.ProcessArrival(item, &sink);
    inv.ProcessArrival(item, &sink);
    pushed.push_back(item);
  }
  const Timestamp newest = pushed.back().ts;
  Stream want;
  for (const StreamItem& item : pushed) {
    if (item.ts >= newest - kWindow) want.push_back(item);
  }
  ASSERT_EQ(want.size(), 11u);
  for (const StreamIndex* index :
       {static_cast<const StreamIndex*>(&l2),
        static_cast<const StreamIndex*>(&inv)}) {
    SCOPED_TRACE(index->name());
    Stream got;
    index->CollectLiveItems(newest, &got);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].ts, want[i].ts);
      EXPECT_EQ(got[i].vec, want[i].vec);  // coordinate-wise ==
    }
  }
}

}  // namespace
}  // namespace sssj
