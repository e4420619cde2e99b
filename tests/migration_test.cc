// Live scheme migration: SwitchScheme over the portable (SSSJENG3)
// checkpoint path. The central pin is the equivalence contract — after a
// switch, the engine's subsequent output is BITWISE identical to a
// target-scheme engine restored from the same checkpoint bytes — plus the
// watermark guarantee that the external output stream stays duplicate-
// and loss-free across a migration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/join_service.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

Stream MigrationStream(uint64_t seed, size_t n = 400) {
  RandomStreamSpec spec;
  spec.n = n;
  spec.dims = 30;
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.3;
  spec.seed = seed;
  return RandomStream(spec);
}

EngineConfig MigrationConfig(Framework framework, IndexScheme scheme) {
  EngineConfig cfg;
  cfg.framework = framework;
  cfg.index = scheme;
  cfg.theta = 0.7;
  cfg.lambda = 0.05;
  return cfg;
}

// Exact comparison on every field: the contract is bitwise, not
// approximate.
void ExpectPairsBitIdentical(const std::vector<ResultPair>& a,
                             const std::vector<ResultPair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a) << "pair " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "pair " << i;
    EXPECT_EQ(a[i].ta, b[i].ta) << "pair " << i;
    EXPECT_EQ(a[i].tb, b[i].tb) << "pair " << i;
    EXPECT_EQ(a[i].dot, b[i].dot) << "pair " << i;
    EXPECT_EQ(a[i].sim, b[i].sim) << "pair " << i;
  }
}

struct MigrationPair {
  Framework src_fw;
  IndexScheme src_scheme;
  Framework dst_fw;
  IndexScheme dst_scheme;
};

class MigrationEquivalenceTest
    : public ::testing::TestWithParam<MigrationPair> {};

// The contract itself: push a prefix into a source-scheme engine, save a
// portable checkpoint, then (a) SwitchScheme the live engine and (b)
// restore a fresh target-scheme engine from the same bytes. Fed the same
// suffix, (a)'s post-switch emissions must be bitwise identical to (b)'s
// — including the replay-time emissions (MB sources have pairs pending in
// their windows at snapshot time).
TEST_P(MigrationEquivalenceTest, PostSwitchOutputMatchesRestoredEngine) {
  const MigrationPair& pair = GetParam();
  const Stream stream = MigrationStream(42);
  const size_t split = stream.size() / 2;

  CollectorSink live_sink;
  auto live_or =
      SssjEngine::Make(MigrationConfig(pair.src_fw, pair.src_scheme),
                       &live_sink);
  ASSERT_TRUE(live_or.ok()) << live_or.status().ToString();
  SssjEngine& live = **live_or;
  for (size_t i = 0; i < split; ++i) {
    ASSERT_TRUE(live.Push(stream[i].ts, stream[i].vec).ok());
  }

  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(live.SaveCheckpoint(snapshot).ok());
  const std::string bytes = snapshot.str();

  // (b): a target-scheme engine restored from the same bytes.
  CollectorSink restored_sink;
  auto restored_or =
      SssjEngine::Make(MigrationConfig(pair.dst_fw, pair.dst_scheme),
                       &restored_sink);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  SssjEngine& restored = **restored_or;
  std::istringstream restore_stream(bytes);
  ASSERT_TRUE(restored.LoadCheckpoint(restore_stream).ok());

  // (a): switch the live engine. Everything it emits from here on is the
  // post-switch output.
  const size_t live_pairs_before = live_sink.pairs().size();
  ASSERT_TRUE(live.SwitchScheme(pair.dst_fw, pair.dst_scheme).ok());
  EXPECT_EQ(live.active_framework(), pair.dst_fw);
  EXPECT_EQ(live.active_scheme(), pair.dst_scheme);
  EXPECT_EQ(live.scheme_switches(), 1u);
  EXPECT_EQ(live.next_id(), restored.next_id());

  for (size_t i = split; i < stream.size(); ++i) {
    ASSERT_TRUE(live.Push(stream[i].ts, stream[i].vec).ok());
    ASSERT_TRUE(restored.Push(stream[i].ts, stream[i].vec).ok());
  }
  live.Flush();
  restored.Flush();

  const std::vector<ResultPair> post_switch(
      live_sink.pairs().begin() + live_pairs_before, live_sink.pairs().end());
  ExpectPairsBitIdentical(post_switch, restored_sink.pairs());

  // End-to-end: the live engine's full output (prefix + post-switch) is a
  // correct join — no pair lost to the migration, none duplicated.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream, params, live_sink.pairs());
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, MigrationEquivalenceTest,
    ::testing::Values(
        MigrationPair{Framework::kMiniBatch, IndexScheme::kInv,
                      Framework::kStreaming, IndexScheme::kL2},
        MigrationPair{Framework::kMiniBatch, IndexScheme::kAp,
                      Framework::kMiniBatch, IndexScheme::kL2},
        MigrationPair{Framework::kMiniBatch, IndexScheme::kL2ap,
                      Framework::kStreaming, IndexScheme::kInv},
        MigrationPair{Framework::kMiniBatch, IndexScheme::kL2,
                      Framework::kStreaming, IndexScheme::kL2ap},
        MigrationPair{Framework::kStreaming, IndexScheme::kInv,
                      Framework::kMiniBatch, IndexScheme::kL2ap},
        MigrationPair{Framework::kStreaming, IndexScheme::kL2ap,
                      Framework::kMiniBatch, IndexScheme::kInv},
        MigrationPair{Framework::kStreaming, IndexScheme::kL2,
                      Framework::kMiniBatch, IndexScheme::kAp},
        MigrationPair{Framework::kStreaming, IndexScheme::kL2,
                      Framework::kStreaming, IndexScheme::kInv}),
    [](const ::testing::TestParamInfo<MigrationPair>& info) {
      return std::string(ToString(info.param.src_fw)) +
             ToString(info.param.src_scheme) + "To" +
             ToString(info.param.dst_fw) + ToString(info.param.dst_scheme);
    });

TEST(MigrationTest, SwitchIsAllowedOnADefaultEngine) {
  EngineConfig cfg;  // defaults: STR-L2
  auto engine = SssjEngine::Make(cfg, nullptr);
  ASSERT_TRUE(engine.ok());
  const Status status =
      (*engine)->SwitchScheme(Framework::kMiniBatch, IndexScheme::kInv);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ((*engine)->active_framework(), Framework::kMiniBatch);
  EXPECT_EQ((*engine)->active_scheme(), IndexScheme::kInv);
  EXPECT_EQ((*engine)->scheme_switches(), 1u);
}

TEST(MigrationTest, SwitchToUnknownSchemeIsInvalidArgument) {
  CollectorSink sink;
  auto engine_or = SssjEngine::Make(
      MigrationConfig(Framework::kStreaming, IndexScheme::kL2), &sink);
  ASSERT_TRUE(engine_or.ok());
  SssjEngine& engine = **engine_or;
  const Stream stream = MigrationStream(5, 100);
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Push(stream[i].ts, stream[i].vec).ok());
  }
  const size_t pairs_before = sink.pairs().size();
  for (const Framework framework :
       {Framework::kStreaming, Framework::kMiniBatch}) {
    const Status status =
        engine.SwitchScheme(framework, static_cast<IndexScheme>(4));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << ToString(framework) << ": " << status.ToString();
  }
  // Untouched: same combination, no spurious emissions, still pushable.
  EXPECT_EQ(engine.active_framework(), Framework::kStreaming);
  EXPECT_EQ(engine.active_scheme(), IndexScheme::kL2);
  EXPECT_EQ(engine.scheme_switches(), 0u);
  EXPECT_EQ(engine.reported_watermark(), 0u);
  EXPECT_EQ(sink.pairs().size(), pairs_before);
  for (size_t i = 50; i < stream.size(); ++i) {
    ASSERT_TRUE(engine.Push(stream[i].ts, stream[i].vec).ok());
  }
  engine.Flush();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream, params, sink.pairs());
}

TEST(MigrationTest, SwitchToStrApFailsAndLeavesEngineRunning) {
  CollectorSink sink;
  auto engine_or = SssjEngine::Make(
      MigrationConfig(Framework::kStreaming, IndexScheme::kL2), &sink);
  ASSERT_TRUE(engine_or.ok());
  SssjEngine& engine = **engine_or;
  const Stream stream = MigrationStream(7, 100);
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Push(stream[i].ts, stream[i].vec).ok());
  }
  const size_t pairs_before = sink.pairs().size();
  const Status status =
      engine.SwitchScheme(Framework::kStreaming, IndexScheme::kAp);
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  // Untouched: same combination, no spurious emissions, still pushable.
  EXPECT_EQ(engine.active_scheme(), IndexScheme::kL2);
  EXPECT_EQ(engine.scheme_switches(), 0u);
  EXPECT_EQ(sink.pairs().size(), pairs_before);
  for (size_t i = 50; i < stream.size(); ++i) {
    ASSERT_TRUE(engine.Push(stream[i].ts, stream[i].vec).ok());
  }
  engine.Flush();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream, params, sink.pairs());
}

TEST(MigrationTest, SwitchToSameCombinationIsNoOp) {
  CollectorSink sink;
  auto engine_or = SssjEngine::Make(
      MigrationConfig(Framework::kMiniBatch, IndexScheme::kL2), &sink);
  ASSERT_TRUE(engine_or.ok());
  SssjEngine& engine = **engine_or;
  const Stream stream = MigrationStream(9, 100);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(engine.Push(item.ts, item.vec).ok());
  }
  const size_t pairs_before = sink.pairs().size();
  EXPECT_TRUE(
      engine.SwitchScheme(Framework::kMiniBatch, IndexScheme::kL2).ok());
  EXPECT_EQ(engine.scheme_switches(), 0u);
  EXPECT_EQ(sink.pairs().size(), pairs_before);
}

// One engine hops through both frameworks and every concrete scheme, each
// hop at a different push boundary: the whole output is still the exact
// join, with no pair lost or repeated at any hop.
TEST(MigrationTest, ChainOfSwitchesMatchesOracle) {
  struct Hop {
    Framework framework;
    IndexScheme scheme;
  };
  const Hop hops[] = {{Framework::kMiniBatch, IndexScheme::kInv},
                      {Framework::kStreaming, IndexScheme::kL2ap},
                      {Framework::kMiniBatch, IndexScheme::kAp},
                      {Framework::kStreaming, IndexScheme::kInv},
                      {Framework::kMiniBatch, IndexScheme::kL2ap},
                      {Framework::kMiniBatch, IndexScheme::kL2},
                      {Framework::kStreaming, IndexScheme::kL2}};
  constexpr size_t kHops = sizeof(hops) / sizeof(hops[0]);
  CollectorSink sink;
  auto engine_or = SssjEngine::Make(
      MigrationConfig(Framework::kStreaming, IndexScheme::kL2), &sink);
  ASSERT_TRUE(engine_or.ok());
  SssjEngine& engine = **engine_or;
  const Stream stream = MigrationStream(43, 640);
  const size_t segment = stream.size() / (kHops + 1);
  size_t next = 0;
  for (size_t h = 0; h < kHops; ++h) {
    for (; next < (h + 1) * segment; ++next) {
      ASSERT_TRUE(engine.Push(stream[next].ts, stream[next].vec).ok());
    }
    ASSERT_TRUE(engine.SwitchScheme(hops[h].framework, hops[h].scheme).ok())
        << "hop " << h;
    EXPECT_EQ(engine.active_framework(), hops[h].framework) << "hop " << h;
    EXPECT_EQ(engine.active_scheme(), hops[h].scheme) << "hop " << h;
    EXPECT_EQ(engine.scheme_switches(), h + 1);
  }
  for (; next < stream.size(); ++next) {
    ASSERT_TRUE(engine.Push(stream[next].ts, stream[next].vec).ok());
  }
  engine.Flush();
  // The configured combination stays what Make was given.
  EXPECT_EQ(engine.config().framework, Framework::kStreaming);
  EXPECT_EQ(engine.config().index, IndexScheme::kL2);
  EXPECT_EQ(engine.next_id(), stream.size());
  EXPECT_GT(sink.pairs().size(), 0u);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream, params, sink.pairs());
}

// A switch before the first push has nothing to replay: the engine then
// emits bitwise what an engine built on the target emits.
TEST(MigrationTest, SwitchBeforeFirstPushMatchesTargetEngine) {
  const MigrationPair pairs[] = {
      {Framework::kStreaming, IndexScheme::kL2, Framework::kMiniBatch,
       IndexScheme::kL2ap},
      {Framework::kStreaming, IndexScheme::kL2, Framework::kStreaming,
       IndexScheme::kInv},
      {Framework::kMiniBatch, IndexScheme::kInv, Framework::kMiniBatch,
       IndexScheme::kAp},
      {Framework::kMiniBatch, IndexScheme::kL2, Framework::kStreaming,
       IndexScheme::kL2}};
  const Stream stream = MigrationStream(47, 200);
  for (const MigrationPair& pair : pairs) {
    SCOPED_TRACE(std::string(ToString(pair.src_fw)) +
                 ToString(pair.src_scheme) + "To" + ToString(pair.dst_fw) +
                 ToString(pair.dst_scheme));
    CollectorSink switched_sink;
    auto switched_or = SssjEngine::Make(
        MigrationConfig(pair.src_fw, pair.src_scheme), &switched_sink);
    ASSERT_TRUE(switched_or.ok());
    SssjEngine& switched = **switched_or;
    ASSERT_TRUE(switched.SwitchScheme(pair.dst_fw, pair.dst_scheme).ok());
    EXPECT_EQ(switched.scheme_switches(), 1u);
    EXPECT_EQ(switched.next_id(), 0u);
    EXPECT_EQ(switched.reported_watermark(), 0u);
    EXPECT_TRUE(switched_sink.pairs().empty());

    CollectorSink direct_sink;
    auto direct_or = SssjEngine::Make(
        MigrationConfig(pair.dst_fw, pair.dst_scheme), &direct_sink);
    ASSERT_TRUE(direct_or.ok());
    for (const StreamItem& item : stream) {
      ASSERT_TRUE(switched.Push(item.ts, item.vec).ok());
      ASSERT_TRUE((*direct_or)->Push(item.ts, item.vec).ok());
    }
    switched.Flush();
    (*direct_or)->Flush();
    ASSERT_GT(direct_sink.pairs().size(), 0u);
    ExpectPairsBitIdentical(switched_sink.pairs(), direct_sink.pairs());
  }
}

// A checkpoint saved after a migration (here from MB, which writes the
// watermark it carried out of the switch) restores into an engine of a
// third combination that has migration off: what the writer reported plus
// what the loader reports is the exact join of the whole stream.
TEST(MigrationTest, CheckpointAfterSwitchRestoresIntoStaticEngine) {
  CollectorSink writer_sink;
  auto writer_or = SssjEngine::Make(
      MigrationConfig(Framework::kStreaming, IndexScheme::kL2), &writer_sink);
  ASSERT_TRUE(writer_or.ok());
  SssjEngine& writer = **writer_or;
  const Stream stream = MigrationStream(53, 450);
  const size_t third = stream.size() / 3;
  for (size_t i = 0; i < third; ++i) {
    ASSERT_TRUE(writer.Push(stream[i].ts, stream[i].vec).ok());
  }
  ASSERT_TRUE(
      writer.SwitchScheme(Framework::kMiniBatch, IndexScheme::kL2ap).ok());
  EXPECT_EQ(writer.reported_watermark(), third);
  for (size_t i = third; i < 2 * third; ++i) {
    ASSERT_TRUE(writer.Push(stream[i].ts, stream[i].vec).ok());
  }
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(writer.SaveCheckpoint(snapshot).ok());

  CollectorSink loader_sink;
  EngineConfig static_cfg;
  static_cfg.framework = Framework::kStreaming;
  static_cfg.index = IndexScheme::kInv;
  static_cfg.theta = 0.7;
  static_cfg.lambda = 0.05;
  auto loader_or = SssjEngine::Make(static_cfg, &loader_sink);
  ASSERT_TRUE(loader_or.ok());
  SssjEngine& loader = **loader_or;
  const Status loaded = loader.LoadCheckpoint(snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(loader.next_id(), writer.next_id());
  EXPECT_EQ(loader.reported_watermark(), third);
  for (size_t i = 2 * third; i < stream.size(); ++i) {
    ASSERT_TRUE(loader.Push(stream[i].ts, stream[i].vec).ok());
  }
  loader.Flush();
  std::vector<ResultPair> combined = writer_sink.pairs();
  combined.insert(combined.end(), loader_sink.pairs().begin(),
                  loader_sink.pairs().end());
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream, params, combined);
}

// Every truncation of a portable checkpoint must be rejected and must
// leave the loading engine — and its sink — pristine.
TEST(MigrationTest, PortableTruncationSweepLeavesEnginePristine) {
  auto writer_or = SssjEngine::Make(
      MigrationConfig(Framework::kMiniBatch, IndexScheme::kL2ap), nullptr);
  ASSERT_TRUE(writer_or.ok());
  const Stream stream = MigrationStream(11, 60);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE((*writer_or)->Push(item.ts, item.vec).ok());
  }
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE((*writer_or)->SaveCheckpoint(snapshot).ok());
  const std::string bytes = snapshot.str();
  ASSERT_GT(bytes.size(), 64u);

  // Sweep densely through the header, then stride through the item
  // payload (sweeping every byte of a multi-KB file is all the same
  // failure mode).
  for (size_t cut = 0; cut < bytes.size();
       cut += (cut < 96 ? 1 : 101)) {
    CollectorSink sink;
    auto loader_or = SssjEngine::Make(
        MigrationConfig(Framework::kStreaming, IndexScheme::kL2), &sink);
    ASSERT_TRUE(loader_or.ok());
    SssjEngine& loader = **loader_or;
    std::istringstream truncated(bytes.substr(0, cut));
    const Status status = loader.LoadCheckpoint(truncated);
    ASSERT_FALSE(status.ok()) << "cut at " << cut << " was accepted";
    EXPECT_EQ(loader.next_id(), 0u) << "cut at " << cut;
    EXPECT_EQ(loader.reported_watermark(), 0u) << "cut at " << cut;
    EXPECT_TRUE(sink.pairs().empty())
        << "cut at " << cut << " emitted replay pairs before failing";
    // Still usable from scratch.
    EXPECT_TRUE(loader.Push(0.0, stream[0].vec).ok()) << "cut at " << cut;
  }
}

TEST(MigrationTest, PortableLoadRejectsParameterMismatch) {
  auto writer_or = SssjEngine::Make(
      MigrationConfig(Framework::kStreaming, IndexScheme::kL2), nullptr);
  ASSERT_TRUE(writer_or.ok());
  const Stream stream = MigrationStream(13, 40);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE((*writer_or)->Push(item.ts, item.vec).ok());
  }
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE((*writer_or)->SaveCheckpoint(snapshot).ok());

  EngineConfig other = MigrationConfig(Framework::kStreaming, IndexScheme::kL2);
  other.theta = 0.8;  // differs from the writer's 0.7
  auto loader_or = SssjEngine::Make(other, nullptr);
  ASSERT_TRUE(loader_or.ok());
  const Status status = (*loader_or)->LoadCheckpoint(snapshot);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(std::string(status.message()).find("parameter mismatch"),
            std::string::npos)
      << status.ToString();
}

TEST(MigrationTest, NativeFileIntoMigrationEngineIsRefused) {
  // The native SSSJENG2 format is retired: a file that still carries its
  // magic is refused by name, and the engine stays pristine.
  auto writer_or = SssjEngine::Make(EngineConfig{}, nullptr);
  ASSERT_TRUE(writer_or.ok());
  const Stream stream = MigrationStream(17, 40);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE((*writer_or)->Push(item.ts, item.vec).ok());
  }
  std::ostringstream saved;
  ASSERT_TRUE((*writer_or)->SaveCheckpoint(saved).ok());
  std::string bytes = std::move(saved).str();
  bytes.replace(0, 8, "SSSJENG2");
  std::istringstream snapshot(bytes);

  auto loader_or = SssjEngine::Make(
      MigrationConfig(Framework::kStreaming, IndexScheme::kL2), nullptr);
  ASSERT_TRUE(loader_or.ok());
  const Status status = (*loader_or)->LoadCheckpoint(snapshot);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(std::string(status.message()).find("SSSJENG2"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(std::string(status.message()).find("no longer reads"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ((*loader_or)->next_id(), 0u);
}

TEST(MigrationTest, PortableFileIntoNativeEngineRestores) {
  // An STR-L2 engine reads an MB-INV engine's file (the replay rebuilds
  // its index), so state moves between configurations through a file as
  // well as through SwitchScheme.
  CollectorSink writer_sink;
  auto writer_or = SssjEngine::Make(
      MigrationConfig(Framework::kMiniBatch, IndexScheme::kInv), &writer_sink);
  ASSERT_TRUE(writer_or.ok());
  const Stream stream = MigrationStream(19);
  const size_t split = stream.size() / 2;
  for (size_t i = 0; i < split; ++i) {
    ASSERT_TRUE((*writer_or)->Push(stream[i].ts, stream[i].vec).ok());
  }
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE((*writer_or)->SaveCheckpoint(snapshot).ok());

  CollectorSink sink;
  EngineConfig native_cfg;  // STR-L2
  native_cfg.theta = 0.7;
  native_cfg.lambda = 0.05;
  auto loader_or = SssjEngine::Make(native_cfg, &sink);
  ASSERT_TRUE(loader_or.ok());
  SssjEngine& loader = **loader_or;
  ASSERT_TRUE(loader.LoadCheckpoint(snapshot).ok());
  EXPECT_EQ(loader.next_id(), (*writer_or)->next_id());
  for (size_t i = split; i < stream.size(); ++i) {
    ASSERT_TRUE(loader.Push(stream[i].ts, stream[i].vec).ok());
  }
  loader.Flush();
  // Handoff completeness: the pairs the writer reported before the
  // snapshot (among already-departed items) plus everything the loader
  // reports (replayed live items + suffix) form a correct, duplicate-free
  // join of the whole stream — nothing fell into the gap between the two
  // engines.
  std::vector<ResultPair> combined = writer_sink.pairs();
  combined.insert(combined.end(), sink.pairs().begin(), sink.pairs().end());
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream, params, combined);
}

TEST(MigrationTest, StatsFoldAcrossSwitch) {
  CollectorSink sink;
  auto engine_or = SssjEngine::Make(
      MigrationConfig(Framework::kStreaming, IndexScheme::kL2), &sink);
  ASSERT_TRUE(engine_or.ok());
  SssjEngine& engine = **engine_or;
  const Stream stream = MigrationStream(23, 200);
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Push(stream[i].ts, stream[i].vec).ok());
  }
  const uint64_t vectors_before = engine.stats().vectors_processed;
  EXPECT_EQ(vectors_before, 100u);
  ASSERT_TRUE(
      engine.SwitchScheme(Framework::kMiniBatch, IndexScheme::kL2).ok());
  // The switched-away core's counters fold into the engine totals; the
  // replay's work rides on top (replayed items are genuinely re-processed,
  // so monotonicity — never losing counts — is the contract here).
  EXPECT_GE(engine.stats().vectors_processed, vectors_before);
  for (size_t i = 100; i < stream.size(); ++i) {
    ASSERT_TRUE(engine.Push(stream[i].ts, stream[i].vec).ok());
  }
  engine.Flush();
  EXPECT_GE(engine.stats().vectors_processed, stream.size());
  EXPECT_GT(engine.stats().pairs_emitted, 0u);
}

TEST(MigrationTest, ServiceSwitchSchemeMigratesSession) {
  JoinService service;
  CollectorSink sink;
  auto session_or = service.CreateSession(
      {"adaptive", MigrationConfig(Framework::kMiniBatch, IndexScheme::kL2),
       &sink});
  ASSERT_TRUE(session_or.ok());
  const Stream stream = MigrationStream(29);
  const size_t split = stream.size() / 2;
  for (size_t i = 0; i < split; ++i) {
    ASSERT_TRUE(service.Push(*session_or, stream[i].ts, stream[i].vec).ok());
  }
  ASSERT_TRUE(service
                  .SwitchScheme(*session_or, Framework::kStreaming,
                                IndexScheme::kL2)
                  .ok());
  for (size_t i = split; i < stream.size(); ++i) {
    ASSERT_TRUE(service.Push(*session_or, stream[i].ts, stream[i].vec).ok());
  }
  ASSERT_TRUE(service.CloseSession(*session_or).ok());
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream, params, sink.pairs());
}

TEST(MigrationTest, ServiceSwitchSchemeIsAllowedOnADefaultSession) {
  JoinService service;
  auto session_or =
      service.CreateSession({"default", EngineConfig{}, nullptr});
  ASSERT_TRUE(session_or.ok());
  const Status status = service.SwitchScheme(
      *session_or, Framework::kMiniBatch, IndexScheme::kInv);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Sessions are evictable through the portable format — including MB
// sessions with pairs pending in their windows, which must survive the
// spill/reload/close cycle.
TEST(MigrationTest, MigrationEnabledSessionSurvivesEviction) {
  const EngineConfig cfg =
      MigrationConfig(Framework::kMiniBatch, IndexScheme::kL2);
  const Stream stream_a = MigrationStream(31, 200);
  const Stream stream_b = MigrationStream(37, 200);

  // Measure one unbudgeted engine to size a budget that fits roughly one
  // session but not two — forcing the dormant one to spill.
  size_t one_engine_bytes = 0;
  {
    auto probe = SssjEngine::Make(cfg, nullptr);
    ASSERT_TRUE(probe.ok());
    for (const StreamItem& item : stream_a) {
      ASSERT_TRUE((*probe)->Push(item.ts, item.vec).ok());
    }
    one_engine_bytes = (*probe)->MemoryBytes();
  }
  ASSERT_GT(one_engine_bytes, 0u);

  JoinServiceOptions options;
  options.memory_budget_bytes = one_engine_bytes + one_engine_bytes / 2;
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);

  CollectorSink sink_a;
  CollectorSink sink_b;
  auto a_or = service.CreateSession({"a", cfg, &sink_a});
  auto b_or = service.CreateSession({"b", cfg, &sink_b});
  ASSERT_TRUE(a_or.ok());
  ASSERT_TRUE(b_or.ok());

  // Long alternating runs: while one session pushes, the other is dormant
  // and becomes the eviction victim once the pair outgrows the budget.
  constexpr size_t kChunk = 50;
  for (size_t base = 0; base < stream_a.size(); base += kChunk) {
    const size_t end = std::min(base + kChunk, stream_a.size());
    for (size_t i = base; i < end; ++i) {
      ASSERT_TRUE(service.Push(*a_or, stream_a[i].ts, stream_a[i].vec).ok())
          << "a item " << i;
    }
    for (size_t i = base; i < end; ++i) {
      ASSERT_TRUE(service.Push(*b_or, stream_b[i].ts, stream_b[i].vec).ok())
          << "b item " << i;
    }
  }
  EXPECT_GT(service.Stats().sessions_evicted, 0u);
  ASSERT_TRUE(service.CloseSession(*a_or).ok());
  ASSERT_TRUE(service.CloseSession(*b_or).ok());

  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream_a, params, sink_a.pairs());
  ExpectMatchesOracle(stream_b, params, sink_b.pairs());
}

}  // namespace
}  // namespace sssj
