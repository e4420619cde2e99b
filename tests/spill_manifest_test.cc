// Satellite pin: a session evicted to disk by one JoinService instance
// must be restorable by a *different* instance (a restarted worker).
// The spill filename used to embed a per-instance registry id, so no
// other instance could map files back to sessions; now every spill is a
// name-derived checkpoint plus a versioned manifest, and
// ListSpilled/RestoreSession/RemoveSpill make the adoption explicit.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/join_service.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using sssj::testing::RandomStream;
using sssj::testing::RandomStreamSpec;

std::string FreshSpillDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "sssj_spill_" + tag;
  ::mkdir(dir.c_str(), 0755);
  // Start clean even if a previous run died here.
  auto listed = JoinService::ListSpilled(dir);
  if (listed.ok()) {
    for (const auto& entry : *listed) JoinService::RemoveSpill(entry);
  }
  return dir;
}

EngineConfig SpillableConfig() {
  EngineConfig config;
  config.framework = Framework::kStreaming;
  config.index = IndexScheme::kL2;
  config.theta = 0.6;
  config.lambda = 0.05;
  return config;
}

Stream TestStream(uint64_t seed, size_t n = 300) {
  RandomStreamSpec spec;
  spec.n = n;
  spec.dims = 40;
  spec.seed = seed;
  return spec.n == 0 ? Stream{} : RandomStream(spec);
}

void ExpectSamePairs(const std::vector<ResultPair>& got,
                     const std::vector<ResultPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a);
    EXPECT_EQ(got[i].b, want[i].b);
    EXPECT_EQ(std::memcmp(&got[i].sim, &want[i].sim, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&got[i].dot, &want[i].dot, sizeof(double)), 0);
  }
}

TEST(SpillManifestTest, EvictedSessionIsRestorableByAFreshInstance) {
  const std::string spill_dir = FreshSpillDir("cross_instance");
  const Stream beta_stream = TestStream(7);
  const Stream alpha_stream = TestStream(8);
  const size_t half = beta_stream.size() / 2;

  // Ground truth: beta's full stream through one standalone engine.
  std::vector<ResultPair> expected;
  {
    CollectorSink sink;
    auto engine = SssjEngine::Make(SpillableConfig(), &sink);
    ASSERT_TRUE(engine.ok());
    for (const StreamItem& item : beta_stream) {
      ASSERT_TRUE((*engine)->Push(item.ts, item.vec).ok());
    }
    expected = sink.pairs();
  }
  ASSERT_FALSE(expected.empty()) << "stream produced no pairs — vacuous test";

  // Size the budget so alpha alone always fits but alpha + beta's first
  // half does not: grow alpha until the service evicts dormant beta.
  auto engine_bytes_after = [](const Stream& stream, size_t n) {
    CollectorSink sink;
    auto engine = SssjEngine::Make(SpillableConfig(), &sink);
    EXPECT_TRUE(engine.ok());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE((*engine)->Push(stream[i].ts, stream[i].vec).ok());
    }
    return (*engine)->MemoryBytes();
  };
  const size_t alpha_bytes =
      engine_bytes_after(alpha_stream, alpha_stream.size());
  const size_t beta_half_bytes = engine_bytes_after(beta_stream, half);
  ASSERT_GT(beta_half_bytes, 0u);

  CollectorSink beta_first_half_sink;
  std::vector<ResultPair> beta_first_half;
  {
    JoinServiceOptions options;
    options.memory_budget_bytes = alpha_bytes + beta_half_bytes / 2;
    options.spill_dir = spill_dir;
    JoinService instance_a(options);
    auto beta = instance_a.CreateSession(
        {"beta", SpillableConfig(), &beta_first_half_sink});
    ASSERT_TRUE(beta.ok());
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(
          instance_a.Push(*beta, beta_stream[i].ts, beta_stream[i].vec).ok());
    }
    CollectorSink alpha_sink;
    auto alpha =
        instance_a.CreateSession({"alpha", SpillableConfig(), &alpha_sink});
    ASSERT_TRUE(alpha.ok());
    bool evicted = false;
    for (const StreamItem& item : alpha_stream) {
      const Status status = instance_a.Push(*alpha, item.ts, item.vec);
      if (!status.ok()) break;  // budget may eventually refuse alpha too
      if (instance_a.Stats().sessions_evicted > 0) {
        evicted = true;
        break;
      }
    }
    ASSERT_TRUE(evicted) << "budget never evicted the dormant session";
    beta_first_half = beta_first_half_sink.pairs();
    // instance_a is destroyed WITHOUT closing beta — the simulated
    // crash. The spill checkpoint + manifest stay on disk.
  }

  // A fresh instance enumerates the spill dir and adopts beta.
  auto listed = JoinService::ListSpilled(spill_dir);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed->size(), 1u);
  const JoinService::SpillEntry entry = (*listed)[0];
  EXPECT_EQ(entry.name, "beta");

  CollectorSink beta_rest_sink;
  {
    JoinService instance_b(JoinServiceOptions{});
    auto restored = instance_b.RestoreSession(
        {entry.name, SpillableConfig(), &beta_rest_sink},
        entry.checkpoint_path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    JoinService::RemoveSpill(entry);
    for (size_t i = half; i < beta_stream.size(); ++i) {
      ASSERT_TRUE(
          instance_b.Push(*restored, beta_stream[i].ts, beta_stream[i].vec)
              .ok());
    }
    ASSERT_TRUE(instance_b.CloseSession(*restored).ok());
  }

  // First-half pairs came from instance A, the rest from instance B; the
  // concatenation must be exactly the uninterrupted run (the restore's
  // watermark re-emits nothing).
  std::vector<ResultPair> combined = beta_first_half;
  combined.insert(combined.end(), beta_rest_sink.pairs().begin(),
                  beta_rest_sink.pairs().end());
  ExpectSamePairs(combined, expected);

  // The adoption consumed the spill: nothing left to list.
  auto after = JoinService::ListSpilled(spill_dir);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

TEST(SpillManifestTest, ListSpilledSkipsMalformedAndForeignManifests) {
  const std::string spill_dir = FreshSpillDir("malformed");
  auto write = [&spill_dir](const std::string& filename,
                            const std::string& body) {
    std::ofstream os(spill_dir + "/" + filename);
    os << body;
  };
  // 6e657773 = hex("news"); a well-formed version-1 manifest.
  write("sssj-spill-6e657773.manifest",
        "SSSJSPILL 1\nname_hex=6e657773\ncheckpoint=sssj-spill-6e657773.ckpt\n");
  // Future version: must be skipped, not a parse error.
  write("sssj-spill-ff.manifest",
        "SSSJSPILL 2\nname_hex=ff\ncheckpoint=sssj-spill-ff.ckpt\n");
  // Bad hex, odd-length hex, empty name, path-escaping checkpoint.
  write("sssj-spill-zz.manifest",
        "SSSJSPILL 1\nname_hex=zz\ncheckpoint=sssj-spill-zz.ckpt\n");
  write("sssj-spill-abc.manifest",
        "SSSJSPILL 1\nname_hex=abc\ncheckpoint=x.ckpt\n");
  write("sssj-spill-.manifest",
        "SSSJSPILL 1\nname_hex=\ncheckpoint=x.ckpt\n");
  write("sssj-spill-41.manifest",
        "SSSJSPILL 1\nname_hex=41\ncheckpoint=../../etc/passwd\n");
  // Wrong prefix / suffix: not ours at all.
  write("other-tool.manifest", "SSSJSPILL 1\nname_hex=41\ncheckpoint=x\n");
  write("sssj-spill-41.ckpt", "not a manifest");

  auto listed = JoinService::ListSpilled(spill_dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].name, "news");
  EXPECT_EQ((*listed)[0].checkpoint_path,
            spill_dir + "/sssj-spill-6e657773.ckpt");

  for (const auto& entry : *listed) JoinService::RemoveSpill(entry);
  // Leave no fixtures behind for other tests scanning TempDir.
  for (const char* leftover :
       {"sssj-spill-ff.manifest", "sssj-spill-zz.manifest",
        "sssj-spill-abc.manifest", "sssj-spill-.manifest",
        "sssj-spill-41.manifest", "other-tool.manifest",
        "sssj-spill-41.ckpt"}) {
    std::remove((spill_dir + "/" + leftover).c_str());
  }
}

TEST(SpillManifestTest, HostileSessionNamesSurviveTheRoundTrip) {
  const std::string spill_dir = FreshSpillDir("hostile_names");
  // Names with separators, spaces, newline, NUL — the manifest hex
  // encoding must carry them losslessly and the filename must stay safe.
  const std::vector<std::string> names = {
      "a/b/../c", "spaces and\ttabs", std::string("nul\0byte", 8),
      "new\nline", std::string(150, 'x'),  // long name → hashed stem
  };
  JoinServiceOptions options;
  options.memory_budget_bytes = 1;  // evict everything dormant
  options.spill_dir = spill_dir;
  JoinService service(options);
  std::vector<std::unique_ptr<CollectorSink>> sinks;
  std::vector<JoinService::SessionHandle> handles;
  for (const std::string& name : names) {
    sinks.push_back(std::make_unique<CollectorSink>());
    auto handle =
        service.CreateSession({name, SpillableConfig(), sinks.back().get()});
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  // Each push evicts the other (dormant) sessions under the 1-byte
  // budget; afterwards every session except the last pusher is spilled.
  for (size_t i = 0; i < names.size(); ++i) {
    (void)service.Push(handles[i], static_cast<double>(i),
                       sssj::testing::UnitVec({{1, 1.0}}));
  }
  auto listed = JoinService::ListSpilled(spill_dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_GE(listed->size(), names.size() - 1);
  for (const auto& entry : *listed) {
    EXPECT_NE(std::find(names.begin(), names.end(), entry.name), names.end())
        << "manifest name did not round-trip";
    // The generated filenames must be flat (no separators beyond the
    // spill dir itself).
    const std::string filename =
        entry.checkpoint_path.substr(spill_dir.size() + 1);
    EXPECT_EQ(filename.find('/'), std::string::npos);
    JoinService::RemoveSpill(entry);
  }
}

TEST(SpillManifestTest, RestoreSessionRollsBackOnBadCheckpoint) {
  const std::string spill_dir = FreshSpillDir("rollback");
  const std::string bogus = spill_dir + "/bogus.ckpt";
  {
    std::ofstream os(bogus, std::ios::binary);
    os << "SSSJENG3 but truncated";
  }
  JoinService service(JoinServiceOptions{});
  CollectorSink sink;
  auto restored =
      service.RestoreSession({"ghost", SpillableConfig(), &sink}, bogus);
  EXPECT_FALSE(restored.ok());
  // The half-born session was abandoned: the name is free again.
  EXPECT_EQ(service.num_sessions(), 0u);
  auto fresh = service.CreateSession({"ghost", SpillableConfig(), &sink});
  EXPECT_TRUE(fresh.ok());
  std::remove(bogus.c_str());
}

TEST(SpillManifestTest, ListSpilledRefusesMissingDirectory) {
  auto listed = JoinService::ListSpilled("/nonexistent/sssj/spill/dir");
  EXPECT_FALSE(listed.ok());
  EXPECT_FALSE(JoinService::ListSpilled("").ok());
}

}  // namespace
}  // namespace sssj
