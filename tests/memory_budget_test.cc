// JoinService-wide memory budget: freeze + evict-to-checkpoint keeps N
// sessions running under a cap, per-session output stays identical to an
// unbudgeted run, and an unmeetable budget degrades to kResourceExhausted
// instead of unbounded growth.
#include <dirent.h>
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/join_service.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

EngineConfig BudgetedEngineConfig() {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.001;  // long horizon → the index actually grows
  cfg.tiered.enabled = true;
  cfg.tiered.block_entries = 16;
  cfg.tiered.dormant_tail_entries = 8;
  cfg.tiered.dormant_after_appends = 4;
  return cfg;
}

Stream SessionStream(uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = 250;
  spec.dims = 25;
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.4;
  spec.seed = seed;
  return RandomStream(spec);
}

// The pairs of `stream` through an unbudgeted standalone engine; raises
// *max_bytes to the engine's final MemoryBytes().
std::vector<ResultPair> Unbudgeted(const Stream& stream, size_t* max_bytes) {
  CollectorSink sink;
  auto engine = SssjEngine::Make(BudgetedEngineConfig(), &sink);
  EXPECT_TRUE(engine.ok());
  for (const StreamItem& item : stream) {
    EXPECT_TRUE((*engine)->Push(item.ts, item.vec).ok());
  }
  *max_bytes = std::max(*max_bytes, (*engine)->MemoryBytes());
  return sink.pairs();
}

TEST(MemoryBudgetTest, SessionsKeepRunningUnderTightBudgetViaEviction) {
  constexpr int kSessions = 4;
  std::vector<Stream> streams;
  for (int s = 0; s < kSessions; ++s) {
    streams.push_back(SessionStream(1000 + s));
  }

  // Reference: unbudgeted standalone runs.
  std::vector<std::vector<ResultPair>> expected;
  size_t max_engine_bytes = 0;
  for (int s = 0; s < kSessions; ++s) {
    expected.push_back(Unbudgeted(streams[s], &max_engine_bytes));
  }

  // Budget fits roughly two full sessions — far less than all four — so
  // the service must evict dormant sessions to checkpoint files to stay
  // under it. Pushing in long per-session runs makes the other sessions
  // dormant (no recent activity) and therefore evictable.
  JoinServiceOptions options;
  options.memory_budget_bytes = 2 * max_engine_bytes + (64u << 10);
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);

  std::vector<CollectorSink> sinks(kSessions);
  std::vector<JoinService::SessionHandle> handles(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    auto handle = service.CreateSession(
        {"tenant-" + std::to_string(s), BudgetedEngineConfig(), &sinks[s]});
    ASSERT_TRUE(handle.ok()) << handle.status().message();
    handles[s] = *handle;
  }
  // Interleave in chunks: every session repeatedly goes dormant while the
  // others push, then is reloaded transparently by its next chunk.
  constexpr size_t kChunk = 50;
  for (size_t base = 0; base < streams[0].size(); base += kChunk) {
    for (int s = 0; s < kSessions; ++s) {
      const size_t end = std::min(base + kChunk, streams[s].size());
      for (size_t i = base; i < end; ++i) {
        const Status status =
            service.Push(handles[s], streams[s][i].ts, streams[s][i].vec);
        ASSERT_TRUE(status.ok())
            << "session " << s << " item " << i << ": " << status.message();
      }
    }
  }

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.sessions_evicted, 0u);  // the budget actually bit
  EXPECT_GT(stats.session_reloads, 0u);   // and sessions came back
  EXPECT_EQ(stats.budget_rejections, 0u);

  // Eviction/reload must be invisible in the output.
  for (int s = 0; s < kSessions; ++s) {
    const std::vector<ResultPair>& got = sinks[s].pairs();
    ASSERT_EQ(got.size(), expected[s].size()) << "session " << s;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].a, expected[s][i].a);
      EXPECT_EQ(got[i].b, expected[s][i].b);
      EXPECT_EQ(got[i].dot, expected[s][i].dot);
      EXPECT_EQ(got[i].sim, expected[s][i].sim);
    }
    EXPECT_TRUE(service.CloseSession(handles[s]).ok());
  }
}

TEST(MemoryBudgetTest, UnmeetableBudgetReturnsResourceExhausted) {
  // One session, no spill dir: nothing is evictable, so once the engine
  // outgrows the (tiny) budget every further push must be refused with
  // kResourceExhausted — deterministic backpressure, not an OOM.
  JoinServiceOptions options;
  options.memory_budget_bytes = 20u << 10;  // 20 KiB: a few dozen postings
  JoinService service(options);
  CollectorSink sink;
  auto handle =
      service.CreateSession({"crowded", BudgetedEngineConfig(), &sink});
  ASSERT_TRUE(handle.ok());

  const Stream stream = SessionStream(42);
  bool exhausted = false;
  for (const StreamItem& item : stream) {
    const Status status = service.Push(*handle, item.ts, item.vec);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
          << status.message();
      exhausted = true;
      break;
    }
  }
  EXPECT_TRUE(exhausted);
  EXPECT_GT(service.Stats().budget_rejections, 0u);
  // The session is still alive and closable — refusal is not corruption.
  EXPECT_TRUE(service.CloseSession(*handle).ok());
}

TEST(MemoryBudgetTest, NonEvictableSessionsCountButSurvive) {
  // An async session can never be evicted (the shared pump holds its
  // engine); with a budget it still runs until the cap is hit, and an
  // evictable inline session beside it is the one that gets spilled.
  JoinServiceOptions options;
  options.memory_budget_bytes = 4u << 20;  // roomy: nothing should trip
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);

  EngineConfig async = BudgetedEngineConfig();
  async.framework = Framework::kMiniBatch;
  async.ingest.mode = IngestMode::kAsync;
  CollectorSink mb_sink, str_sink;
  auto mbh = service.CreateSession({"mb", async, &mb_sink});
  auto strh =
      service.CreateSession({"str", BudgetedEngineConfig(), &str_sink});
  ASSERT_TRUE(mbh.ok());
  ASSERT_TRUE(strh.ok());
  const Stream stream = SessionStream(7);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(service.AsyncPush(*mbh, item.ts, item.vec).ok());
    ASSERT_TRUE(service.Push(*strh, item.ts, item.vec).ok());
  }
  ASSERT_TRUE(service.Drain(*mbh).ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.budget_rejections, 0u);
  EXPECT_EQ(stats.num_sessions, 2u);
  EXPECT_TRUE(service.CloseSession(*mbh).ok());
  EXPECT_TRUE(service.CloseSession(*strh).ok());
}

TEST(MemoryBudgetTest, SaveCheckpointOnEvictedSessionReloadsFirst) {
  // Force an eviction, then SaveCheckpoint the evicted session: the file
  // must contain the real state, not the empty stand-in engine.
  const Stream stream = SessionStream(11);

  // Size the budget so one fully grown session fits but two do not.
  size_t one_session_bytes = 0;
  {
    CollectorSink probe_sink;
    auto probe = SssjEngine::Make(BudgetedEngineConfig(), &probe_sink);
    ASSERT_TRUE(probe.ok());
    for (const StreamItem& item : stream) {
      ASSERT_TRUE((*probe)->Push(item.ts, item.vec).ok());
    }
    one_session_bytes = (*probe)->MemoryBytes();
  }

  JoinServiceOptions options;
  options.memory_budget_bytes = one_session_bytes + (one_session_bytes / 2);
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);
  CollectorSink sink_a, sink_b;
  auto a = service.CreateSession({"a", BudgetedEngineConfig(), &sink_a});
  auto b = service.CreateSession({"b", BudgetedEngineConfig(), &sink_b});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(service.Push(*a, item.ts, item.vec).ok());
  }
  // Growing session b forces dormant session a out.
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(service.Push(*b, item.ts, item.vec).ok());
  }
  ASSERT_GT(service.Stats().sessions_evicted, 0u);

  std::stringstream checkpoint;
  ASSERT_TRUE(service.SaveCheckpoint(*a, checkpoint).ok());
  // Restoring that checkpoint standalone yields session a's full state.
  CollectorSink probe_sink;
  auto probe = SssjEngine::Make(BudgetedEngineConfig(), &probe_sink);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE((*probe)->LoadCheckpoint(checkpoint).ok());
  EXPECT_EQ((*probe)->next_id(), stream.size());
}

// An MB-L2 session: evictable through the portable checkpoint, and its
// pairs stay pending in the windows until a flush.
EngineConfig MigratableMbConfig(double lambda) {
  EngineConfig cfg = BudgetedEngineConfig();
  cfg.framework = Framework::kMiniBatch;
  cfg.lambda = lambda;
  return cfg;
}

Stream TwoSegmentStream(uint64_t seed, size_t n = 500) {
  RandomStreamSpec spec;
  spec.n = n;
  spec.dims = 25;
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.4;
  spec.seed = seed;
  return RandomStream(spec);
}

// Pushes [begin, end) into session `h`, asserting every push succeeds.
void PushAll(JoinService& service, JoinService::SessionHandle h,
             Stream::const_iterator begin, Stream::const_iterator end) {
  for (auto it = begin; it != end; ++it) {
    const Status status = service.Push(h, it->ts, it->vec);
    ASSERT_TRUE(status.ok()) << status.message();
  }
}

// MemoryBytes() of a standalone engine after the first `n` items.
size_t BytesAfter(const EngineConfig& cfg, const Stream& stream, size_t n) {
  auto engine = SssjEngine::Make(cfg);
  EXPECT_TRUE(engine.ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE((*engine)->Push(stream[i].ts, stream[i].vec).ok());
  }
  return (*engine)->MemoryBytes();
}

// Peak MemoryBytes() of a standalone engine over the whole of `stream`.
size_t PeakBytes(const EngineConfig& cfg, const Stream& stream) {
  auto engine = SssjEngine::Make(cfg);
  EXPECT_TRUE(engine.ok());
  size_t peak = 0;
  for (const StreamItem& item : stream) {
    EXPECT_TRUE((*engine)->Push(item.ts, item.vec).ok());
    peak = std::max(peak, (*engine)->MemoryBytes());
  }
  return peak;
}

// The "other" session's stream: three times the victim's, so that it
// alone outgrows anything the victim reaches.
Stream OtherStream() { return TwoSegmentStream(/*seed=*/303, /*n=*/1500); }

// A budget that holds the other session's peak plus half the victim's
// first segment: pushing the other stream while the victim sits dormant
// after its first segment must evict it, and the victim alone (a fraction
// of the other's peak) is never refused.
JoinServiceOptions OneSessionBudget(size_t victim_segment_bytes,
                                    size_t other_peak) {
  JoinServiceOptions options;
  options.memory_budget_bytes = other_peak + victim_segment_bytes / 2;
  options.spill_dir = ::testing::TempDir();
  return options;
}

// Pushes `stream` into `other` and checks the budget evicted the victim.
void EvictByBudget(JoinService& service, JoinService::SessionHandle other,
                   const Stream& stream) {
  PushAll(service, other, stream.begin(), stream.end());
  const ServiceStats stats = service.Stats();
  ASSERT_GT(stats.sessions_evicted, 0u);
  bool victim_evicted = false;
  for (const ServiceStats::SessionEntry& entry : stats.sessions) {
    if (entry.name == "victim") victim_evicted = entry.evicted;
  }
  ASSERT_TRUE(victim_evicted);
}

void ExpectSamePairs(const std::vector<ResultPair>& got,
                     const std::vector<ResultPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << i;
    EXPECT_EQ(got[i].b, want[i].b) << i;
    EXPECT_EQ(got[i].dot, want[i].dot) << i;
    EXPECT_EQ(got[i].sim, want[i].sim) << i;
  }
}

TEST(MemoryBudgetTest, FlushOnEvictedSessionReloadsFirst) {
  // An evicted MB session's pending pairs live in its spill, not in the
  // empty stand-in engine: Flush must reload before flushing, exactly as
  // CloseSession does, or the pairs are lost and the stale windows later
  // re-emit against the next segment.
  const EngineConfig cfg = MigratableMbConfig(/*lambda=*/0.001);
  const Stream stream = TwoSegmentStream(101);
  const auto mid = stream.begin() + static_cast<ptrdiff_t>(stream.size() / 2);

  // Reference: the same two segments through a standalone engine.
  CollectorSink want;
  size_t want_after_flush = 0;
  {
    auto engine = SssjEngine::Make(cfg, &want);
    ASSERT_TRUE(engine.ok());
    for (auto it = stream.begin(); it != mid; ++it) {
      ASSERT_TRUE((*engine)->Push(it->ts, it->vec).ok());
    }
    (*engine)->Flush();
    want_after_flush = want.pairs().size();
    for (auto it = mid; it != stream.end(); ++it) {
      ASSERT_TRUE((*engine)->Push(it->ts, it->vec).ok());
    }
    (*engine)->Flush();
  }
  ASSERT_GT(want_after_flush, 0u);

  const Stream other_stream = OtherStream();
  JoinService service(
      OneSessionBudget(BytesAfter(cfg, stream, stream.size() / 2),
                       PeakBytes(cfg, other_stream)));
  CollectorSink got, other_sink;
  auto victim = service.CreateSession({"victim", cfg, &got});
  auto other = service.CreateSession({"other", cfg, &other_sink});
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(other.ok());
  PushAll(service, *victim, stream.begin(), mid);
  EvictByBudget(service, *other, other_stream);

  ASSERT_TRUE(service.Flush(*victim).ok());
  ExpectSamePairs(got.pairs(),
                  std::vector<ResultPair>(want.pairs().begin(),
                                          want.pairs().begin() +
                                              static_cast<ptrdiff_t>(
                                                  want_after_flush)));
  PushAll(service, *victim, mid, stream.end());
  ASSERT_TRUE(service.CloseSession(*victim).ok());
  ExpectSamePairs(got.pairs(), want.pairs());
}

TEST(MemoryBudgetTest, RefusedLoadOnEvictedSessionKeepsItsState) {
  // A refused LoadCheckpoint leaves an evicted session as it was: its
  // state is still the spill, which the next push reloads, so the items
  // pushed before the eviction keep pairing with the later ones.
  const EngineConfig cfg = BudgetedEngineConfig();
  const Stream stream = TwoSegmentStream(404);
  constexpr size_t kBeforeEviction = 3;
  const auto resume =
      stream.begin() + static_cast<ptrdiff_t>(kBeforeEviction);
  size_t unused_bytes = 0;
  const std::vector<ResultPair> want = Unbudgeted(stream, &unused_bytes);
  ASSERT_TRUE(std::any_of(want.begin(), want.end(), [](const ResultPair& p) {
    return std::min(p.a, p.b) < kBeforeEviction;
  })) << "no pair reaches back to the evicted items — the pin is vacuous";

  const Stream other_stream = OtherStream();
  JoinService service(OneSessionBudget(
      BytesAfter(cfg, stream, kBeforeEviction), PeakBytes(cfg, other_stream)));
  CollectorSink got, other_sink;
  auto victim = service.CreateSession({"victim", cfg, &got});
  auto other = service.CreateSession({"other", cfg, &other_sink});
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(other.ok());
  PushAll(service, *victim, stream.begin(), resume);
  EvictByBudget(service, *other, other_stream);

  std::istringstream garbage(std::string(16, '\x5a'));
  EXPECT_EQ(service.LoadCheckpoint(*victim, garbage).code(),
            StatusCode::kDataLoss);
  PushAll(service, *victim, resume, stream.end());
  ExpectSamePairs(got.pairs(), want);
}

TEST(MemoryBudgetTest, SessionCountersSurviveEvictionAndReload) {
  // vectors_processed and pairs_emitted are session-lifetime counters:
  // accepted pushes and delivered pairs, before eviction, while evicted
  // (the stand-in engine has counted nothing) and after the reload (whose
  // replay must not count the live items a second time). Covers the
  // native STR-L2 spill and the portable MB spill, whose replay delivers
  // pending pairs.
  struct Case {
    const char* name;
    EngineConfig cfg;
  };
  const Case cases[] = {{"str-l2-native", BudgetedEngineConfig()},
                        {"mb-l2-portable", MigratableMbConfig(0.02)}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Stream stream = TwoSegmentStream(202);
    const auto mid =
        stream.begin() + static_cast<ptrdiff_t>(stream.size() / 2);
    const Stream other_stream = OtherStream();
    JoinService service(
        OneSessionBudget(BytesAfter(c.cfg, stream, stream.size() / 2),
                         PeakBytes(c.cfg, other_stream)));
    CollectorSink sink, other_sink;
    auto victim = service.CreateSession({"victim", c.cfg, &sink});
    auto other = service.CreateSession({"other", c.cfg, &other_sink});
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(other.ok());

    auto expect_counters = [&](uint64_t pushes, const char* when) {
      auto stats = service.SessionStats(*victim);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->vectors_processed, pushes) << when;
      EXPECT_EQ(stats->pairs_emitted, sink.pairs().size()) << when;
      for (const ServiceStats::SessionEntry& entry :
           service.Stats().sessions) {
        if (entry.name != "victim") continue;
        EXPECT_EQ(entry.vectors_processed, pushes) << when;
        EXPECT_EQ(entry.pairs_emitted, sink.pairs().size()) << when;
      }
    };

    PushAll(service, *victim, stream.begin(), mid);
    expect_counters(stream.size() / 2, "before eviction");
    EvictByBudget(service, *other, other_stream);
    expect_counters(stream.size() / 2, "while evicted");
    PushAll(service, *victim, mid, stream.end());
    EXPECT_GT(service.Stats().session_reloads, 0u);
    expect_counters(stream.size(), "after reload");
    EXPECT_GT(sink.pairs().size(), 0u);
  }
}

// A new, empty directory under the test temp dir.
std::string FreshDir() {
  std::string dir = ::testing::TempDir() + "sssj-budget-XXXXXX";
  EXPECT_NE(::mkdtemp(dir.data()), nullptr);
  return dir;
}

// The entries of `dir`, without "." and "..".
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> entries;
  DIR* handle = ::opendir(dir.c_str());
  EXPECT_NE(handle, nullptr) << dir;
  if (handle == nullptr) return entries;
  for (dirent* ent = ::readdir(handle); ent != nullptr;
       ent = ::readdir(handle)) {
    const std::string name = ent->d_name;
    if (name != "." && name != "..") entries.push_back(name);
  }
  ::closedir(handle);
  return entries;
}

// Two services on one spill dir, with the same session names and
// different streams: each eviction writes its own file, so neither
// service ever reloads the other's state, and no spill outlives the
// service that wrote it.
TEST(MemoryBudgetTest, ServicesSharingASpillDirKeepTheirOwnSpills) {
  constexpr int kInstances = 2;
  constexpr int kSessions = 4;
  std::vector<Stream> streams;
  std::vector<std::vector<ResultPair>> expected;
  size_t max_engine_bytes = 0;
  for (int k = 0; k < kInstances; ++k) {
    for (int s = 0; s < kSessions; ++s) {
      streams.push_back(SessionStream(1000 + 100 * k + s));
      expected.push_back(Unbudgeted(streams.back(), &max_engine_bytes));
    }
  }
  const std::string spill_dir = FreshDir();
  {
    // The budget of SessionsKeepRunningUnderTightBudgetViaEviction.
    JoinServiceOptions options;
    options.memory_budget_bytes = 2 * max_engine_bytes + (64u << 10);
    options.spill_dir = spill_dir;
    std::vector<std::unique_ptr<JoinService>> services;
    std::vector<CollectorSink> sinks(kInstances * kSessions);
    std::vector<JoinService::SessionHandle> handles;
    for (int k = 0; k < kInstances; ++k) {
      services.push_back(std::make_unique<JoinService>(options));
      for (int s = 0; s < kSessions; ++s) {
        auto handle = services[k]->CreateSession(
            {"tenant-" + std::to_string(s), BudgetedEngineConfig(),
             &sinks[k * kSessions + s]});
        ASSERT_TRUE(handle.ok()) << handle.status().message();
        handles.push_back(*handle);
      }
    }
    // Each round, every session of instance 0 and then of instance 1
    // pushes a chunk: the two evict and reload tenants of the same names
    // in turn.
    constexpr size_t kChunk = 50;
    for (size_t base = 0; base < streams[0].size(); base += kChunk) {
      for (int k = 0; k < kInstances; ++k) {
        for (int s = 0; s < kSessions; ++s) {
          const size_t i = static_cast<size_t>(k * kSessions + s);
          const size_t end = std::min(base + kChunk, streams[i].size());
          PushAll(*services[k], handles[i], streams[i].begin() + base,
                  streams[i].begin() + end);
          ASSERT_FALSE(::testing::Test::HasFatalFailure())
              << "instance " << k << " session " << s;
        }
      }
    }
    bool spilled_at_exit = false;
    for (int k = 0; k < kInstances; ++k) {
      const ServiceStats stats = services[k]->Stats();
      EXPECT_GT(stats.sessions_evicted, 0u) << "instance " << k;
      EXPECT_GT(stats.session_reloads, 0u) << "instance " << k;
      for (const ServiceStats::SessionEntry& entry : stats.sessions) {
        spilled_at_exit = spilled_at_exit || entry.evicted;
      }
      for (int s = 0; s < kSessions; ++s) {
        SCOPED_TRACE("instance " + std::to_string(k) + " session " +
                     std::to_string(s));
        const size_t i = static_cast<size_t>(k * kSessions + s);
        ExpectSamePairs(sinks[i].pairs(), expected[i]);
      }
    }
    // The services go away with sessions still evicted: their spills
    // must go with them.
    ASSERT_TRUE(spilled_at_exit);
    EXPECT_FALSE(DirEntries(spill_dir).empty());
  }
  EXPECT_TRUE(DirEntries(spill_dir).empty());
  ::rmdir(spill_dir.c_str());
}

// Session names are never part of a spill path: names with separators,
// dot-dot, a newline, '=' and 300 bytes evict and reload with their
// output bits intact, and every spill is a plain file directly in
// spill_dir.
TEST(MemoryBudgetTest, HostileSessionNamesNeverReachASpillPath) {
  const std::vector<std::string> names = {"/", "..", "\n", "=",
                                          std::string(300, 'x')};
  std::vector<Stream> streams;
  std::vector<std::vector<ResultPair>> expected;
  size_t max_engine_bytes = 0;
  for (size_t s = 0; s < names.size(); ++s) {
    streams.push_back(SessionStream(4000 + s));
    expected.push_back(Unbudgeted(streams.back(), &max_engine_bytes));
  }
  // spill_dir sits alone in a fresh parent, so a path that escaped it
  // would show up there.
  const std::string parent = FreshDir();
  const std::string spill_dir = parent + "/spill";
  ASSERT_EQ(::mkdir(spill_dir.c_str(), 0700), 0);
  {
    JoinServiceOptions options;
    options.memory_budget_bytes = max_engine_bytes + (64u << 10);
    options.spill_dir = spill_dir;
    JoinService service(options);
    std::vector<CollectorSink> sinks(names.size());
    std::vector<JoinService::SessionHandle> handles;
    for (size_t s = 0; s < names.size(); ++s) {
      auto handle =
          service.CreateSession({names[s], BudgetedEngineConfig(), &sinks[s]});
      ASSERT_TRUE(handle.ok()) << handle.status().message();
      handles.push_back(*handle);
    }
    std::set<std::string> ever_evicted;
    constexpr size_t kChunk = 50;
    for (size_t base = 0; base < streams[0].size(); base += kChunk) {
      for (size_t s = 0; s < names.size(); ++s) {
        const size_t end = std::min(base + kChunk, streams[s].size());
        PushAll(service, handles[s], streams[s].begin() + base,
                streams[s].begin() + end);
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "session " << s;
        size_t evicted = 0;
        for (const ServiceStats::SessionEntry& entry :
             service.Stats().sessions) {
          if (!entry.evicted) continue;
          ++evicted;
          ever_evicted.insert(entry.name);
        }
        const std::vector<std::string> files = DirEntries(spill_dir);
        EXPECT_EQ(files.size(), evicted);
        for (const std::string& file : files) {
          struct stat st;
          ASSERT_EQ(::stat((spill_dir + "/" + file).c_str(), &st), 0) << file;
          EXPECT_TRUE(S_ISREG(st.st_mode)) << file;
        }
        EXPECT_EQ(DirEntries(parent), std::vector<std::string>{"spill"});
      }
    }
    EXPECT_EQ(ever_evicted.size(), names.size());
    for (size_t s = 0; s < names.size(); ++s) {
      SCOPED_TRACE("session " + std::to_string(s));
      ASSERT_TRUE(service.CloseSession(handles[s]).ok());
      ExpectSamePairs(sinks[s].pairs(), expected[s]);
    }
    EXPECT_TRUE(DirEntries(spill_dir).empty());
  }
  ::rmdir(spill_dir.c_str());
  ::rmdir(parent.c_str());
}

// An eviction that cannot create its spill file leaves the victim
// resident and intact: the push that needed the room is refused instead.
TEST(MemoryBudgetTest, UncreatableSpillFileKeepsTheVictimResident) {
  const Stream stream = SessionStream(13);
  JoinServiceOptions options;
  options.memory_budget_bytes = PeakBytes(BudgetedEngineConfig(), stream) + 1;
  options.spill_dir = "/nonexistent/sssj/spill/dir";
  JoinService service(options);
  CollectorSink sink_a, sink_b;
  auto a = service.CreateSession({"a", BudgetedEngineConfig(), &sink_a});
  auto b = service.CreateSession({"b", BudgetedEngineConfig(), &sink_b});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  PushAll(service, *a, stream.begin(), stream.end());
  Status refused = Status::Ok();
  for (const StreamItem& item : stream) {
    refused = service.Push(*b, item.ts, item.vec);
    if (!refused.ok()) break;
  }
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted)
      << refused.ToString();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.sessions_evicted, 0u);
  EXPECT_GT(stats.budget_rejections, 0u);
  const auto a_stats = service.SessionStats(*a);
  ASSERT_TRUE(a_stats.ok());
  EXPECT_EQ(a_stats->vectors_processed, stream.size());
}

}  // namespace
}  // namespace sssj
