// JoinService multi-tenancy: session lifecycle, error codes, aggregate
// stats, and the acceptance bar — many sessions pushed from distinct
// threads each produce output bit-identical to a standalone engine with
// the same config (run under TSan in CI: the "JoinService" test regex).
#include "core/join_service.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sinks.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

Stream SessionStream(uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = 220;
  spec.dims = 28;
  spec.seed = seed;
  return RandomStream(spec);
}

// Bitwise pair equality: ids, timestamps, and both similarity doubles.
void ExpectBitIdentical(const std::vector<ResultPair>& got,
                        const std::vector<ResultPair>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << label << " pair " << i;
    EXPECT_EQ(got[i].b, want[i].b) << label << " pair " << i;
    EXPECT_EQ(got[i].ta, want[i].ta) << label << " pair " << i;
    EXPECT_EQ(got[i].tb, want[i].tb) << label << " pair " << i;
    EXPECT_EQ(got[i].dot, want[i].dot) << label << " pair " << i;
    EXPECT_EQ(got[i].sim, want[i].sim) << label << " pair " << i;
  }
}

EngineConfig SessionConfig(size_t i) {
  EngineConfig cfg;
  cfg.theta = 0.55 + 0.05 * static_cast<double>(i % 4);
  cfg.lambda = 0.05;
  cfg.normalize_inputs = false;
  if (i % 2 == 0) {
    cfg.framework = Framework::kStreaming;
    cfg.index = IndexScheme::kL2;
  } else {
    cfg.framework = Framework::kMiniBatch;
    cfg.index = (i % 4 == 1) ? IndexScheme::kL2 : IndexScheme::kL2ap;
    cfg.num_threads = 2;  // exercises the shared service pool
  }
  return cfg;
}

// The acceptance test of the layer: ≥ 8 sessions with heterogeneous
// configs, each fed its own stream from its own thread, every one
// bit-identical to a standalone engine run sequentially.
TEST(JoinServiceTest, ConcurrentSessionsMatchStandaloneEnginesBitwise) {
  constexpr size_t kSessions = 8;

  // Standalone references, computed sequentially.
  std::vector<Stream> streams;
  std::vector<std::vector<ResultPair>> expected;
  for (size_t i = 0; i < kSessions; ++i) {
    streams.push_back(SessionStream(1000 + i));
    CollectorSink sink;
    auto engine = *SssjEngine::Make(SessionConfig(i), &sink);
    for (const StreamItem& item : streams[i]) {
      ASSERT_TRUE(engine->Push(item.ts, item.vec).ok());
    }
    engine->Flush();
    expected.push_back(sink.pairs());
    ASSERT_FALSE(expected.back().empty()) << "session " << i;
  }

  // Service run: one shared pool, one thread per session.
  JoinServiceOptions service_options;
  service_options.num_threads = 4;
  JoinService service(service_options);
  std::vector<CollectorSink> sinks(kSessions);
  std::vector<JoinService::SessionHandle> handles(kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    auto created = service.CreateSession(
        {"tenant-" + std::to_string(i), SessionConfig(i), &sinks[i]});
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    handles[i] = *created;
  }
  EXPECT_EQ(service.num_sessions(), kSessions);

  std::vector<std::thread> feeders;
  for (size_t i = 0; i < kSessions; ++i) {
    feeders.emplace_back([&, i] {
      for (const StreamItem& item : streams[i]) {
        const Status status = service.Push(handles[i], item.ts, item.vec);
        EXPECT_TRUE(status.ok()) << status.ToString();
      }
      EXPECT_TRUE(service.Flush(handles[i]).ok());
    });
  }
  for (std::thread& t : feeders) t.join();

  for (size_t i = 0; i < kSessions; ++i) {
    ExpectBitIdentical(sinks[i].pairs(), expected[i],
                       "tenant-" + std::to_string(i));
  }

  // Aggregates: every session processed its whole stream.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.num_sessions, kSessions);
  uint64_t total_pairs = 0;
  for (size_t i = 0; i < kSessions; ++i) total_pairs += expected[i].size();
  EXPECT_EQ(stats.pairs_emitted, total_pairs);
  uint64_t total_vectors = 0;
  for (const Stream& s : streams) total_vectors += s.size();
  EXPECT_EQ(stats.vectors_processed, total_vectors);
  EXPECT_GT(stats.memory_bytes, 0u);
}

// Every STR scheme runs one sequential scan whatever num_threads says:
// at 2 and 4 threads, standalone and as a session of a service with a
// 4-thread pool, it emits the 1-thread run's pair sequence bit for bit
// with the same counters, and the engine notes that the setting is
// ignored.
TEST(JoinServiceTest, StrSchemesEmitTheOneThreadSequenceAtAnyNumThreads) {
  // Few dims and short gaps: long posting lists, so many arrivals emit
  // several pairs each and the emission order is exercised.
  RandomStreamSpec spec;
  spec.n = 400;
  spec.dims = 30;
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.5;
  spec.seed = 77;
  const Stream stream = RandomStream(spec);
  JoinServiceOptions service_options;
  service_options.num_threads = 4;
  JoinService service(service_options);
  for (const IndexScheme scheme :
       {IndexScheme::kInv, IndexScheme::kL2, IndexScheme::kL2ap}) {
    EngineConfig cfg;
    cfg.framework = Framework::kStreaming;
    cfg.index = scheme;
    cfg.theta = 0.6;
    cfg.lambda = 0.05;
    CollectorSink ref_sink;
    auto ref = *SssjEngine::Make(cfg, &ref_sink);
    ASSERT_EQ(ref->PushBatch(stream).accepted, stream.size());
    ASSERT_GT(ref_sink.pairs().size(), 10u) << ToString(scheme);

    for (const int threads : {2, 4}) {
      cfg.num_threads = threads;
      const std::string label = std::string("STR-") + ToString(scheme) +
                                " threads=" + std::to_string(threads);
      CollectorSink sink;
      auto engine = *SssjEngine::Make(cfg, &sink);
      ASSERT_EQ(engine->PushBatch(stream).accepted, stream.size());
      ExpectBitIdentical(sink.pairs(), ref_sink.pairs(), label);
      EXPECT_EQ(engine->stats().ToString(), ref->stats().ToString()) << label;
      const std::vector<std::string>& notes = engine->configuration_notes();
      EXPECT_TRUE(notes.size() == 1 &&
                  notes[0].find("num_threads") != std::string::npos)
          << label;

      CollectorSink session_sink;
      auto session = service.CreateSession({label, cfg, &session_sink});
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      for (const StreamItem& item : stream) {
        ASSERT_TRUE(service.Push(*session, item.ts, item.vec).ok());
      }
      ExpectBitIdentical(session_sink.pairs(), ref_sink.pairs(),
                         label + " session");
      const StatusOr<RunStats> session_stats = service.SessionStats(*session);
      ASSERT_TRUE(session_stats.ok());
      EXPECT_EQ(session_stats->ToString(), ref->stats().ToString()) << label;
      ASSERT_TRUE(service.CloseSession(*session).ok());
    }
  }
}

TEST(JoinServiceTest, CreateValidatesNameAndConfig) {
  JoinService service;
  CollectorSink sink;

  auto unnamed = service.CreateSession({"", EngineConfig{}, &sink});
  ASSERT_FALSE(unnamed.ok());
  EXPECT_EQ(unnamed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unnamed.status().message().find("non-empty"), std::string::npos);

  EngineConfig bad;
  bad.theta = 2.0;
  auto invalid = service.CreateSession({"bad", bad, &sink});
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(invalid.status().message().find("theta must be in (0, 1]"),
            std::string::npos);
  EXPECT_EQ(service.num_sessions(), 0u);

  auto first = service.CreateSession({"dup", EngineConfig{}, &sink});
  ASSERT_TRUE(first.ok());
  auto second = service.CreateSession({"dup", EngineConfig{}, &sink});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(second.status().message().find("'dup'"), std::string::npos);
}

TEST(JoinServiceTest, FindAndCloseLifecycle) {
  JoinService service;
  CollectorSink sink;
  auto created = service.CreateSession({"alpha", EngineConfig{}, &sink});
  ASSERT_TRUE(created.ok());

  auto found = service.FindSession("alpha");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(service.Push(*found, 0.0, UnitVec({{1, 1.0}})).ok());

  auto missing = service.FindSession("beta");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("'beta'"), std::string::npos);

  ASSERT_TRUE(service.CloseSession(*created).ok());
  EXPECT_EQ(service.num_sessions(), 0u);

  // Every call on a closed handle is kNotFound.
  const Status after = service.Push(*created, 1.0, UnitVec({{1, 1.0}}));
  EXPECT_EQ(after.code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Flush(*created).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.CloseSession(*created).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.SessionStats(*created).status().code(),
            StatusCode::kNotFound);

  // The name is free again.
  EXPECT_TRUE(service.CreateSession({"alpha", EngineConfig{}, &sink}).ok());
}

TEST(JoinServiceTest, InvalidHandleIsNotFound) {
  JoinService service;
  JoinService::SessionHandle invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(service.Push(invalid, 0.0, UnitVec({{1, 1.0}})).code(),
            StatusCode::kNotFound);
}

TEST(JoinServiceTest, CloseFlushesBufferedMiniBatchResults) {
  // MB buffers up to two windows; CloseSession must drain them into the
  // session's sink, like Flush on a standalone engine.
  EngineConfig cfg;
  cfg.framework = Framework::kMiniBatch;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.9;
  cfg.lambda = 0.01;

  JoinService service;
  CollectorSink sink;
  auto handle = service.CreateSession({"mb", cfg, &sink});
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(service.Push(*handle, 0.0, UnitVec({{1, 1.0}})).ok());
  ASSERT_TRUE(service.Push(*handle, 0.1, UnitVec({{1, 1.0}})).ok());
  EXPECT_TRUE(sink.pairs().empty());  // still buffered
  ASSERT_TRUE(service.CloseSession(*handle).ok());
  EXPECT_EQ(sink.pairs().size(), 1u);
}

TEST(JoinServiceTest, PushReportsEngineRejectReasons) {
  JoinService service;
  CollectorSink sink;
  auto handle = service.CreateSession({"s", EngineConfig{}, &sink});
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(service.Push(*handle, 10.0, UnitVec({{1, 1.0}})).ok());
  const Status regressed = service.Push(*handle, 5.0, UnitVec({{1, 1.0}}));
  EXPECT_EQ(regressed.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(regressed.message().find("timestamp regression"),
            std::string::npos);
}

TEST(JoinServiceTest, PushBatchThroughHandle) {
  JoinService service;
  CollectorSink sink;
  auto handle = service.CreateSession({"batch", EngineConfig{}, &sink});
  ASSERT_TRUE(handle.ok());
  const Stream stream = SessionStream(7);
  auto result = service.PushBatch(*handle, stream);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->accepted, stream.size());
  EXPECT_TRUE(result->all_accepted());
}

TEST(JoinServiceTest, OwnedSinkChainLivesWithTheSession) {
  // The service owns the chain head; the terminal collector stays with
  // the caller so the results can be read after the session closes.
  CollectorSink collector;
  auto filter = std::make_unique<FilterSink>(
      [](const ResultPair& p) { return p.dot >= 0.0; }, &collector);

  JoinService service;
  JoinService::SessionOptions options;
  options.name = "owned";
  options.engine = EngineConfig{};
  options.owned_sink = std::move(filter);
  auto handle = service.CreateSession(std::move(options));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(service.Push(*handle, 0.0, UnitVec({{1, 1.0}})).ok());
  ASSERT_TRUE(service.Push(*handle, 0.1, UnitVec({{1, 1.0}})).ok());
  ASSERT_TRUE(service.CloseSession(*handle).ok());
  EXPECT_EQ(collector.pairs().size(), 1u);
}

TEST(JoinServiceTest, CheckpointRoundTripThroughHandles) {
  EngineConfig cfg;  // default STR-L2, single-threaded: checkpointable
  cfg.normalize_inputs = false;
  const Stream stream = SessionStream(31);
  const size_t cut = stream.size() / 2;

  CollectorSink ref_sink;
  {
    auto ref = *SssjEngine::Make(cfg, &ref_sink);
    for (const StreamItem& item : stream) ref->Push(item.ts, item.vec);
  }

  JoinService service;
  CollectorSink sink;
  auto first = service.CreateSession({"a", cfg, &sink});
  ASSERT_TRUE(first.ok());
  for (size_t i = 0; i < cut; ++i) {
    service.Push(*first, stream[i].ts, stream[i].vec);
  }
  std::stringstream checkpoint;
  const Status saved = service.SaveCheckpoint(*first, checkpoint);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  ASSERT_TRUE(service.CloseSession(*first).ok());

  auto resumed = service.CreateSession({"b", cfg, &sink});
  ASSERT_TRUE(resumed.ok());
  const Status loaded = service.LoadCheckpoint(*resumed, checkpoint);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (size_t i = cut; i < stream.size(); ++i) {
    service.Push(*resumed, stream[i].ts, stream[i].vec);
  }
  ExpectBitIdentical(sink.pairs(), ref_sink.pairs(), "resumed session");

  // An MB session checkpoints through its handle too, with the pairs still
  // pending in its windows: abandoned after the save (no flush), then
  // resumed, it ends with the uninterrupted run's pairs, each once.
  EngineConfig mb = cfg;
  mb.framework = Framework::kMiniBatch;
  CollectorSink mb_ref_sink;
  {
    auto ref = *SssjEngine::Make(mb, &mb_ref_sink);
    for (const StreamItem& item : stream) ref->Push(item.ts, item.vec);
    ref->Flush();
  }
  CollectorSink mb_sink;
  auto mb_first = service.CreateSession({"mb", mb, &mb_sink});
  ASSERT_TRUE(mb_first.ok());
  for (size_t i = 0; i < cut; ++i) {
    service.Push(*mb_first, stream[i].ts, stream[i].vec);
  }
  std::stringstream mb_checkpoint;
  const Status mb_saved = service.SaveCheckpoint(*mb_first, mb_checkpoint);
  ASSERT_TRUE(mb_saved.ok()) << mb_saved.ToString();
  ASSERT_TRUE(service.AbandonSession(*mb_first).ok());
  auto mb_resumed = service.CreateSession({"mb-resumed", mb, &mb_sink});
  ASSERT_TRUE(mb_resumed.ok());
  const Status mb_loaded = service.LoadCheckpoint(*mb_resumed, mb_checkpoint);
  ASSERT_TRUE(mb_loaded.ok()) << mb_loaded.ToString();
  for (size_t i = cut; i < stream.size(); ++i) {
    service.Push(*mb_resumed, stream[i].ts, stream[i].vec);
  }
  ASSERT_TRUE(service.CloseSession(*mb_resumed).ok());  // flushes
  ASSERT_GT(mb_ref_sink.pairs().size(), 0u);
  EXPECT_EQ(mb_sink.pairs().size(), mb_ref_sink.pairs().size());
  EXPECT_EQ(::sssj::testing::PairSet(mb_sink.pairs()),
            ::sssj::testing::PairSet(mb_ref_sink.pairs()));
}

TEST(JoinServiceTest, StatsAggregateAndSortByName) {
  JoinService service;
  CollectorSink sink;
  auto b = service.CreateSession({"bravo", EngineConfig{}, &sink});
  auto a = service.CreateSession({"alpha", EngineConfig{}, &sink});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  service.Push(*a, 0.0, UnitVec({{1, 1.0}}));
  service.Push(*a, 0.1, UnitVec({{1, 1.0}}));
  service.Push(*b, 0.0, UnitVec({{2, 1.0}}));

  const ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.sessions.size(), 2u);
  EXPECT_EQ(stats.sessions[0].name, "alpha");
  EXPECT_EQ(stats.sessions[1].name, "bravo");
  EXPECT_EQ(stats.sessions[0].vectors_processed, 2u);
  EXPECT_EQ(stats.sessions[1].vectors_processed, 1u);
  EXPECT_EQ(stats.vectors_processed, 3u);
  EXPECT_EQ(stats.pairs_emitted, 1u);  // alpha's near-identical pair

  auto a_stats = service.SessionStats(*a);
  ASSERT_TRUE(a_stats.ok());
  EXPECT_EQ(a_stats->vectors_processed, 2u);
  auto a_mem = service.SessionMemoryBytes(*a);
  ASSERT_TRUE(a_mem.ok());
  EXPECT_GT(*a_mem, 0u);
}

// Churn under concurrency: sessions created, pushed, and closed from many
// threads at once must neither crash nor corrupt the registry (TSan).
TEST(JoinServiceTest, ConcurrentCreatePushCloseChurn) {
  JoinServiceOptions service_options;
  service_options.num_threads = 2;
  JoinService service(service_options);
  constexpr int kThreads = 6;
  constexpr int kRounds = 12;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const std::string name =
            "churn-" + std::to_string(t) + "-" + std::to_string(r);
        CollectorSink sink;
        EngineConfig cfg;
        cfg.theta = 0.9;
        auto handle = service.CreateSession({name, cfg, &sink});
        ASSERT_TRUE(handle.ok()) << handle.status().ToString();
        for (int i = 0; i < 20; ++i) {
          EXPECT_TRUE(
              service.Push(*handle, 0.1 * i, UnitVec({{1, 1.0}})).ok());
        }
        service.Stats();  // aggregate while others push
        ASSERT_TRUE(service.CloseSession(*handle).ok());
        EXPECT_EQ(sink.pairs().size(), 190u);  // all 20 items pair up
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(service.num_sessions(), 0u);
}

}  // namespace
}  // namespace sssj
