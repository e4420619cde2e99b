// SssjEngine facade: config validation (Status codes + pinned diagnostic
// messages), input cleaning, id assignment, per-item reject reasons, the
// configuration notes for ignored knobs, and end-to-end equivalence with
// the oracle through the public API.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::Item;
using ::sssj::testing::PairSet;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::RawVec;
using ::sssj::testing::UnitVec;

TEST(EngineTest, MakeRejectsInvalidThetaWithPinnedDiagnostic) {
  EngineConfig cfg;
  cfg.theta = 0.0;
  auto zero = SssjEngine::Make(cfg);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(zero.status().message().find("theta must be in (0, 1]"),
            std::string::npos);
  EXPECT_NE(zero.status().message().find("got 0"), std::string::npos);

  cfg.theta = 1.5;
  auto big = SssjEngine::Make(cfg);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(big.status().message().find("got 1.5"), std::string::npos);
}

TEST(EngineTest, MakeRejectsNegativeLambdaWithPinnedDiagnostic) {
  EngineConfig cfg;
  cfg.lambda = -1.0;
  auto made = SssjEngine::Make(cfg);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(made.status().message().find("lambda must be finite and >= 0"),
            std::string::npos);
  EXPECT_NE(made.status().message().find("got -1"), std::string::npos);
}

TEST(EngineTest, MakeRejectsStreamingApWithPaperRationale) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kAp;
  auto made = SssjEngine::Make(cfg);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kUnimplemented);
  // The message must teach, not just refuse: name the combination, the
  // paper's rationale, and the alternatives.
  EXPECT_NE(made.status().message().find("STR-AP is not supported"),
            std::string::npos);
  EXPECT_NE(made.status().message().find("§5.2"), std::string::npos);
  EXPECT_NE(made.status().message().find("use STR-L2AP or MB-AP"),
            std::string::npos);
}

TEST(EngineTest, MakeAcceptsMiniBatchAp) {
  EngineConfig cfg;
  cfg.framework = Framework::kMiniBatch;
  cfg.index = IndexScheme::kAp;
  EXPECT_TRUE(SssjEngine::Make(cfg).ok());
}

TEST(EngineTest, AllSupportedCombinationsConstruct) {
  for (Framework fw : {Framework::kMiniBatch, Framework::kStreaming}) {
    for (IndexScheme ix : {IndexScheme::kInv, IndexScheme::kL2ap,
                           IndexScheme::kL2}) {
      EngineConfig cfg;
      cfg.framework = fw;
      cfg.index = ix;
      EXPECT_TRUE(SssjEngine::Make(cfg).ok())
          << ToString(fw) << "-" << ToString(ix);
    }
  }
}

TEST(EngineTest, PushNormalizesInputsByDefault) {
  EngineConfig cfg;
  cfg.theta = 0.99;
  cfg.lambda = 0.01;
  CollectorSink sink;
  auto engine = *SssjEngine::Make(cfg, &sink);
  // Same direction, different magnitudes → cosine 1 after normalization.
  EXPECT_TRUE(engine->Push(0.0, RawVec({{1, 2.0}, {2, 4.0}})).ok());
  EXPECT_TRUE(engine->Push(0.1, RawVec({{1, 5.0}, {2, 10.0}})).ok());
  engine->Flush();
  ASSERT_EQ(sink.pairs().size(), 1u);
  EXPECT_NEAR(sink.pairs()[0].dot, 1.0, 1e-9);
}

TEST(EngineTest, PushRejectsNonUnitWhenNormalizationDisabled) {
  EngineConfig cfg;
  cfg.normalize_inputs = false;
  auto engine = *SssjEngine::Make(cfg);
  const Status status = engine->Push(0.0, RawVec({{1, 2.0}}));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("not unit-normalized"), std::string::npos);
  EXPECT_NE(status.message().find("normalize_inputs"), std::string::npos);
  EXPECT_TRUE(engine->Push(0.0, UnitVec({{1, 2.0}})).ok());
}

TEST(EngineTest, PushRejectsEmptyAndNonFiniteWithReasons) {
  auto engine = *SssjEngine::Make(EngineConfig{});
  const Status empty = engine->Push(0.0, SparseVector());
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("empty after cleaning"), std::string::npos);

  // Cleaned away: the only coordinate is negative.
  const Status cleaned = engine->Push(0.0, RawVec({{1, -3.0}}));
  EXPECT_EQ(cleaned.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cleaned.message().find("empty after cleaning"),
            std::string::npos);

  const Status bad_ts = engine->Push(std::nan(""), UnitVec({{1, 1.0}}));
  EXPECT_EQ(bad_ts.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_ts.message().find("timestamp must be finite"),
            std::string::npos);
}

TEST(EngineTest, RejectedPushDoesNotConsumeId) {
  auto engine = *SssjEngine::Make(EngineConfig{});
  EXPECT_EQ(engine->next_id(), 0u);
  EXPECT_FALSE(engine->Push(0.0, SparseVector()).ok());  // rejected
  EXPECT_EQ(engine->next_id(), 0u);
  EXPECT_TRUE(engine->Push(0.0, UnitVec({{1, 1.0}})).ok());
  EXPECT_EQ(engine->next_id(), 1u);
}

TEST(EngineTest, OutOfOrderTimestampRejectedWithBothTimes) {
  auto engine = *SssjEngine::Make(EngineConfig{});
  EXPECT_TRUE(engine->Push(10.0, UnitVec({{1, 1.0}})).ok());
  const Status status = engine->Push(9.0, UnitVec({{1, 1.0}}));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("timestamp regression"), std::string::npos);
  EXPECT_NE(status.message().find("9"), std::string::npos);
  EXPECT_NE(status.message().find("10"), std::string::npos);
  EXPECT_TRUE(engine->Push(10.0, UnitVec({{1, 1.0}})).ok());
}

// PushBatch partial acceptance: invalid items interleaved with valid ones
// must not stop the batch, must not consume ids, and must surface one
// precise reject reason per bad item.
TEST(EngineTest, PushBatchPartialAcceptanceReportsPerItemReasons) {
  for (Framework fw : {Framework::kMiniBatch, Framework::kStreaming}) {
    EngineConfig cfg;
    cfg.framework = fw;
    auto engine = *SssjEngine::Make(cfg);

    Stream batch;
    batch.push_back(Item(0, 1.0, UnitVec({{1, 1.0}})));       // ok → id 0
    batch.push_back(Item(0, 2.0, SparseVector()));            // empty
    batch.push_back(Item(0, 3.0, UnitVec({{2, 1.0}})));       // ok → id 1
    batch.push_back(Item(0, 0.5, UnitVec({{3, 1.0}})));       // regression
    batch.push_back(Item(0, 4.0, UnitVec({{1, 1.0}})));       // ok → id 2

    const BatchPushResult result = engine->PushBatch(batch);
    EXPECT_EQ(result.accepted, 3u) << ToString(fw);
    EXPECT_FALSE(result.all_accepted());
    ASSERT_EQ(result.rejects.size(), 2u);

    EXPECT_EQ(result.rejects[0].index, 1u);
    EXPECT_EQ(result.rejects[0].status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.rejects[0].status.message().find("empty after cleaning"),
              std::string::npos);

    EXPECT_EQ(result.rejects[1].index, 3u);
    EXPECT_EQ(result.rejects[1].status.code(),
              StatusCode::kFailedPrecondition);
    EXPECT_NE(result.rejects[1].status.message().find("timestamp regression"),
              std::string::npos);

    // Id continuity: rejects consumed no ids, so the three accepted items
    // got ids 0, 1, 2 and the next accept continues from 3.
    EXPECT_EQ(engine->next_id(), 3u);
    EXPECT_TRUE(engine->Push(5.0, UnitVec({{4, 1.0}})).ok());
    EXPECT_EQ(engine->next_id(), 4u);
  }
}

TEST(EngineTest, PushBatchAllAcceptedHasNoRejects) {
  auto engine = *SssjEngine::Make(EngineConfig{});
  Stream batch;
  batch.push_back(Item(0, 1.0, UnitVec({{1, 1.0}})));
  batch.push_back(Item(0, 2.0, UnitVec({{2, 1.0}})));
  const BatchPushResult result = engine->PushBatch(batch);
  EXPECT_EQ(result.accepted, 2u);
  EXPECT_TRUE(result.all_accepted());
}

TEST(EngineTest, EndToEndMatchesOracleBothFrameworks) {
  RandomStreamSpec spec;
  spec.n = 250;
  spec.dims = 30;
  spec.seed = 44;
  const Stream stream = RandomStream(spec);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));

  for (Framework fw : {Framework::kMiniBatch, Framework::kStreaming}) {
    EngineConfig cfg;
    cfg.framework = fw;
    cfg.index = IndexScheme::kL2;
    cfg.theta = params.theta;
    cfg.lambda = params.lambda;
    CollectorSink sink;
    auto engine = *SssjEngine::Make(cfg, &sink);
    for (const StreamItem& item : stream) {
      ASSERT_TRUE(engine->Push(item.ts, item.vec).ok());
    }
    engine->Flush();
    ExpectMatchesOracle(stream, params, sink.pairs());
    EXPECT_EQ(engine->stats().vectors_processed, stream.size());
  }
}

TEST(EngineTest, BindSinkRedirectsSubsequentPushes) {
  EngineConfig cfg;
  cfg.theta = 0.9;
  CollectorSink first, second;
  auto engine = *SssjEngine::Make(cfg, &first);
  EXPECT_EQ(engine->sink(), &first);
  engine->Push(0.0, UnitVec({{1, 1.0}}));
  engine->Push(0.01, UnitVec({{1, 1.0}}));  // pair lands in `first`
  engine->BindSink(&second);
  engine->Push(0.02, UnitVec({{1, 1.0}}));  // pairs land in `second`
  engine->Flush();
  EXPECT_EQ(first.pairs().size(), 1u);
  EXPECT_EQ(second.pairs().size(), 2u);  // new item pairs with both others
}

TEST(EngineTest, NullSinkDiscardsResultsSafely) {
  EngineConfig cfg;
  cfg.theta = 0.9;
  auto engine = *SssjEngine::Make(cfg);  // no sink bound
  EXPECT_TRUE(engine->Push(0.0, UnitVec({{1, 1.0}})).ok());
  EXPECT_TRUE(engine->Push(0.01, UnitVec({{1, 1.0}})).ok());
  engine->Flush();
  EXPECT_EQ(engine->stats().vectors_processed, 2u);
}

TEST(EngineTest, ParseAndToStringRoundTrip) {
  auto fw = ParseFramework("MB");
  ASSERT_TRUE(fw.ok());
  EXPECT_EQ(*fw, Framework::kMiniBatch);
  fw = ParseFramework("streaming");
  ASSERT_TRUE(fw.ok());
  EXPECT_EQ(*fw, Framework::kStreaming);
  fw = ParseFramework("bogus");
  ASSERT_FALSE(fw.ok());
  EXPECT_EQ(fw.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fw.status().message().find("unknown framework 'bogus'"),
            std::string::npos);

  auto ix = ParseIndexScheme("l2ap");
  ASSERT_TRUE(ix.ok());
  EXPECT_EQ(*ix, IndexScheme::kL2ap);
  EXPECT_EQ(*ParseIndexScheme("INV"), IndexScheme::kInv);
  EXPECT_EQ(*ParseIndexScheme("L2"), IndexScheme::kL2);
  EXPECT_EQ(*ParseIndexScheme("ap"), IndexScheme::kAp);
  ix = ParseIndexScheme("l3");
  ASSERT_FALSE(ix.ok());
  EXPECT_EQ(ix.status().code(), StatusCode::kInvalidArgument);

  EXPECT_STREQ(ToString(Framework::kMiniBatch), "MB");
  EXPECT_STREQ(ToString(IndexScheme::kL2ap), "L2AP");
}

TEST(EngineTest, EveryIndexSchemeRoundTripsThroughItsName) {
  const struct {
    IndexScheme scheme;
    const char* lower;
  } kSchemes[] = {{IndexScheme::kInv, "inv"},
                  {IndexScheme::kAp, "ap"},
                  {IndexScheme::kL2ap, "l2ap"},
                  {IndexScheme::kL2, "l2"}};
  for (const auto& entry : kSchemes) {
    const std::string name = ToString(entry.scheme);
    auto parsed = ParseIndexScheme(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, entry.scheme) << name;
    parsed = ParseIndexScheme(entry.lower);
    ASSERT_TRUE(parsed.ok()) << entry.lower;
    EXPECT_EQ(*parsed, entry.scheme) << entry.lower;
  }
  // One past kL2 names no scheme.
  EXPECT_STREQ(ToString(static_cast<IndexScheme>(4)), "?");
}

TEST(EngineTest, ParseIndexSchemeRefusesRetiredAuto) {
  for (const std::string name : {"AUTO", "auto", "Auto"}) {
    auto ix = ParseIndexScheme(name);
    ASSERT_FALSE(ix.ok()) << name;
    EXPECT_EQ(ix.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(ix.status().message().find("unknown index scheme '" + name +
                                         "'"),
              std::string::npos)
        << ix.status().ToString();
    EXPECT_NE(ix.status().message().find("(expected INV, AP, L2AP, or L2)"),
              std::string::npos)
        << ix.status().ToString();
  }
}

TEST(EngineTest, MakeRejectsUnknownIndexScheme) {
  for (const Framework framework :
       {Framework::kStreaming, Framework::kMiniBatch}) {
    EngineConfig cfg;
    cfg.framework = framework;
    cfg.index = static_cast<IndexScheme>(4);  // one past kL2
    auto engine = SssjEngine::Make(cfg);
    ASSERT_FALSE(engine.ok()) << ToString(framework);
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(engine.status().message().find("unknown index scheme 4"),
              std::string::npos)
        << engine.status().ToString();
  }
}

TEST(EngineTest, CallbackSinkReceivesPairs) {
  EngineConfig cfg;
  cfg.theta = 0.9;
  int calls = 0;
  CallbackSink sink([&](const ResultPair& p) {
    ++calls;
    EXPECT_LT(p.a, p.b);
  });
  EXPECT_TRUE(sink.status().ok());
  auto engine = *SssjEngine::Make(cfg, &sink);
  engine->Push(0.0, UnitVec({{1, 1.0}}));
  engine->Push(0.01, UnitVec({{1, 1.0}}));
  engine->Flush();
  EXPECT_EQ(calls, 1);
}

TEST(EngineTest, EmptyCallbackSinkIsAnErrorNotACrash) {
  CallbackSink sink{CallbackSink::Callback()};
  EXPECT_FALSE(sink.status().ok());
  EXPECT_EQ(sink.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sink.status().message().find("empty callback"),
            std::string::npos);
  // Emitting through it must be a no-op, not std::bad_function_call.
  EngineConfig cfg;
  cfg.theta = 0.9;
  auto engine = *SssjEngine::Make(cfg, &sink);
  EXPECT_TRUE(engine->Push(0.0, UnitVec({{1, 1.0}})).ok());
  EXPECT_TRUE(engine->Push(0.01, UnitVec({{1, 1.0}})).ok());
  engine->Flush();
  EXPECT_EQ(engine->stats().pairs_emitted, 1u);
}

TEST(EngineTest, ConfigurationNotesSurfaceIgnoredKnobs) {
  auto has_note = [](const std::vector<std::string>& notes,
                     const std::string& needle) {
    for (const std::string& n : notes) {
      if (n.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  {
    // STR-INV ignores num_threads.
    EngineConfig cfg;
    cfg.framework = Framework::kStreaming;
    cfg.index = IndexScheme::kInv;
    cfg.num_threads = 4;
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(has_note((*engine)->configuration_notes(), "num_threads"));
  }
  {
    // STR-L2AP ignores num_threads.
    EngineConfig cfg;
    cfg.framework = Framework::kStreaming;
    cfg.index = IndexScheme::kL2ap;
    cfg.num_threads = 2;
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(has_note((*engine)->configuration_notes(), "num_threads"));
  }
  {
    // MB ignores tiered storage.
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.index = IndexScheme::kL2;
    cfg.tiered.enabled = true;
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(has_note((*engine)->configuration_notes(), "tiered"));
  }
  {
    // Everything in effect → no notes.
    EngineConfig cfg;  // STR-L2, 1 thread, untiered
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE((*engine)->configuration_notes().empty());
  }
  {
    // STR-L2 ignores num_threads too: every STR scheme runs one
    // sequential scan.
    EngineConfig cfg;
    cfg.num_threads = 2;
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(has_note((*engine)->configuration_notes(), "num_threads"));
  }
  {
    // A shared pool with num_threads <= 1 is never used, and says so once.
    EngineConfig cfg;
    cfg.pool = std::make_shared<ThreadPool>(2);
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    const std::vector<std::string>& notes = (*engine)->configuration_notes();
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_TRUE(has_note(notes, "shared thread pool is unused"));
  }
  {
    // The notes depend on the config alone: a caller reads them without
    // an engine, and Make stores the same list.
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.tiered.enabled = true;
    cfg.pool = std::make_shared<ThreadPool>(2);
    const std::vector<std::string> notes = ConfigurationNotes(cfg);
    ASSERT_EQ(notes.size(), 2u);
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ((*engine)->configuration_notes(), notes);
  }
}

// STR engines at num_threads > 1: every STR scheme runs its one
// sequential scan at any thread count, so batch ingestion, per-item
// rejects and the oracle all hold as at one thread.
class StrNumThreadsTest : public ::testing::TestWithParam<IndexScheme> {};

// Few dims and short gaps: long posting lists, many candidates.
Stream DenseishStream(uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = 500;
  spec.dims = 30;
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.5;
  spec.seed = seed;
  return RandomStream(spec);
}

EngineConfig StrConfig(IndexScheme scheme, int threads, double theta,
                       double lambda) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = scheme;
  cfg.theta = theta;
  cfg.lambda = lambda;
  cfg.num_threads = threads;
  return cfg;
}

TEST_P(StrNumThreadsTest, MatchesBruteForceOracle) {
  const Stream stream = DenseishStream(3);
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  CollectorSink sink;
  auto engine = *SssjEngine::Make(
      StrConfig(GetParam(), 4, params.theta, params.lambda), &sink);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->PushBatch(stream).accepted, stream.size());
  EXPECT_FALSE(sink.pairs().empty()) << "vacuous test stream";
  ExpectMatchesOracle(stream, params, sink.pairs());
}

TEST_P(StrNumThreadsTest, PushBatchMatchesPerItemPush) {
  const Stream stream = DenseishStream(19);
  const EngineConfig cfg = StrConfig(GetParam(), 2, 0.6, 0.05);
  CollectorSink batch_sink, item_sink;
  auto batch_engine = *SssjEngine::Make(cfg, &batch_sink);
  auto item_engine = *SssjEngine::Make(cfg, &item_sink);
  ASSERT_NE(batch_engine, nullptr);
  ASSERT_NE(item_engine, nullptr);
  EXPECT_EQ(batch_engine->PushBatch(stream).accepted, stream.size());
  for (const StreamItem& item : stream) {
    EXPECT_TRUE(item_engine->Push(item.ts, item.vec).ok());
  }
  EXPECT_FALSE(batch_sink.pairs().empty()) << "vacuous test stream";
  EXPECT_EQ(batch_sink.pairs().size(), item_sink.pairs().size());
  EXPECT_EQ(PairSet(batch_sink.pairs()), PairSet(item_sink.pairs()));
  EXPECT_EQ(batch_engine->next_id(), item_engine->next_id());
}

TEST_P(StrNumThreadsTest, PushBatchSkipsInvalidItemsAndContinues) {
  CollectorSink sink;
  auto engine = *SssjEngine::Make(StrConfig(GetParam(), 2, 0.7, 0.01), &sink);
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

INSTANTIATE_TEST_SUITE_P(Str, StrNumThreadsTest,
                         ::testing::Values(IndexScheme::kInv, IndexScheme::kL2,
                                           IndexScheme::kL2ap),
                         [](const ::testing::TestParamInfo<IndexScheme>& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace sssj
