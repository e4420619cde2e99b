// Engine checkpoints (SSSJENG3): every configuration saves and loads, a
// resumed job produces exactly the output of an uninterrupted run, and the
// loader refuses bad bytes without touching the live engine.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::PairSet;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

Stream TestStream() {
  RandomStreamSpec spec;
  spec.n = 400;
  spec.dims = 30;
  spec.max_nnz = 6;
  spec.seed = 500;
  return RandomStream(spec);
}

TEST(CheckpointTest, EngineLoadRejectsGarbageWithClearError) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  const std::string path = ::testing::TempDir() + "/sssj_garbage.ckp";
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a checkpoint at all, not even close";
  }
  auto engine = *SssjEngine::Make(cfg);
  const Status status = engine->LoadCheckpoint(path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("not a sssj engine checkpoint"),
            std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, EngineLoadReportsParameterMismatch) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  cfg.normalize_inputs = false;
  const Stream stream = TestStream();
  const std::string path = ::testing::TempDir() + "/sssj_mismatch.ckp";
  {
    CollectorSink sink;
    auto engine = *SssjEngine::Make(cfg, &sink);
    for (size_t i = 0; i < 50; ++i) {
      engine->Push(stream[i].ts, stream[i].vec);
    }
    const Status saved = engine->SaveCheckpoint(path);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  cfg.theta = 0.8;  // different engine params
  auto engine = *SssjEngine::Make(cfg);
  const Status status = engine->LoadCheckpoint(path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("parameter mismatch"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, EngineRoundTripThroughFile) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  cfg.normalize_inputs = false;
  const Stream stream = TestStream();
  const size_t cut = stream.size() / 3;
  const std::string path = ::testing::TempDir() + "/sssj_engine.ckp";

  // Reference.
  CollectorSink ref_sink;
  auto ref = *SssjEngine::Make(cfg, &ref_sink);
  for (const StreamItem& item : stream) {
    ref->Push(item.ts, item.vec);
  }

  // Interrupted + resumed.
  CollectorSink sink;
  {
    auto engine = *SssjEngine::Make(cfg, &sink);
    for (size_t i = 0; i < cut; ++i) {
      engine->Push(stream[i].ts, stream[i].vec);
    }
    const Status saved = engine->SaveCheckpoint(path);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  {
    auto engine = *SssjEngine::Make(cfg, &sink);
    const Status loaded = engine->LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_EQ(engine->next_id(), cut);
    // Time order is still enforced after restore, with the precise reason.
    const Status regressed =
        engine->Push(stream[cut].ts - 100.0, stream[cut].vec);
    EXPECT_EQ(regressed.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(regressed.message().find("timestamp regression"),
              std::string::npos);
    for (size_t i = cut; i < stream.size(); ++i) {
      ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
    }
  }
  EXPECT_EQ(PairSet(sink.pairs()), PairSet(ref_sink.pairs()));
  std::remove(path.c_str());
}

TEST(CheckpointTest, FailedEngineLoadLeavesLiveStateUntouched) {
  // A checkpoint that validates its header but turns out to be truncated
  // mid-record must leave the live engine exactly as it was: same index,
  // same id counter, same clock — replaying the rest of the stream still
  // yields the uninterrupted output.
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  cfg.normalize_inputs = false;
  const Stream stream = TestStream();
  const size_t cut = stream.size() / 2;
  const std::string path = ::testing::TempDir() + "/sssj_truncated.ckp";

  // Uninterrupted reference.
  CollectorSink ref_sink;
  auto ref = *SssjEngine::Make(cfg, &ref_sink);
  for (const StreamItem& item : stream) ref->Push(item.ts, item.vec);

  // Live engine: run half, save, truncate the file on disk, then attempt
  // to load the damaged checkpoint into the SAME live engine.
  CollectorSink sink;
  auto engine = *SssjEngine::Make(cfg, &sink);
  for (size_t i = 0; i < cut; ++i) {
    engine->Push(stream[i].ts, stream[i].vec);
  }
  const Status saved = engine->SaveCheckpoint(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  {
    std::ifstream in(path, std::ios::binary);
    std::string full((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(full.size(), 128u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(),
              static_cast<std::streamsize>(full.size() / 2));  // mid-record
  }
  const VectorId id_before = engine->next_id();
  const Status loaded = engine->LoadCheckpoint(path);
  EXPECT_EQ(loaded.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(loaded.message().empty());
  EXPECT_EQ(engine->next_id(), id_before);

  // The live engine keeps producing the uninterrupted run's output.
  for (size_t i = cut; i < stream.size(); ++i) {
    ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
  }
  EXPECT_EQ(PairSet(sink.pairs()), PairSet(ref_sink.pairs()));
  EXPECT_EQ(sink.pairs().size(), ref_sink.pairs().size());
  std::remove(path.c_str());
}

// Every framework × scheme × thread count that Make accepts checkpoints
// (inline ingest): save mid-stream, load into a fresh engine of the same
// config, push the rest, and get the uninterrupted run's pairs, none twice.
// STR runs one sequential scan at every num_threads, so only MB sweeps
// the thread count.
TEST(CheckpointTest, EveryConfigurationRoundTrips) {
  const Stream stream = TestStream();
  const size_t cut = stream.size() / 2;
  size_t configurations = 0;
  for (const Framework framework :
       {Framework::kStreaming, Framework::kMiniBatch}) {
    for (const IndexScheme scheme :
         {IndexScheme::kInv, IndexScheme::kAp, IndexScheme::kL2ap,
          IndexScheme::kL2}) {
      const std::vector<int> thread_counts =
          framework == Framework::kMiniBatch ? std::vector<int>{1, 2, 4}
                                             : std::vector<int>{1};
      for (const int threads : thread_counts) {
        EngineConfig cfg;
        cfg.framework = framework;
        cfg.index = scheme;
        cfg.num_threads = threads;
        cfg.theta = 0.6;
        cfg.lambda = 0.02;
        cfg.normalize_inputs = false;
        CollectorSink ref_sink;
        auto ref = SssjEngine::Make(cfg, &ref_sink);
        if (!ref.ok()) continue;  // STR-AP
        SCOPED_TRACE(std::string(ToString(framework)) + "-" +
                     ToString(scheme) + " threads=" +
                     std::to_string(threads));
        ++configurations;
        for (const StreamItem& item : stream) {
          ASSERT_TRUE((*ref)->Push(item.ts, item.vec).ok());
        }
        (*ref)->Flush();

        CollectorSink sink;
        std::stringstream blob;
        {
          auto first = *SssjEngine::Make(cfg, &sink);
          for (size_t i = 0; i < cut; ++i) {
            ASSERT_TRUE(first->Push(stream[i].ts, stream[i].vec).ok());
          }
          const Status saved = first->SaveCheckpoint(blob);
          ASSERT_TRUE(saved.ok()) << saved.ToString();
        }
        auto second = *SssjEngine::Make(cfg, &sink);
        const Status loaded = second->LoadCheckpoint(blob);
        ASSERT_TRUE(loaded.ok()) << loaded.ToString();
        EXPECT_EQ(second->next_id(), cut);
        for (size_t i = cut; i < stream.size(); ++i) {
          ASSERT_TRUE(second->Push(stream[i].ts, stream[i].vec).ok());
        }
        second->Flush();
        EXPECT_GT(ref_sink.pairs().size(), 0u);
        EXPECT_EQ(PairSet(sink.pairs()), PairSet(ref_sink.pairs()));
        EXPECT_EQ(sink.pairs().size(), ref_sink.pairs().size());
      }
    }
  }
  EXPECT_EQ(configurations, 15u);  // STR: 3 schemes × 1; MB: 4 × 3
}

// The thread count is not part of a checkpoint: every STR scheme saves the
// same bytes at any num_threads, and MB's fan-out emits the sequential
// sequence, so a checkpoint saved at 4 threads resumes at 1 and one saved
// at 1 resumes at 4, each with the uninterrupted run's pairs.
TEST(CheckpointTest, ResumesAcrossThreadCounts) {
  const Stream stream = TestStream();
  const size_t cut = stream.size() / 2;
  for (const Framework framework :
       {Framework::kStreaming, Framework::kMiniBatch}) {
    for (const IndexScheme scheme :
         {IndexScheme::kInv, IndexScheme::kL2ap, IndexScheme::kL2}) {
      EngineConfig cfg;
      cfg.framework = framework;
      cfg.index = scheme;
      cfg.theta = 0.6;
      cfg.lambda = 0.02;
      cfg.normalize_inputs = false;
      CollectorSink ref_sink;
      auto ref = *SssjEngine::Make(cfg, &ref_sink);
      for (const StreamItem& item : stream) {
        ASSERT_TRUE(ref->Push(item.ts, item.vec).ok());
      }
      ref->Flush();
      ASSERT_GT(ref_sink.pairs().size(), 0u);

      for (const auto& [save_threads, load_threads] :
           {std::pair<int, int>{4, 1}, std::pair<int, int>{1, 4}}) {
        SCOPED_TRACE(std::string(ToString(framework)) + "-" +
                     ToString(scheme) + " saved at " +
                     std::to_string(save_threads) + " threads, loaded at " +
                     std::to_string(load_threads));
        CollectorSink sink;
        std::stringstream blob;
        {
          cfg.num_threads = save_threads;
          auto first = *SssjEngine::Make(cfg, &sink);
          for (size_t i = 0; i < cut; ++i) {
            ASSERT_TRUE(first->Push(stream[i].ts, stream[i].vec).ok());
          }
          const Status saved = first->SaveCheckpoint(blob);
          ASSERT_TRUE(saved.ok()) << saved.ToString();
        }
        cfg.num_threads = load_threads;
        auto second = *SssjEngine::Make(cfg, &sink);
        const Status loaded = second->LoadCheckpoint(blob);
        ASSERT_TRUE(loaded.ok()) << loaded.ToString();
        for (size_t i = cut; i < stream.size(); ++i) {
          ASSERT_TRUE(second->Push(stream[i].ts, stream[i].vec).ok());
        }
        second->Flush();
        EXPECT_EQ(sink.pairs().size(), ref_sink.pairs().size());
        EXPECT_EQ(PairSet(sink.pairs()), PairSet(ref_sink.pairs()));
      }
    }
  }
}

// A zero-item seed from WriteCheckpoint (the format's one writer; the
// cluster supervisor restores horizon-trimmed STR sessions from it): it
// loads into a fresh engine of every STR scheme without emitting, the
// next accepted push gets the seeded id, and the seeded clock refuses an
// older push.
TEST(CheckpointTest, ZeroItemSeedLoadsIntoEveryStrScheme) {
  for (const IndexScheme scheme :
       {IndexScheme::kInv, IndexScheme::kL2ap, IndexScheme::kL2}) {
    SCOPED_TRACE(ToString(scheme));
    EngineConfig cfg;
    cfg.framework = Framework::kStreaming;
    cfg.index = scheme;
    cfg.theta = 0.6;
    cfg.lambda = 0.02;
    CheckpointHeader seed;
    seed.framework = Framework::kStreaming;
    seed.scheme = scheme;
    seed.theta = cfg.theta;
    seed.lambda = cfg.lambda;
    seed.next_id = 17;
    seed.last_ts = 5.0;
    seed.started = true;
    seed.watermark = 17;
    std::stringstream blob;
    ASSERT_TRUE(WriteCheckpoint(seed, Stream(), blob).ok());

    CollectorSink sink;
    auto engine = *SssjEngine::Make(cfg, &sink);
    const Status loaded = engine->LoadCheckpoint(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_TRUE(sink.pairs().empty());
    EXPECT_EQ(engine->next_id(), 17u);
    EXPECT_EQ(engine->reported_watermark(), 17u);

    const SparseVector vec = UnitVec({{1, 1.0}, {2, 1.0}});
    const Status older = engine->Push(4.5, vec);
    EXPECT_EQ(older.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(older.message().find("timestamp regression"), std::string::npos)
        << older.ToString();
    ASSERT_TRUE(engine->Push(5.0, vec).ok());
    ASSERT_TRUE(engine->Push(5.5, vec).ok());
    ASSERT_EQ(sink.pairs().size(), 1u);
    EXPECT_EQ(sink.pairs()[0].a, 17u);
    EXPECT_EQ(sink.pairs()[0].b, 18u);
    EXPECT_EQ(engine->next_id(), 19u);
  }
}

// The framework byte (offset 12, after the magic and the u32 version) and
// the scheme byte (offset 13) are range-checked: a framework past STR, or a
// scheme one past kL2 (the value of the retired AUTO), is refused as
// corrupt and the loader stays pristine.
TEST(CheckpointTest, OutOfRangeFrameworkOrSchemeByteIsRefused) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  const Stream stream = TestStream();
  std::string bytes;
  {
    auto writer = *SssjEngine::Make(cfg);
    for (size_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(writer->Push(stream[i].ts, stream[i].vec).ok());
    }
    std::ostringstream os;
    ASSERT_TRUE(writer->SaveCheckpoint(os).ok());
    bytes = std::move(os).str();
  }
  ASSERT_EQ(bytes.compare(0, 8, "SSSJENG3"), 0);
  ASSERT_EQ(static_cast<uint8_t>(bytes[12]), 1u);  // STR
  ASSERT_EQ(static_cast<uint8_t>(bytes[13]),
            static_cast<uint8_t>(IndexScheme::kL2));
  {
    auto control = *SssjEngine::Make(cfg);
    std::istringstream is(bytes);
    ASSERT_TRUE(control->LoadCheckpoint(is).ok());
    EXPECT_EQ(control->next_id(), 100u);
  }
  const struct {
    size_t offset;
    uint8_t value;
  } kPatches[] = {{12, 2}, {13, 4}};
  for (const auto& patch : kPatches) {
    SCOPED_TRACE("byte " + std::to_string(patch.offset) + " = " +
                 std::to_string(patch.value));
    std::string patched = bytes;
    patched[patch.offset] = static_cast<char>(patch.value);
    CollectorSink sink;
    auto loader = *SssjEngine::Make(cfg, &sink);
    std::istringstream is(patched);
    const Status status = loader->LoadCheckpoint(is);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_NE(status.message().find("corrupt framework/scheme byte"),
              std::string::npos)
        << status.ToString();
    EXPECT_EQ(loader->next_id(), 0u);
    EXPECT_EQ(loader->reported_watermark(), 0u);
    EXPECT_TRUE(sink.pairs().empty());
    EXPECT_TRUE(loader->Push(0.0, stream[0].vec).ok());
  }
}

TEST(CheckpointTest, MissingAndUnwritablePathsReportPreciseCodes) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  auto engine = *SssjEngine::Make(cfg);
  const Status missing = engine->LoadCheckpoint("/nonexistent/sssj.ckp");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_NE(missing.message().find("cannot open"), std::string::npos);
  const Status unwritable = engine->SaveCheckpoint("/nonexistent/dir/s.ckp");
  EXPECT_EQ(unwritable.code(), StatusCode::kIoError);
  EXPECT_NE(unwritable.message().find("for writing"), std::string::npos);
}

// A checkpoint smaller than the stream buffer reaches the file only at
// the final flush; a full disk must fail the save there too, not report
// it written. At λ = 0 every pushed item is live, so 3 items fit the
// buffer and 250 overflow it mid-write.
TEST(CheckpointTest, SaveToAFullDeviceReportsIoError) {
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full is not available on this host";
  }
  const Stream stream = TestStream();
  EngineConfig cfg;
  cfg.lambda = 0.0;
  for (const size_t items : {size_t{3}, size_t{250}}) {
    SCOPED_TRACE(std::to_string(items) + " items");
    auto engine = *SssjEngine::Make(cfg);
    for (size_t i = 0; i < items; ++i) {
      ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
    }
    std::ostringstream bytes;
    ASSERT_TRUE(engine->SaveCheckpoint(bytes).ok());
    EXPECT_EQ(bytes.str().size() < BUFSIZ, items == 3) << bytes.str().size();
    const Status status = engine->SaveCheckpoint("/dev/full");
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
    EXPECT_NE(status.message().find("/dev/full"), std::string::npos);
  }
}

// ---- adversarial loader coverage (fuzz-harness twins) ----
// These pin the exact behaviors fuzz/fuzz_checkpoint.cc asserts
// statistically: every byte-level truncation and every tampered length
// field must reject with a named error, bounded memory, and no state
// half-applied.

TEST(CheckpointTest, EngineLoadRejectsEveryTruncationWithDataLoss) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  auto src = *SssjEngine::Make(cfg);
  const Stream stream = TestStream();
  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(src->Push(stream[i].ts, stream[i].vec).ok());
  }
  std::ostringstream saved;
  ASSERT_TRUE(src->SaveCheckpoint(saved).ok());
  const std::string full = saved.str();

  for (size_t cut = 0; cut < full.size(); ++cut) {
    auto engine = *SssjEngine::Make(cfg);
    std::istringstream truncated(full.substr(0, cut));
    const Status st = engine->LoadCheckpoint(truncated);
    ASSERT_EQ(st.code(), StatusCode::kDataLoss) << "cut=" << cut;
    ASSERT_FALSE(st.message().empty()) << "cut=" << cut;
    // Swap-on-success: the failed load must leave the engine pristine.
    ASSERT_TRUE(engine->Push(stream[0].ts, stream[0].vec).ok())
        << "cut=" << cut;
  }
  auto engine = *SssjEngine::Make(cfg);
  std::istringstream whole(full);
  EXPECT_TRUE(engine->LoadCheckpoint(whole).ok());
}

// SSSJENG3 layout up to the first item's nnz (SssjEngine::SaveCheckpoint):
// magic[8], u32 version, u8 framework, u8 scheme, f64 theta, f64 lambda,
// u64 next_id, f64 last_ts, u8 started, u64 watermark, u64 num_items,
// then per item { u64 id, f64 ts, u32 nnz, nnz × (u32 dim, f64 value) }.
constexpr size_t kNumItemsOffset = 8 + 4 + 1 + 1 + 8 + 8 + 8 + 8 + 1 + 8;
constexpr size_t kFirstItemNnzOffset = kNumItemsOffset + 8 + 8 + 8;

// Loads `bytes` into an engine that already pushed half of TestStream and
// expects kDataLoss with the engine untouched: it continues the stream to
// exactly the uninterrupted run's pairs.
void ExpectRefusedLeavingEngineUntouched(const std::string& bytes,
                                         const std::string& reason) {
  EngineConfig cfg;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  const Stream stream = TestStream();
  const size_t cut = stream.size() / 2;
  CollectorSink ref_sink;
  auto ref = *SssjEngine::Make(cfg, &ref_sink);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(ref->Push(item.ts, item.vec).ok());
  }

  CollectorSink sink;
  auto engine = *SssjEngine::Make(cfg, &sink);
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
  }
  std::istringstream is(bytes);
  const Status status = engine->LoadCheckpoint(is);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find(reason), std::string::npos)
      << status.ToString();
  EXPECT_EQ(engine->next_id(), cut);
  for (size_t i = cut; i < stream.size(); ++i) {
    ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
  }
  EXPECT_EQ(sink.pairs(), ref_sink.pairs());
}

// A saved checkpoint of the first 40 TestStream items.
std::string SmallCheckpoint() {
  EngineConfig cfg;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  auto engine = *SssjEngine::Make(cfg);
  const Stream stream = TestStream();
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
  }
  std::ostringstream os;
  EXPECT_TRUE(engine->SaveCheckpoint(os).ok());
  return std::move(os).str();
}

// Declared lengths are untrusted: the loader grows with the bytes it
// actually reads, so a huge count over a short body fails on the missing
// bytes instead of allocating the declared size (the ASan leg would abort
// on a 2^64-element request).
TEST(CheckpointTest, EngineLoadRejectsOversizedDeclaredItemCount) {
  std::string tampered = SmallCheckpoint();
  ASSERT_GT(tampered.size(), kFirstItemNnzOffset + 4);
  std::memset(&tampered[kNumItemsOffset], 0xFF, 8);  // 2^64 − 1 items
  ExpectRefusedLeavingEngineUntouched(tampered, "checkpoint");
}

TEST(CheckpointTest, EngineLoadRejectsOversizedDeclaredItemNnz) {
  std::string tampered = SmallCheckpoint();
  ASSERT_GT(tampered.size(), kFirstItemNnzOffset + 4);
  std::memset(&tampered[kFirstItemNnzOffset], 0xFF, 4);  // 2^32 − 1 coords
  ExpectRefusedLeavingEngineUntouched(tampered, "checkpoint");
}

// Files of the formats older builds wrote are refused by name: the native
// STR-L2 engine checkpoint and the index image it wrapped.
TEST(CheckpointTest, RetiredFormatsAreRefusedByName) {
  for (const std::string magic : {"SSSJENG2", "SSSJCKP2"}) {
    SCOPED_TRACE(magic);
    std::string retired = SmallCheckpoint();
    retired.replace(0, magic.size(), magic);
    ExpectRefusedLeavingEngineUntouched(retired, magic);
    ExpectRefusedLeavingEngineUntouched(retired, "no longer reads");
  }
}

}  // namespace
}  // namespace sssj
