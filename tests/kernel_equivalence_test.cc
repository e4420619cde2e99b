// Kernel equivalence suite, engine level: kernel=simd must emit the very
// pairs kernel=scalar emits on the WebSpamLike profile, bit for bit, for
// every scheme. The scan kernels are lane-wise multiplies, the SIMD
// sparse dot only moves its merge cursors, and the STR-L2/L2AP scans
// evaluate one std::exp per candidate on both paths.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "data/profiles.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

std::vector<ResultPair> RunEngine(Framework fw, IndexScheme ix,
                                  KernelMode kernel, int threads,
                                  const Stream& stream) {
  EngineConfig cfg;
  cfg.framework = fw;
  cfg.index = ix;
  cfg.theta = 0.7;
  cfg.lambda = 0.01;
  cfg.kernel = kernel;
  cfg.num_threads = threads;
  cfg.normalize_inputs = false;  // profile streams are unit already
  CollectorSink sink;
  auto engine_or = SssjEngine::Make(cfg, &sink);
  EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  auto engine = *std::move(engine_or);
  engine->PushBatch(stream);
  engine->Flush();
  return sink.pairs();
}

// The two runs must emit the same pair sequence: every engine emits in
// one deterministic order, whatever its kernel or thread count.
void ExpectSamePairs(const std::vector<ResultPair>& s,
                     const std::vector<ResultPair>& v, const char* what) {
  // Duplicates would show up as a length mismatch; every field of every
  // pair is compared, not just the similarity.
  ASSERT_EQ(s.size(), v.size()) << what << ": pair count differs";
  for (size_t i = 0; i < s.size(); ++i) {
    ASSERT_EQ(s[i].a, v[i].a) << what << ": pair sequences differ at " << i;
    ASSERT_EQ(s[i].b, v[i].b) << what << ": pair sequences differ at " << i;
    EXPECT_EQ(s[i].ta, v[i].ta) << what << ": ta drifted at " << i;
    EXPECT_EQ(s[i].tb, v[i].tb) << what << ": tb drifted at " << i;
    EXPECT_EQ(s[i].dot, v[i].dot)
        << what << ": dot drifted for (" << s[i].a << "," << s[i].b << ")";
    EXPECT_EQ(s[i].sim, v[i].sim)
        << what << ": sim drifted for (" << s[i].a << "," << s[i].b << ")";
  }
}

class KernelEquivalenceTest : public ::testing::Test {
 protected:
  static const Stream& WebSpamStream() {
    static const Stream* stream = new Stream(
        GenerateProfile(DatasetProfile::kWebSpam, /*scale=*/0.12,
                        /*seed=*/7));
    return *stream;
  }
};

// MB: every kernel is a lane-wise multiply — bit-identical output.
TEST_F(KernelEquivalenceTest, MiniBatchAllSchemesBitIdentical) {
  const Stream& stream = WebSpamStream();
  for (IndexScheme ix : {IndexScheme::kInv, IndexScheme::kAp,
                         IndexScheme::kL2ap, IndexScheme::kL2}) {
    const auto scalar = RunEngine(Framework::kMiniBatch, ix,
                                  KernelMode::kScalar, 1, stream);
    const auto simd = RunEngine(Framework::kMiniBatch, ix,
                                KernelMode::kSimd, 1, stream);
    EXPECT_FALSE(scalar.empty()) << "degenerate test input";
    ExpectSamePairs(scalar, simd, ToString(ix));
  }
}

// STR-INV: decay is applied per candidate at verification (scalar on both
// paths); the scan kernel is a multiply — bit-identical output.
TEST_F(KernelEquivalenceTest, StreamingInvBitIdentical) {
  const Stream& stream = WebSpamStream();
  const auto scalar = RunEngine(Framework::kStreaming, IndexScheme::kInv,
                                KernelMode::kScalar, 1, stream);
  const auto simd = RunEngine(Framework::kStreaming, IndexScheme::kInv,
                              KernelMode::kSimd, 1, stream);
  EXPECT_FALSE(scalar.empty()) << "degenerate test input";
  ExpectSamePairs(scalar, simd, "STR-INV");
}

// STR-L2 and STR-L2AP: both paths evaluate each candidate's decay with
// std::exp and SparseDot is exact, so the output is bit-identical.
TEST_F(KernelEquivalenceTest, StreamingL2SamePairSetWithinTolerance) {
  const Stream& stream = WebSpamStream();
  const auto scalar = RunEngine(Framework::kStreaming, IndexScheme::kL2,
                                KernelMode::kScalar, 1, stream);
  const auto simd = RunEngine(Framework::kStreaming, IndexScheme::kL2,
                              KernelMode::kSimd, 1, stream);
  EXPECT_FALSE(scalar.empty()) << "degenerate test input";
  ExpectSamePairs(scalar, simd, "STR-L2");
}

TEST_F(KernelEquivalenceTest, StreamingL2apSamePairSetWithinTolerance) {
  const Stream& stream = WebSpamStream();
  const auto scalar = RunEngine(Framework::kStreaming, IndexScheme::kL2ap,
                                KernelMode::kScalar, 1, stream);
  const auto simd = RunEngine(Framework::kStreaming, IndexScheme::kL2ap,
                              KernelMode::kSimd, 1, stream);
  EXPECT_FALSE(scalar.empty()) << "degenerate test input";
  ExpectSamePairs(scalar, simd, "STR-L2AP");
}

// MB windows fan out across threads with bit-identical output — the simd
// kernels must preserve that determinism bar.
TEST_F(KernelEquivalenceTest, MiniBatchSimdThreadCountInvariant) {
  const Stream& stream = WebSpamStream();
  const auto seq = RunEngine(Framework::kMiniBatch, IndexScheme::kL2,
                             KernelMode::kSimd, 1, stream);
  const auto fanned = RunEngine(Framework::kMiniBatch, IndexScheme::kL2,
                                KernelMode::kSimd, 4, stream);
  ExpectSamePairs(seq, fanned, "MB-simd");
}

// Every STR scheme runs its one sequential scan at any num_threads, so
// the simd path emits the 1-thread simd sequence at every thread count.
TEST_F(KernelEquivalenceTest, StreamingSimdThreadCountInvariant) {
  const Stream& stream = WebSpamStream();
  for (IndexScheme ix :
       {IndexScheme::kInv, IndexScheme::kL2ap, IndexScheme::kL2}) {
    const auto seq =
        RunEngine(Framework::kStreaming, ix, KernelMode::kSimd, 1, stream);
    EXPECT_FALSE(seq.empty()) << "degenerate test input";
    for (int threads : {2, 4, 8}) {
      const auto run = RunEngine(Framework::kStreaming, ix, KernelMode::kSimd,
                                 threads, stream);
      ExpectSamePairs(seq, run, ToString(ix));
    }
  }
}

}  // namespace
}  // namespace sssj
