// Kernel equivalence suite, primitive level: the SIMD kernels against
// their scalar references on randomized inputs, lengths straddling every
// lane-width boundary, denormals, and ±0.0 — at every ISA level this
// machine can execute (the test re-runs itself with the dispatch forced
// down to the narrower paths).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "index/kernels.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/simd.h"

namespace sssj {
namespace {

using testing::UnitVec;

// Lengths around the 2- and 4-lane boundaries plus block edges.
const size_t kLens[] = {0, 1, 3, 4, 7, 8, 9, 31, 33};

// ISA levels to exercise: everything the host can actually run.
std::vector<SimdLevel> TestableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel detected = DetectSimdLevel();
  if (detected == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kSse2);
    levels.push_back(SimdLevel::kAvx2);
  } else if (detected != SimdLevel::kScalar) {
    levels.push_back(detected);
  }
  return levels;
}

class KernelLevelTest : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override { ForceSimdLevelForTest(GetParam()); }
  void TearDown() override { ForceSimdLevelForTest(DetectSimdLevel()); }
};

TEST_P(KernelLevelTest, ProductColumnBitIdenticalIncludingEdgeValues) {
  Rng rng(303);
  for (size_t len : kLens) {
    std::vector<double> col(len);
    for (size_t i = 0; i < len; ++i) col[i] = rng.NextDouble();
    if (len > 0) col[0] = 0.0;
    if (len > 1) col[1] = -0.0;
    if (len > 2) col[2] = 4.9e-324;  // denormal
    if (len > 3) col[3] = 1e-310;    // denormal
    for (double q : {0.37, -0.0, 0.0, 1e-308}) {
      std::vector<double> out(len, -1.0);
      kernels::ProductColumn(col.data(), len, q, out.data());
      for (size_t i = 0; i < len; ++i) {
        const double expected = q * col[i];
        EXPECT_EQ(out[i], expected) << "q=" << q << " lane " << i;
        // Signed-zero bit pattern must match too.
        EXPECT_EQ(std::signbit(out[i]), std::signbit(expected));
      }
    }
  }
}

TEST_P(KernelLevelTest, SparseDotBitIdenticalToScalarMerge) {
  Rng rng(404);
  const size_t nnzs[] = {0, 1, 3, 4, 7, 8, 9, 31, 33, 100, 400};
  const auto make = [&](size_t nnz, DimId dims) {
    std::vector<Coord> coords;
    for (size_t i = 0; i < nnz; ++i) {
      coords.push_back(Coord{static_cast<DimId>(rng.NextBelow(dims)),
                             0.05 + rng.NextDouble()});
    }
    return UnitVec(std::move(coords));
  };
  for (size_t na : nnzs) {
    for (size_t nb : {size_t{0}, size_t{1}, size_t{8}, size_t{33},
                      size_t{400}}) {
      for (DimId dims : {DimId{50}, DimId{5000}}) {
        const SparseVector a = make(na, dims);
        const SparseVector b = make(nb, dims);
        const double scalar = kernels::SparseDot(a, b, /*use_simd=*/false);
        const double simd = kernels::SparseDot(a, b, /*use_simd=*/true);
        EXPECT_EQ(scalar, simd)
            << "na=" << na << " nb=" << nb << " dims=" << dims;
        EXPECT_EQ(scalar, a.Dot(b));
      }
    }
  }
}

TEST_P(KernelLevelTest, SparseDotDisjointAndIdenticalVectors) {
  std::vector<Coord> lo, hi;
  for (DimId d = 0; d < 40; ++d) lo.push_back(Coord{d, 1.0});
  for (DimId d = 1000; d < 1040; ++d) hi.push_back(Coord{d, 1.0});
  const SparseVector a = UnitVec(std::move(lo));
  const SparseVector b = UnitVec(std::move(hi));
  EXPECT_EQ(kernels::SparseDot(a, b, true), 0.0);
  EXPECT_EQ(kernels::SparseDot(a, a, true), a.Dot(a));
}

INSTANTIATE_TEST_SUITE_P(AllLevels, KernelLevelTest,
                         ::testing::ValuesIn(TestableLevels()),
                         [](const ::testing::TestParamInfo<SimdLevel>& info) {
                           return std::string(ToString(info.param));
                         });

TEST(KernelModeTest, ParseAndToStringRoundTrip) {
  KernelMode m;
  ASSERT_TRUE(ParseKernelMode("scalar", &m));
  EXPECT_EQ(m, KernelMode::kScalar);
  ASSERT_TRUE(ParseKernelMode("SIMD", &m));
  EXPECT_EQ(m, KernelMode::kSimd);
  ASSERT_TRUE(ParseKernelMode("Auto", &m));
  EXPECT_EQ(m, KernelMode::kAuto);
  EXPECT_FALSE(ParseKernelMode("avx512", &m));
  EXPECT_STREQ(ToString(KernelMode::kScalar), "scalar");
  EXPECT_STREQ(ToString(KernelMode::kSimd), "simd");
  EXPECT_STREQ(ToString(KernelMode::kAuto), "auto");
}

TEST(KernelModeTest, ScalarModeNeverUsesSimd) {
  EXPECT_FALSE(KernelModeUsesSimd(KernelMode::kScalar));
  EXPECT_TRUE(KernelModeUsesSimd(KernelMode::kSimd));
  // kAuto tracks hardware: with any vector ISA present it selects simd.
  EXPECT_EQ(KernelModeUsesSimd(KernelMode::kAuto),
            DetectSimdLevel() != SimdLevel::kScalar);
}

}  // namespace
}  // namespace sssj
