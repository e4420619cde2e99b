// Tests for the bench_common layer: RunJoin semantics (validity, budget,
// stats plumbing), formatting, and the paper parameter grids.
#include "bench_common/harness.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common/bench_json.h"
#include "bench_common/sweep.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

Stream SmallStream() {
  RandomStreamSpec spec;
  spec.n = 150;
  spec.dims = 25;
  spec.seed = 3;
  return RandomStream(spec);
}

TEST(RunJoinTest, CompletesAndCountsPairs) {
  RunConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.5;
  cfg.lambda = 0.01;
  const RunResult r = RunJoin(SmallStream(), cfg);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(r.stats.pairs_emitted, r.pairs);
  EXPECT_EQ(r.stats.vectors_processed, 150u);
}

TEST(RunJoinTest, InvalidConfigReportsInvalid) {
  RunConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kAp;  // STR-AP unsupported
  const RunResult r = RunJoin(SmallStream(), cfg);
  EXPECT_FALSE(r.valid);
  EXPECT_FALSE(r.completed);
}

TEST(RunJoinTest, ZeroBudgetAbortsRun) {
  RunConfig cfg;
  cfg.framework = Framework::kMiniBatch;
  cfg.index = IndexScheme::kInv;
  cfg.theta = 0.5;
  cfg.lambda = 0.0001;
  cfg.budget_seconds = 0.0;
  const RunResult r = RunJoin(SmallStream(), cfg);
  EXPECT_TRUE(r.valid);
  EXPECT_FALSE(r.completed);
}

TEST(RunJoinTest, MbAndStrAgreeOnPairCount) {
  const Stream stream = SmallStream();
  RunConfig cfg;
  cfg.index = IndexScheme::kL2ap;
  cfg.theta = 0.6;
  cfg.lambda = 0.05;
  cfg.framework = Framework::kMiniBatch;
  const RunResult mb = RunJoin(stream, cfg);
  cfg.framework = Framework::kStreaming;
  const RunResult str = RunJoin(stream, cfg);
  EXPECT_EQ(mb.pairs, str.pairs);
}

TEST(FormatTest, FixedAndScientific) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.7, 0), "3");
  EXPECT_EQ(FormatSci(0.0001, 0), "1e-04");
}

TEST(TablePrinterTest, AlignedOutputHasHeaderAndRule) {
  TablePrinter t({"col_a", "b"}, /*tsv=*/false);
  t.AddRow({"1", "22"});
  t.AddRow({"333", "4"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("col_a"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(TablePrinterTest, TsvOutputIsTabSeparated) {
  TablePrinter t({"x", "y"}, /*tsv=*/true);
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_EQ(os.str(), "x\ty\n1\t2\n");
}

TEST(BenchJsonTest, WriteJsonFileWritesTheDocument) {
  const std::string path = ::testing::TempDir() + "bench_json_test.json";
  ASSERT_TRUE(
      WriteJsonFile(JsonValue::Object().Set("rows", 3), path).ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), JsonValue::Object().Set("rows", 3).ToString() + "\n");
  std::remove(path.c_str());
}

TEST(BenchJsonTest, WriteJsonFileReportsAFullDisk) {
  // A small document sits in the stream buffer until the final flush,
  // which is where a full disk fails it.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const Status status =
      WriteJsonFile(JsonValue::Object().Set("rows", 3), "/dev/full");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST(SweepTest, PaperGridsMatchEvaluationSection) {
  // §7: θ ∈ [0.5, 0.99] (6 values) and λ ∈ [1e-4, 1e-1] exponentially
  // increasing (4 values) — "the 24 configurations" of Table 2.
  const auto thetas = PaperThetas();
  const auto lambdas = PaperLambdas();
  EXPECT_EQ(thetas.size() * lambdas.size(), 24u);
  EXPECT_DOUBLE_EQ(thetas.front(), 0.5);
  EXPECT_DOUBLE_EQ(thetas.back(), 0.99);
  EXPECT_DOUBLE_EQ(lambdas.front(), 1e-4);
  EXPECT_DOUBLE_EQ(lambdas.back(), 1e-1);
  for (size_t i = 1; i < lambdas.size(); ++i) {
    EXPECT_NEAR(lambdas[i] / lambdas[i - 1], 10.0, 1e-9);
  }
  // Evaluation matrix: {INV, L2AP, L2} × {MB, STR}.
  EXPECT_EQ(PaperIndexSchemes().size(), 3u);
  EXPECT_EQ(BothFrameworks().size(), 2u);
}

}  // namespace
}  // namespace sssj
