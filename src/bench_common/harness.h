// Bench harness: runs one (framework × index × θ × λ) configuration over a
// stream with an optional wall-clock budget (the paper aborts runs after a
// 3-hour timeout; Table 2 reports completion fractions), collects RunStats,
// and renders aligned text / TSV tables.
#ifndef SSSJ_BENCH_COMMON_HARNESS_H_
#define SSSJ_BENCH_COMMON_HARNESS_H_

#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/stream_item.h"

namespace sssj {

struct RunConfig {
  Framework framework = Framework::kStreaming;
  IndexScheme index = IndexScheme::kL2;
  double theta = 0.7;
  double lambda = 0.01;
  // Scoring-kernel selection (EngineConfig::kernel): scalar reference by
  // default; kSimd/kAuto select the vectorized posting-scan kernels.
  KernelMode kernel = KernelMode::kScalar;
  double budget_seconds = std::numeric_limits<double>::infinity();
};

struct RunResult {
  bool valid = false;      // config was constructible (STR-AP is not)
  bool completed = false;  // finished within the budget
  double seconds = 0.0;
  uint64_t pairs = 0;
  // Resident bytes of the live state at end of run. STR: posting columns
  // + residual store. MB: buffered windows + peak window-index bytes.
  uint64_t memory_bytes = 0;
  RunStats stats;
};

// Runs the join over `stream`. The budget is checked periodically; on
// expiry the run is abandoned (completed=false), mirroring the paper's
// timeout handling.
RunResult RunJoin(const Stream& stream, const RunConfig& config);

// ----- formatting helpers -----

std::string FormatDouble(double v, int precision = 3);
std::string FormatSci(double v, int precision = 2);

class TablePrinter {
 public:
  TablePrinter(std::vector<std::string> headers, bool tsv);
  void AddRow(std::vector<std::string> cells);
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  bool tsv_;
};

}  // namespace sssj

#endif  // SSSJ_BENCH_COMMON_HARNESS_H_
