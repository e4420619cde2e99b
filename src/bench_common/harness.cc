#include "bench_common/harness.h"

#include <iomanip>
#include <sstream>

#include "util/timer.h"

namespace sssj {

RunResult RunJoin(const Stream& stream, const RunConfig& config) {
  RunResult result;

  EngineConfig ec;
  ec.framework = config.framework;
  ec.index = config.index;
  ec.theta = config.theta;
  ec.lambda = config.lambda;
  ec.kernel = config.kernel;
  ec.normalize_inputs = false;  // generator/profile streams are unit already
  CountingSink sink;
  auto engine_or = SssjEngine::Make(ec, &sink);
  if (!engine_or.ok()) return result;  // valid=false (e.g. STR-AP)
  auto engine = *std::move(engine_or);
  result.valid = true;

  Timer timer;
  constexpr size_t kBudgetCheckStride = 64;
  for (size_t i = 0; i < stream.size(); ++i) {
    engine->Push(stream[i].ts, stream[i].vec);
    if ((i % kBudgetCheckStride) == 0 &&
        timer.ElapsedSeconds() > config.budget_seconds) {
      result.seconds = timer.ElapsedSeconds();
      result.pairs = sink.count();
      result.memory_bytes = engine->MemoryBytes();
      result.stats = engine->stats();
      return result;  // completed=false
    }
  }
  engine->Flush();
  result.seconds = timer.ElapsedSeconds();
  result.completed = result.seconds <= config.budget_seconds;
  result.pairs = sink.count();
  result.memory_bytes = engine->MemoryBytes();
  result.stats = engine->stats();
  result.stats.elapsed_seconds = result.seconds;
  return result;
}

std::string FormatDouble(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string FormatSci(double v, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << v;
  return os.str();
}

TablePrinter::TablePrinter(std::vector<std::string> headers, bool tsv)
    : headers_(std::move(headers)), tsv_(tsv) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  if (tsv_) {
    for (size_t i = 0; i < headers_.size(); ++i) {
      os << headers_[i] << (i + 1 < headers_.size() ? '\t' : '\n');
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size(); ++i) {
        os << row[i] << (i + 1 < row.size() ? '\t' : '\n');
      }
    }
    return;
  }
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os << '\n';
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace sssj
