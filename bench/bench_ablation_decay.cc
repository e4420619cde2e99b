// Ablation: generalized decay families (the paper's future-work item —
// "extending our model for different definitions of time-dependent
// similarity"). Exponential, polynomial, and sliding-window decays are
// calibrated to the same horizon, so the index does the same amount of
// time filtering; what changes is which in-horizon pairs pass the
// threshold (the tail shape) and the bound tightness.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "index/stream_l2_index.h"
#include "util/timer.h"

namespace sssj {
namespace {

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  flags.RejectUnknown({"scale", "seed", "tsv", "theta", "tau-list"});
  const auto args = bench::ParseCommon(flags, /*default_scale=*/0.7);
  const double theta = flags.GetDouble("theta", 0.7);
  const std::vector<double> taus =
      flags.GetDoubleList("tau-list", {10, 100, 1000});
  // The getters exit 2 on malformed values; these reject the ones that
  // parse but define no horizon.
  if (!(theta > 0.0) || theta > 1.0) {
    std::fprintf(stderr,
                 "invalid value for --theta: %g (expected 0 < theta <= 1)\n",
                 theta);
    return 2;
  }
  for (const double tau : taus) {
    if (!(tau > 0.0) || !std::isfinite(tau)) {
      std::fprintf(stderr,
                   "invalid value in --tau-list: %g (expected finite, > 0)\n",
                   tau);
      return 2;
    }
  }
  const Stream stream =
      GenerateProfile(DatasetProfile::kRcv1, args.scale, args.seed);
  bench::PrintHeader("Ablation: decay families at matched horizons", stream,
                     args);

  TablePrinter table({"tau", "decay", "pairs", "entries", "full_dots",
                      "time(s)"},
                     args.tsv);
  for (double tau : taus) {
    const double lambda = std::log(1.0 / theta) / tau;
    const double alpha = 1.5;
    const double scale = tau / (std::pow(theta, -1.0 / alpha) - 1.0);
    const std::vector<DecayFunction> families = {
        DecayFunction::Exponential(lambda),
        DecayFunction::Polynomial(alpha, scale),
        DecayFunction::SlidingWindow(tau),
    };
    for (const DecayFunction& f : families) {
      StreamL2Index index(theta, f);
      CountingSink sink;
      Timer timer;
      for (const StreamItem& item : stream) index.ProcessArrival(item, &sink);
      const double secs = timer.ElapsedSeconds();
      table.AddRow({FormatDouble(tau, 0), f.ToString(),
                    std::to_string(sink.count()),
                    std::to_string(index.stats().entries_traversed),
                    std::to_string(index.stats().full_dots),
                    FormatDouble(secs, 3)});
    }
  }
  std::cout << "(theta=" << theta
            << "; all families share the same horizon per row group)\n";
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace sssj

int main(int argc, char** argv) { return sssj::Run(argc, argv); }
