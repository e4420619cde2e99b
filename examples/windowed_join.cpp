// Classic sliding-window similarity join via the generalized-decay
// extension: DecayFunction::SlidingWindow turns the STR-L2 index into
// "report every pair with cosine ≥ θ arriving within W time units", with
// full ℓ2 content pruning — no similarity decay inside the window.
//
//   ./examples/windowed_join [--window=60] [--theta=0.8] [--posts=2000]
//
// Compares the three decay families at the same horizon on one stream, to
// make the semantic difference concrete.
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "core/sinks.h"
#include "data/generator.h"
#include "index/stream_l2_index.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  sssj::Flags flags(argc, argv);
  flags.RejectUnknown({"window", "theta", "posts"});
  const double window = flags.GetDouble("window", 60.0);
  const double theta = flags.GetDouble("theta", 0.8);
  const int64_t n = flags.GetInt("posts", 2000);
  // The getters exit 2 on malformed values; these reject the ones that
  // parse but define no join (a NaN or negative window, θ outside (0, 1]).
  if (!(window > 0.0) || !std::isfinite(window)) {
    std::fprintf(stderr,
                 "invalid value for --window: %g (expected finite, > 0)\n",
                 window);
    return 2;
  }
  if (!(theta > 0.0) || theta > 1.0) {
    std::fprintf(stderr,
                 "invalid value for --theta: %g (expected 0 < theta <= 1)\n",
                 theta);
    return 2;
  }
  if (n < 1) {
    std::fprintf(stderr, "invalid value for --posts: %lld (expected >= 1)\n",
                 static_cast<long long>(n));
    return 2;
  }

  sssj::CorpusSpec spec;
  spec.num_vectors = static_cast<uint64_t>(n);
  spec.num_dims = 20000;
  spec.avg_nnz = 15;
  spec.near_dup_rate = 0.12;
  spec.arrivals.kind = sssj::ArrivalModel::Kind::kPoisson;
  spec.arrivals.rate = 1.0;
  spec.seed = 3;
  const sssj::Stream stream = sssj::CorpusGenerator(spec).Generate();

  // Three decay families calibrated to the same horizon `window`.
  const double lambda = std::log(1.0 / theta) / window;
  const double alpha = 2.0;
  const double scale = window / (std::pow(theta, -1.0 / alpha) - 1.0);
  struct Family {
    const char* label;
    sssj::DecayFunction f;
  };
  const Family families[] = {
      {"sliding-window", sssj::DecayFunction::SlidingWindow(window)},
      {"exponential", sssj::DecayFunction::Exponential(lambda)},
      {"polynomial", sssj::DecayFunction::Polynomial(alpha, scale)},
  };

  std::printf("windowed join over %lld posts, horizon=%.0f, theta=%.2f\n",
              static_cast<long long>(n), window, theta);
  std::printf("%-16s %8s %12s %12s  %s\n", "decay", "pairs", "entries",
              "full_dots", "best pair (sim)");
  for (const Family& fam : families) {
    sssj::StreamL2Index index(theta, fam.f);
    // Sink chain: count everything, and keep the single best pair — one
    // TeeSink bound once, instead of re-plumbing sinks per use case.
    sssj::CountingSink counter;
    sssj::TopKSink best(1);
    sssj::TeeSink sink({&counter, &best});
    for (const sssj::StreamItem& item : stream) {
      index.ProcessArrival(item, &sink);
    }
    const auto top = best.TopPairs();
    char best_buf[64] = "-";
    if (!top.empty()) {
      std::snprintf(best_buf, sizeof(best_buf), "#%llu ~ #%llu (%.3f)",
                    static_cast<unsigned long long>(top[0].a),
                    static_cast<unsigned long long>(top[0].b), top[0].sim);
    }
    std::printf("%-16s %8llu %12llu %12llu  %s\n", fam.label,
                static_cast<unsigned long long>(counter.count()),
                static_cast<unsigned long long>(
                    index.stats().entries_traversed),
                static_cast<unsigned long long>(index.stats().full_dots),
                best_buf);
  }
  std::printf(
      "(same horizon: the window family keeps every in-horizon pair with "
      "cosine >= theta;\n the decaying families additionally require "
      "recency — pairs drop as the gap grows)\n");
  return 0;
}
