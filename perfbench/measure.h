// Measurement helpers shared by the benchmark binary and its tests: a
// monotonic clock, an order-independent digest of emitted pairs, the
// percentile rule for latency tails, and probes of the host (its current
// speed, resident memory, cores actually delivered).
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// Digest of a pair set that does not depend on emission order: every pair
// (tenant, smaller id, larger id, bit images of dot and sim) hashes to 64
// bits, and the digest keeps the count plus two commutative folds of
// those hashes. Two runs that emit the same pairs with the same score bits
// compare equal whatever order, batching or process delivered them.
struct PairDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xor_fold = 0;

  void Add(uint64_t tenant, const sssj::ResultPair& pair);
  // Folds in the digest of a disjoint pair set.
  void Merge(const PairDigest& other) {
    count += other.count;
    sum += other.sum;
    xor_fold ^= other.xor_fold;
  }
  std::string ToString() const;

  friend bool operator==(const PairDigest& x, const PairDigest& y) {
    return x.count == y.count && x.sum == y.sum && x.xor_fold == y.xor_fold;
  }
  friend bool operator!=(const PairDigest& x, const PairDigest& y) {
    return !(x == y);
  }
};

// A latency tail is reported only where the sample supports it: at least
// kMinTailSamples samples must lie beyond the percentile.
inline constexpr size_t kMinTailSamples = 10;

// Percentiles are named by their tail divisor d: the value that leaves
// floor(n / d) of the n samples above it (nearest rank). d = 2 is the
// median, d = 100 the p99, d = 1000 the p99.9.
bool TailSupported(size_t n, uint64_t tail_divisor);
// `sorted` ascending and non-empty.
double UpperPercentile(const std::vector<double>& sorted,
                       uint64_t tail_divisor);
// The largest divisor in 2, 10, 100, 1000, ... that TailSupported allows
// for n samples; 0 when not even the median is supported.
uint64_t HighestSupportedTail(size_t n);
// "p50", "p90", "p99", "p99.9", ... for a tail divisor.
std::string PercentileName(uint64_t tail_divisor);

// Median of the values (the mean of the middle two for an even count).
double Median(std::vector<double> values);

// Mean of the middle half of the values (all of them when fewer than 4).
// Per-pass figures are summarised with it: the host alternates between a
// fast and a slow mode for seconds at a time, and where the median of a
// run's passes jumps from one mode to the other as their mix shifts, this
// mean moves with the mix.
double InterquartileMean(std::vector<double> values);

// How much slower the host runs right now than the reference host.
//
// The development host's speed drifts by up to 1.8x over seconds to
// minutes (other tenants share its cores and caches), far beyond any
// useful regression bound. A miniature inverted-index self-join written
// here, sharing no code with the library (hash-map accumulation over
// posting-list scans, posting appends), slows down with it: over 170 s
// where the CLI engine's raw speed moved by ±22%, engine speed / kernel
// speed moved by ±9%. Every time the benchmark reports is raw time /
// Slowdown(), i.e. time on a host where the kernel takes
// kReferenceKernelSeconds.
class HostSpeed {
 public:
  // About the kernel's time on the development host at full speed.
  static constexpr double kReferenceKernelSeconds = 0.0025;

  HostSpeed();
  // Median of three kernel runs, over kReferenceKernelSeconds.
  double Slowdown();

 private:
  double RunKernel();

  std::vector<std::vector<std::pair<uint32_t, double>>> vectors_;
  double sink_ = 0.0;
};

// Divides every time-valued entry (names ending in _s, _ms, _us or _ns)
// by `slowdown`.
void ScaleTimes(std::map<std::string, double>* metrics, double slowdown);

// Peak resident set, in MiB: the larger of this process's VmHWM and the
// ru_maxrss of the children it has reaped.
double PeakRssMb();

// Pins this process (and every thread and process it starts later) to
// the last CPU it may run on; returns that CPU, or -1 when it cannot.
// Threads and forked workers then hand off on one CPU instead of waking
// vCPUs the host may not be running, which on a host that delivers about
// one core anyway removes a source of multi-millisecond tail spikes.
int PinToOneCpu();

// Cores the host actually delivers: `threads` threads, each allowed on
// CPUs 0..threads-1, spin for `seconds` of wall time and the CPU time
// they got is divided by it.
double EffectiveCores(int threads, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
