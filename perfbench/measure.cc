#include "measure.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  // SplitMix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void PairDigest::Add(uint64_t tenant, const sssj::ResultPair& pair) {
  const uint64_t lo = std::min(pair.a, pair.b);
  const uint64_t hi = std::max(pair.a, pair.b);
  uint64_t h = Mix(tenant);
  h = Mix(h ^ lo);
  h = Mix(h ^ hi);
  h = Mix(h ^ Bits(pair.dot));
  h = Mix(h ^ Bits(pair.sim));
  ++count;
  sum += h;
  xor_fold ^= Mix(h);
}

std::string PairDigest::ToString() const {
  std::ostringstream os;
  os << count << " pairs/" << std::hex << sum << ":" << xor_fold;
  return os.str();
}

bool TailSupported(size_t n, uint64_t tail_divisor) {
  return tail_divisor >= 2 && n / tail_divisor >= kMinTailSamples;
}

double UpperPercentile(const std::vector<double>& sorted,
                       uint64_t tail_divisor) {
  const size_t n = sorted.size();
  const size_t beyond = static_cast<size_t>(n / tail_divisor);
  return sorted[n - beyond - 1];
}

uint64_t HighestSupportedTail(size_t n) {
  uint64_t best = 0;
  for (uint64_t d = 2; TailSupported(n, d); d = d == 2 ? 10 : d * 10) {
    best = d;
  }
  return best;
}

std::string PercentileName(uint64_t tail_divisor) {
  std::ostringstream os;
  os.precision(12);
  os << "p" << 100.0 - 100.0 / static_cast<double>(tail_divisor);
  return os.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

HostSpeed::HostSpeed() : vectors_(300) {
  // Fixed synthetic sparse vectors: 30-59 coordinates over 4096 dims,
  // skewed toward low dims like a Zipf vocabulary.
  uint64_t x = 1;
  for (auto& vec : vectors_) {
    x = Mix(x);
    const size_t nnz = 30 + x % 30;
    for (size_t k = 0; k < nnz; ++k) {
      x = Mix(x);
      const uint64_t a = x % 4096;
      const uint64_t b = (x >> 20) % 4096;
      vec.emplace_back(static_cast<uint32_t>(a * b / 4096),
                       static_cast<double>((x >> 40) % 1000) / 1000.0);
    }
  }
}

double HostSpeed::RunKernel() {
  const int64_t start = NowNs();
  std::vector<std::vector<std::pair<uint32_t, double>>> postings(4096);
  std::unordered_map<uint32_t, double> scores;
  double total = 0.0;
  for (uint32_t id = 0; id < vectors_.size(); ++id) {
    scores.clear();
    for (const auto& [dim, value] : vectors_[id]) {
      const auto& list = postings[dim];
      const size_t from = list.size() > 48 ? list.size() - 48 : 0;
      for (size_t k = from; k < list.size(); ++k) {
        scores[list[k].first] += value * list[k].second;
      }
    }
    for (const auto& [other, score] : scores) {
      if (score > 0.5) total += score;
    }
    for (const auto& [dim, value] : vectors_[id]) {
      postings[dim].emplace_back(id, value);
    }
  }
  sink_ += total;  // keeps the join observable
  return SecondsBetween(start, NowNs());
}

double HostSpeed::Slowdown() {
  std::vector<double> runs = {RunKernel(), RunKernel(), RunKernel()};
  return Median(runs) / kReferenceKernelSeconds;
}

void ScaleTimes(std::map<std::string, double>* metrics, double slowdown) {
  static const std::vector<std::string> suffixes = {"_s", "_ms", "_us", "_ns"};
  for (auto& [name, value] : *metrics) {
    for (const std::string& suffix : suffixes) {
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        value /= slowdown;
        break;
      }
    }
  }
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t lo = n < 4 ? 0 : n / 4;
  const size_t hi = n - lo;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double PeakRssMb() {
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      self_kb = std::stod(line.substr(6));
      break;
    }
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  const double child_kb = static_cast<double>(children.ru_maxrss);
  return std::max(self_kb, child_kb) / 1024.0;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? last : -1;
}

double EffectiveCores(int threads, double seconds) {
  if (threads < 1) threads = 1;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int cpu = 0; cpu < threads && cpu < CPU_SETSIZE; ++cpu) {
    CPU_SET(cpu, &all);
  }
  std::vector<double> cpu(static_cast<size_t>(threads), 0.0);
  std::atomic<bool> go{false};
  std::vector<std::thread> spinners;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  for (int i = 0; i < threads; ++i) {
    spinners.emplace_back([&cpu, &go, &all, i, stop] {
      // Undo PinToOneCpu for this thread; on failure it spins where it is.
      (void)sched_setaffinity(0, sizeof(all), &all);
      while (!go.load(std::memory_order_acquire)) {
      }
      const double cpu0 = ThreadCpuSeconds();
      while (NowNs() < stop) {
      }
      cpu[static_cast<size_t>(i)] = ThreadCpuSeconds() - cpu0;
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : spinners) t.join();
  const double wall = SecondsBetween(start, NowNs());
  double total = 0.0;
  for (double c : cpu) total += c;
  return wall > 0.0 ? total / wall : 0.0;
}

}  // namespace perfbench
