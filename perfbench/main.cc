// perfbench — the repository's benchmark binary.
//
//   perfbench --workload <cli-sparse|dense-async|tenant-fleet> --seed <n>
//             --seconds <s> --trace <0|1> --run-dir <dir> [--spans-out <f>]
//
// --trace 0 measures the workload's end-to-end path for --seconds and
// prints its end-to-end metrics. --trace 1 replays the same stream through
// every ledger row (stacks.h), bottom up, and prints the per-layer
// metrics. Every pass of every row is checked against an untimed bare
// SssjEngine reference by pair digest; a mismatch exits 1. Every time
// reported is host-normalized (HostSpeed in measure.h), and the process
// runs pinned to one CPU. The last stdout line is one JSON object
// {correct, attempted, failed, metrics} with bare metric values; run.py
// attaches the units from BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/supervisor.h"
#include "cluster/wire.h"
#include "core/engine.h"
#include "data/io.h"
#include "index/stream_inv_index.h"
#include "measure.h"
#include "stacks.h"
#include "util/simd.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using sssj::Status;

constexpr double kMiB = 1024.0 * 1024.0;
// End-to-end runs hold at least this many passes, whatever --seconds says.
constexpr int kMinPasses = 3;
// tenant-fleet measures its fork + Hello + CreateSession set-up this many
// times before any stream exists, and reports the median.
constexpr int kFleetSetups = 21;
constexpr int kFleetWorkers = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;
  std::string spans_out;
  int pinned_cpu = -1;  // set by main, not a flag
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + key + "'";
      return false;
    }
    key = key.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "--" + key + " needs a value";
      return false;
    }
    kv[key] = value;
  }
  for (const auto& [key, value] : kv) {
    try {
      if (key == "workload") {
        args->workload = value;
      } else if (key == "seed") {
        args->seed = std::stoull(value);
      } else if (key == "seconds") {
        args->seconds = std::stod(value);
      } else if (key == "trace") {
        args->trace = value == "1";
      } else if (key == "run-dir") {
        args->run_dir = value;
      } else if (key == "spans-out") {
        args->spans_out = value;
      } else {
        *error = "unknown flag --" + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value '" + value + "' for --" + key;
      return false;
    }
  }
  if (args->workload.empty() || args->run_dir.empty()) {
    *error = "--workload and --run-dir are required";
    return false;
  }
  if (!(args->seconds > 0.0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// Run-wide bookkeeping: calls attempted, calls failed, correctness.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Call(const Status& status, const std::string& what) {
    ++attempted;
    if (!status.ok()) {
      if (failed == 0) {
        std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
      }
      ++failed;
      correct = false;
    }
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "perfbench: check failed: " << what << "\n";
      correct = false;
    }
  }
};

// Times in a PassResult are host-normalized (HostSpeed): raw / slowdown.
struct PassResult {
  double slowdown = 1.0;  // host slowdown around the pass
  double setup_s = 0.0;   // Open
  double run_s = 0.0;     // first push to last pair delivered, probes excluded
  uint64_t accepted = 0;
  double state_bytes = 0.0;
  PairDigest digest;
  Metrics metrics;
  std::vector<int64_t> start_ns;  // per push k
  std::vector<int64_t> end_ns;
  int64_t open_ns[2] = {0, 0};
  int64_t close_ns[2] = {0, 0};
};

// One pass of `row` over the whole push order.
PassResult RunPass(const std::string& row, const Workload& w,
                   const StackEnv& env, HostSpeed* host, Outcome* outcome) {
  PassResult r;
  const double slowdown_before = host->Slowdown();
  auto made = MakeStack(row, w, env);
  if (!made.ok()) {
    outcome->Call(made.status(), row);
    return r;
  }
  Stack& stack = **made;
  const size_t n = w.order.size();
  r.start_ns.assign(n, 0);
  r.end_ns.assign(n, 0);
  stack.BindCompletions(r.end_ns.data());

  r.open_ns[0] = NowNs();
  outcome->Call(stack.Open(), row + " open");
  const int64_t first_push = NowNs();
  r.open_ns[1] = first_push;
  uint64_t push_failures = 0;
  for (size_t k = 0; k < n; ++k) {
    const auto [t, i] = w.order[k];
    r.start_ns[k] = NowNs();
    const Status pushed = stack.Push(t, i, k);
    if (!stack.async()) r.end_ns[k] = NowNs();
    if (!pushed.ok()) ++push_failures;
    outcome->Call(pushed, row + " push");
  }
  outcome->Call(stack.Drain(), row + " drain");
  const int64_t drained = NowNs();
  r.state_bytes = stack.StateBytes();
  stack.Probe();
  r.close_ns[0] = NowNs();
  outcome->Call(stack.Close(), row + " close");
  r.close_ns[1] = NowNs();

  r.slowdown = 0.5 * (slowdown_before + host->Slowdown());
  r.setup_s = SecondsBetween(r.open_ns[0], r.open_ns[1]) / r.slowdown;
  r.run_s = (SecondsBetween(first_push, drained) +
             SecondsBetween(r.close_ns[0], r.close_ns[1])) /
            r.slowdown;
  const uint64_t async_failures = stack.async_failures();
  outcome->failed += async_failures;
  if (async_failures > 0) outcome->correct = false;
  r.accepted = n - push_failures - async_failures;
  r.digest = stack.digest();
  r.metrics = stack.metrics();
  ScaleTimes(&r.metrics, r.slowdown);
  return r;
}

PairDigest ReferenceDigest(const Workload& w, Outcome* outcome) {
  PairDigest all;
  for (uint32_t t = 0; t < w.tenants.size(); ++t) {
    const Tenant& tenant = w.tenants[t];
    PairDigest digest;
    DigestSink sink(t, &digest);
    auto engine = sssj::SssjEngine::Make(tenant.reference, &sink);
    if (!engine.ok()) {
      outcome->Call(engine.status(), "reference engine");
      continue;
    }
    for (const sssj::StreamItem& item : tenant.stream) {
      outcome->Call((*engine)->Push(item.ts, item.vec), "reference push");
    }
    (*engine)->Flush();
    all.Merge(digest);
  }
  return all;
}

// Host-normalized per-push latencies of a pass, in microseconds.
std::vector<double> LatenciesUs(const PassResult& r) {
  std::vector<double> us;
  us.reserve(r.start_ns.size());
  for (size_t k = 0; k < r.start_ns.size(); ++k) {
    us.push_back(static_cast<double>(r.end_ns[k] - r.start_ns[k]) * 1e-3 /
                 r.slowdown);
  }
  return us;
}

// Forks and greets a 2-worker fleet.
Status StartFleet(std::unique_ptr<sssj::cluster::Supervisor>* out) {
  sssj::cluster::SupervisorOptions options;
  options.num_workers = kFleetWorkers;
  auto supervisor = std::make_unique<sssj::cluster::Supervisor>(options);
  Status started = supervisor->Start();
  if (!started.ok()) return started;
  *out = std::move(supervisor);
  return Status::Ok();
}

void PrintEnv(const Args& args, const Workload& w) {
  const unsigned threads = std::thread::hardware_concurrency();
  const double cores = EffectiveCores(static_cast<int>(threads), 0.2);
  std::ostringstream os;
  os.precision(4);
  os << "{\"env\": {\"workload\": \"" << w.name << "\", \"seed\": "
     << args.seed << ", \"hardware_threads\": " << threads
     << ", \"effective_cores\": " << cores
     << ", \"pinned_cpu\": " << args.pinned_cpu << ", \"simd\": \""
     << sssj::ToString(sssj::DetectSimdLevel()) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"parallelism\": \""
     << "none measured: pump threads and fleet workers share the pinned "
        "CPU, so concurrent figures are oversubscription, not scaling"
     << "\"}}";
  std::cout << os.str() << "\n";
}

void PrintResult(const Outcome& outcome, const std::map<std::string, double>& m) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (outcome.correct ? "true" : "false")
     << ", \"attempted\": " << std::max<uint64_t>(outcome.attempted, 1)
     << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    os << (first ? "" : ", ") << "\"" << name << "\": "
       << (std::isfinite(value) ? value : 0.0);
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int RunEndToEnd(const Args& args) {
  Workload w;
  Outcome outcome;
  Status described = DescribeWorkload(args.workload, &w);
  if (!described.ok()) {
    std::cerr << "perfbench: " << described.ToString() << "\n";
    return 2;
  }
  const bool fleet = w.top_row == "fleet";
  HostSpeed host;
  std::unique_ptr<sssj::cluster::Supervisor> supervisor;
  std::vector<double> setups;
  if (fleet) {
    // Fork while this process is single-threaded and before any stream
    // exists, so the workers inherit neither threads nor the stream.
    for (int rep = 0; rep < kFleetSetups; ++rep) {
      supervisor.reset();
      const double slowdown = host.Slowdown();
      const int64_t start = NowNs();
      Status started = StartFleet(&supervisor);
      outcome.Call(started, "fleet start");
      if (!started.ok()) break;
      sssj::cluster::ClusterClient client(supervisor.get());
      for (const Tenant& tenant : w.tenants) {
        outcome.Call(client.CreateSession(tenant.name, tenant.wire),
                     "fleet create");
      }
      setups.push_back(SecondsBetween(start, NowNs()) /
                       (0.5 * (slowdown + host.Slowdown())));
      for (const Tenant& tenant : w.tenants) {
        outcome.Call(client.CloseSession(tenant.name, nullptr), "fleet close");
      }
    }
    if (supervisor == nullptr) {
      PrintResult(outcome, {});
      return 1;
    }
  }
  Status generated = GenerateStreams(args.seed, args.run_dir, &w);
  if (!generated.ok()) {
    std::cerr << "perfbench: " << generated.ToString() << "\n";
    return 2;
  }
  const PairDigest reference = ReferenceDigest(w, &outcome);

  // Each pass yields its own throughput and latency percentiles (every
  // pass has enough samples for a p99); the run reports their
  // interquartile means. Samples are dropped after each pass, so memory
  // does not grow with the number of passes.
  StackEnv env;
  env.supervisor = supervisor.get();
  std::vector<double> throughput, raw_throughput, slowdowns, p50, p99, tails,
      states;
  const int64_t start = NowNs();
  int passes = 0;
  while (passes < kMinPasses ||
         SecondsBetween(start, NowNs()) < args.seconds) {
    PassResult r = RunPass(w.top_row, w, env, &host, &outcome);
    outcome.Check(r.digest == reference,
                  w.top_row + " pairs " + r.digest.ToString() +
                      " != reference " + reference.ToString());
    if (!fleet) setups.push_back(r.setup_s);
    throughput.push_back(static_cast<double>(r.accepted) / r.run_s);
    raw_throughput.push_back(throughput.back() / r.slowdown);
    slowdowns.push_back(r.slowdown);
    states.push_back(r.state_bytes);
    std::vector<double> us = LatenciesUs(r);
    std::sort(us.begin(), us.end());
    p50.push_back(UpperPercentile(us, 2));
    p99.push_back(UpperPercentile(us, 100));
    tails.push_back(UpperPercentile(us, HighestSupportedTail(us.size())));
    ++passes;
  }
  if (supervisor != nullptr) {
    outcome.Check(supervisor->restarts() == 0, "fleet restarts == 0");
    supervisor->Shutdown();
    supervisor.reset();
  }
  const size_t samples = w.order.size();
  outcome.Check(TailSupported(samples, 100),
                "at least 10 latency samples per pass beyond p99");
  std::map<std::string, double> m;
  m["throughput_vps"] = InterquartileMean(throughput);
  m["push_p50_us"] = InterquartileMean(p50);
  m["push_p99_us"] = InterquartileMean(p99);
  m["setup_s"] = Median(setups);
  m["state_mb"] = Median(states) / kMiB;
  m["peak_rss_mb"] = PeakRssMb();

  std::cout << "workload " << w.name << " seed " << args.seed << ": "
            << passes << " passes of " << samples << " pushes over "
            << w.tenants.size() << " tenant(s) through '" << w.top_row
            << "'; latency samples per pass " << samples << ", in all "
            << samples * passes << "; highest supported tail per pass "
            << PercentileName(HighestSupportedTail(samples)) << " = "
            << InterquartileMean(tails) << " us; " << setups.size()
            << " set-ups; pairs per pass " << reference.count
            << "; host slowdown " << InterquartileMean(slowdowns)
            << " (raw throughput " << InterquartileMean(raw_throughput)
            << " vectors/s)\n";
  PrintEnv(args, w);
  PrintResult(outcome, m);
  return outcome.correct ? 0 : 1;
}

// ---- traced run: the layer-by-layer ledger ----

struct Row {
  std::string name;
  int passes = 0;
  double ns_per_push = 0.0;  // median over passes
  double state_bytes = 0.0;
  uint64_t pairs = 0;
  bool pairs_match = true;
  Metrics metrics;     // from the last pass
  PassResult first;    // spans of the first pass
  std::vector<double> latencies_us;
};

Row RunRow(const std::string& row, const Workload& w, const StackEnv& env,
           double budget_s, const PairDigest& reference, HostSpeed* host,
           Outcome* outcome) {
  Row out;
  out.name = row;
  std::vector<double> ns;
  const int64_t start = NowNs();
  do {
    PassResult r = RunPass(row, w, env, host, outcome);
    const bool match = r.digest == reference;
    outcome->Check(match, row + " pairs " + r.digest.ToString() +
                              " != reference " + reference.ToString());
    out.pairs_match = out.pairs_match && match;
    out.pairs = r.digest.count;
    ns.push_back(r.run_s * 1e9 / static_cast<double>(w.order.size()));
    out.state_bytes = r.state_bytes;
    out.metrics = r.metrics;
    const std::vector<double> us = LatenciesUs(r);
    out.latencies_us.insert(out.latencies_us.end(), us.begin(), us.end());
    if (out.passes == 0) out.first = std::move(r);
    ++out.passes;
  } while (SecondsBetween(start, NowNs()) < budget_s);
  out.ns_per_push = Median(ns);
  return out;
}

// Encodes and decodes every push request and its reply, as the client and
// worker do for each call; returns ns per push and fills the byte counts.
double TimeWireCodec(const Workload& w,
                     const std::vector<std::vector<sssj::ResultPair>>& pairs,
                     double budget_s, HostSpeed* host, double* request_bytes,
                     double* reply_bytes, Outcome* outcome) {
  namespace cl = sssj::cluster;
  std::vector<double> ns;
  const int64_t start = NowNs();
  do {
    uint64_t req_total = 0;
    uint64_t rep_total = 0;
    bool ok = true;
    const double slowdown = host->Slowdown();
    const int64_t t0 = NowNs();
    for (size_t k = 0; k < w.order.size(); ++k) {
      const auto [t, i] = w.order[k];
      const sssj::StreamItem& item = w.tenants[t].stream[i];
      cl::PushRequest request{w.tenants[t].name, item.ts, item.vec};
      const std::string request_payload = cl::EncodePush(request);
      cl::PushRequest request_back;
      ok = ok && cl::DecodePush(request_payload, &request_back).ok();
      cl::Reply reply;
      reply.pairs = pairs[k];
      const std::string reply_payload = cl::EncodeReply(reply);
      cl::Reply reply_back;
      ok = ok && cl::DecodeReply(reply_payload, &reply_back).ok();
      ok = ok && reply_back.pairs.size() == pairs[k].size();
      req_total += request_payload.size() + cl::kFrameHeaderSize;
      rep_total += reply_payload.size() + cl::kFrameHeaderSize;
    }
    const double elapsed = SecondsBetween(t0, NowNs());
    ns.push_back(elapsed * 1e9 / static_cast<double>(w.order.size()) /
                 (0.5 * (slowdown + host->Slowdown())));
    outcome->Check(ok, "wire round trip of the workload's frames");
    *request_bytes = static_cast<double>(req_total) /
                     static_cast<double>(w.order.size());
    *reply_bytes = static_cast<double>(rep_total) /
                   static_cast<double>(w.order.size());
  } while (SecondsBetween(start, NowNs()) < budget_s);
  return Median(ns);
}

// ReadTextStream over every tenant's text file; median seconds per read
// of all files.
double TimeParse(const Workload& w, double budget_s, HostSpeed* host,
                 Outcome* outcome) {
  std::vector<double> secs;
  const int64_t start = NowNs();
  do {
    const double slowdown = host->Slowdown();
    double total = 0.0;
    for (const Tenant& tenant : w.tenants) {
      sssj::Stream parsed;
      const int64_t t0 = NowNs();
      outcome->Call(sssj::ReadTextStream(tenant.text_path, &parsed), "parse");
      total += SecondsBetween(t0, NowNs());
      outcome->Check(parsed.size() == tenant.stream.size(),
                     "parsed item count");
    }
    secs.push_back(total / (0.5 * (slowdown + host->Slowdown())));
  } while (SecondsBetween(start, NowNs()) < budget_s);
  return Median(secs);
}

// The STR-INV index under the scalar and the SIMD kernels on the same
// prepared streams, alternating; returns SIMD throughput over scalar.
double TimeInvKernels(const Workload& w, double budget_s, Outcome* outcome) {
  std::vector<double> secs[2];
  PairDigest digests[2];
  const int64_t start = NowNs();
  do {
    for (int simd = 0; simd < 2; ++simd) {
      PairDigest digest;
      double total = 0.0;
      for (uint32_t t = 0; t < w.tenants.size(); ++t) {
        const Tenant& tenant = w.tenants[t];
        sssj::StreamInvIndex index(tenant.params, simd == 1,
                                   tenant.config.tiered);
        DigestSink sink(t, &digest);
        const int64_t t0 = NowNs();
        for (const sssj::StreamItem& item : tenant.prepared) {
          index.ProcessArrival(item, &sink);
        }
        total += SecondsBetween(t0, NowNs());
      }
      secs[simd].push_back(total);
      digests[simd] = digest;
    }
  } while (SecondsBetween(start, NowNs()) < budget_s);
  outcome->Check(digests[0] == digests[1],
                 "STR-INV emits identical pairs under both kernels");
  return Median(secs[0]) / Median(secs[1]);
}

void WriteSpans(const std::string& path, const Workload& w,
                const std::vector<Row>& rows) {
  std::ofstream f(path);
  f << "row\tspan\tk\ttenant\tstart_ns\tend_ns\n";
  for (const Row& row : rows) {
    const PassResult& r = row.first;
    const int64_t base = r.open_ns[0];
    f << row.name << "\topen\t-\t-\t0\t" << r.open_ns[1] - base << "\n";
    for (size_t k = 0; k < r.start_ns.size(); ++k) {
      f << row.name << "\tpush\t" << k << "\t" << w.order[k].first << "\t"
        << r.start_ns[k] - base << "\t" << r.end_ns[k] - base << "\n";
    }
    f << row.name << "\tclose\t-\t-\t" << r.close_ns[0] - base << "\t"
      << r.close_ns[1] - base << "\n";
  }
  if (!f.good()) std::cerr << "perfbench: cannot write " << path << "\n";
}

int RunLedger(const Args& args) {
  Workload w;
  Outcome outcome;
  Status described = DescribeWorkload(args.workload, &w);
  if (!described.ok()) {
    std::cerr << "perfbench: " << described.ToString() << "\n";
    return 2;
  }
  // The fleet row's workers fork first, before any stream or thread.
  HostSpeed host;
  std::unique_ptr<sssj::cluster::Supervisor> supervisor;
  const double start_slowdown = host.Slowdown();
  const int64_t fleet_start = NowNs();
  Status started = StartFleet(&supervisor);
  const double fleet_start_s = SecondsBetween(fleet_start, NowNs()) /
                               (0.5 * (start_slowdown + host.Slowdown()));
  outcome.Call(started, "fleet start");
  if (!started.ok()) {
    PrintResult(outcome, {});
    return 1;
  }
  Status generated = GenerateStreams(args.seed, args.run_dir, &w);
  if (generated.ok()) generated = WriteTextFiles(args.run_dir, &w);
  if (!generated.ok()) {
    std::cerr << "perfbench: " << generated.ToString() << "\n";
    return 2;
  }
  const PairDigest reference = ReferenceDigest(w, &outcome);

  const std::vector<std::string>& names = LedgerRows();
  const double budget = args.seconds / static_cast<double>(names.size() + 3);
  std::vector<std::vector<sssj::ResultPair>> pairs_by_push(w.order.size());
  std::vector<Row> rows;
  std::map<std::string, const Row*> by_name;
  for (const std::string& name : names) {
    StackEnv env;
    env.supervisor = supervisor.get();
    if (name == "client") env.pairs_by_push = &pairs_by_push;
    rows.push_back(RunRow(name, w, env, budget, reference, &host, &outcome));
  }
  for (const Row& row : rows) by_name[row.name] = &row;

  // Tracing overhead: the top row's stack again, as many passes, keeping
  // no spans. (cli-sparse's path is the engine row behind a parse that
  // happens before the first push.)
  const std::string top = w.top_row == "cli" ? "engine" : w.top_row;
  std::vector<double> untraced_ns;
  {
    StackEnv env;
    env.supervisor = supervisor.get();
    for (int p = 0; p < by_name[top]->passes; ++p) {
      PassResult r = RunPass(top, w, env, &host, &outcome);
      outcome.Check(r.digest == reference, "untraced pass pairs");
      untraced_ns.push_back(r.run_s * 1e9 /
                            static_cast<double>(w.order.size()));
    }
  }
  const double restarts = static_cast<double>(supervisor->restarts());
  outcome.Check(restarts == 0, "fleet restarts == 0");
  supervisor->Shutdown();
  supervisor.reset();

  double request_bytes = 0.0;
  double reply_bytes = 0.0;
  const double codec_ns = TimeWireCodec(w, pairs_by_push, budget, &host,
                                        &request_bytes, &reply_bytes,
                                        &outcome);
  const double parse_s = TimeParse(w, budget, &host, &outcome);
  const double simd_over_scalar = TimeInvKernels(w, budget, &outcome);

  auto ns = [&](const std::string& row) { return by_name[row]->ns_per_push; };
  auto self = [&](const std::string& row) {
    return ns(row) - ns(BelowRow(row));
  };
  auto metric = [&](const std::string& row, const std::string& key) {
    const Metrics& m = by_name[row]->metrics;
    auto it = m.find(key);
    outcome.Check(it != m.end(), row + " reports " + key);
    return it == m.end() ? 0.0 : it->second;
  };

  std::map<std::string, double> m;
  uint64_t text_bytes = 0;
  for (const Tenant& tenant : w.tenants) text_bytes += tenant.text_bytes;
  m["io.parse_s"] = parse_s;
  m["io.parse_mb_per_s"] = static_cast<double>(text_bytes) / kMiB / parse_s;

  m["index.ns_per_arrival"] = ns("index");
  for (const char* key :
       {"index.entries_traversed_per_arrival", "index.candidates_per_arrival",
        "index.verify_calls_per_arrival", "index.entries_indexed_per_arrival",
        "index.entries_pruned_per_arrival",
        "index.reindexed_coords_per_arrival", "index.l2_prune_frac",
        "index.verify_yield", "index.peak_entries",
        "index.memory_bytes_call_us"}) {
    m[key] = metric("index", key);
  }
  m["index.memory_mb"] = by_name["index"]->state_bytes / kMiB;
  m["index.simd_over_scalar"] = simd_over_scalar;

  m["stream.self_ns_per_push"] = self("stream");
  m["stream.retained_mb"] =
      (by_name["stream"]->state_bytes - by_name["index"]->state_bytes) / kMiB;
  m["stream.index_rebuilds"] = metric("stream", "stream.index_rebuilds");
  m["stream.flush_ms"] = metric("stream", "stream.flush_ms");

  m["engine.self_ns_per_push"] = self("engine");

  m["ingest.self_ns_per_item"] = self("ingest");
  for (const char* key : {"ingest.epochs_closed", "ingest.blocked_submits",
                          "ingest.max_queue_depth"}) {
    m[key] = metric("ingest", key);
  }

  m["service.self_ns_per_push"] = self(w.service_row);
  m["service.memory_bytes_call_us"] =
      metric(w.service_row, "service.memory_bytes_call_us");
  m["service.stats_call_us"] = metric(w.service_row, "service.stats_call_us");

  m["client.self_ns_per_push"] = self("client");
  m["wire.request_bytes_per_push"] = request_bytes;
  m["wire.reply_bytes_per_push"] = reply_bytes;
  m["wire.codec_ns_per_push"] = codec_ns;

  m["fleet.self_ns_per_push"] = self("fleet");
  m["fleet.start_s"] = fleet_start_s;
  m["fleet.restarts"] = restarts;

  for (const char* key : {"checkpoint.bytes_per_session",
                          "checkpoint.save_ms", "checkpoint.load_ms"}) {
    m[key] = metric("service", key);
  }
  outcome.Check(m["checkpoint.bytes_per_session"] > 0,
                "every session saves and reloads a checkpoint");

  std::vector<double> top_latencies = by_name[top]->latencies_us;
  std::sort(top_latencies.begin(), top_latencies.end());
  const uint64_t tail = HighestSupportedTail(top_latencies.size());
  outcome.Check(tail > 0, "enough latency samples for a median");
  m["trace.overhead_frac"] = ns(top) / Median(untraced_ns) - 1.0;
  m["latency.samples"] = static_cast<double>(top_latencies.size());
  m["latency.tail_us"] =
      tail > 0 ? UpperPercentile(top_latencies, tail) : 0.0;

  std::printf("ledger %s seed %llu: %zu pushes over %zu tenant(s), top row "
              "'%s', reference %s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.order.size(), w.tenants.size(), top.c_str(),
              reference.ToString().c_str());
  std::printf("  %-14s %-14s %6s %12s %12s %9s %10s\n", "row", "over",
              "passes", "ns/push", "self ns", "pairs", "state MiB");
  for (const Row& row : rows) {
    const std::string below = BelowRow(row.name);
    std::printf("  %-14s %-14s %6d %12.0f %12.0f %9llu%s %10.3f\n",
                row.name.c_str(), below.empty() ? "-" : below.c_str(),
                row.passes, row.ns_per_push,
                below.empty() ? row.ns_per_push : self(row.name),
                static_cast<unsigned long long>(row.pairs),
                row.pairs_match ? " " : "!", row.state_bytes / kMiB);
  }
  std::printf("  latency tail of '%s': %s over %zu samples\n", top.c_str(),
              PercentileName(tail).c_str(), top_latencies.size());
  std::fflush(stdout);
  if (!args.spans_out.empty()) WriteSpans(args.spans_out, w, rows);
  PrintEnv(args, w);
  PrintResult(outcome, m);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  // Before any thread or fork, so everything the run starts inherits it.
  args.pinned_cpu = perfbench::PinToOneCpu();
  return args.trace ? perfbench::RunLedger(args)
                    : perfbench::RunEndToEnd(args);
}
