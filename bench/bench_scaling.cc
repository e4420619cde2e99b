// Scaling: running time vs stream length at a fixed horizon. The crux of
// the paper's scalability argument (§7.1 Q1) is that STR's per-arrival
// cost depends on the horizon, not on the stream length — so total time
// grows linearly in n and the method "is able to run on all datasets",
// while MB's window-rebuild overhead accumulates. This bench sweeps n at
// fixed (θ, λ) and prints time and throughput for STR-L2, STR-INV, MB-L2.
// Everything measured is also written as machine-readable JSON to
// --json-out (default BENCH_scaling.json; empty string disables).
//
// A second table sweeps the MiniBatch window-close fan-out's thread count
// (--mb-thread-list, default 1,2,4,8) on the dense WebSpam-like profile
// (--mb-scale), where per-window query cost dominates, and reports
// throughput and speedup over the sequential num_threads=1 baseline. MB
// output is bit-identical across thread counts, so the pairs column
// doubles as a determinism check. (STR runs one sequential scan at every
// num_threads, so it has no thread sweep.) A third sweeps JoinService
// tenancy (--session-list, default 1,2,4,8): K concurrent sessions each
// fed the full stream from its own thread, so the per-session throughput
// column is the multi-tenant overhead. Skip all of them with
// --no-threads.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench_common/bench_json.h"
#include "cluster/supervisor.h"
#include "core/join_service.h"
#include "util/timer.h"

namespace sssj {
namespace {

// The MB thread-count sweep table over `stream`: runs the whole stream
// per thread count and reports throughput and speedup. The speedup column
// is always relative to a measured num_threads=1 run, even when 1 is not
// in `thread_list`.
void PrintThreadSweep(const Stream& stream, double theta, double lambda,
                      const std::vector<double>& thread_list, bool tsv,
                      const std::string& caption) {
  TablePrinter table({"threads", "time(s)", "kvec/s", "pairs", "speedup",
                      "mem(MB)"},
                     tsv);
  const auto run = [&](int threads, uint64_t* pairs, uint64_t* mem) {
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.index = IndexScheme::kL2;
    cfg.theta = theta;
    cfg.lambda = lambda;
    cfg.num_threads = threads;
    CountingSink sink;
    auto engine = *SssjEngine::Make(cfg, &sink);
    Timer timer;
    engine->PushBatch(stream);
    engine->Flush();  // drains the windows
    *pairs = sink.count();
    *mem = engine->MemoryBytes();
    return timer.ElapsedSeconds();
  };
  uint64_t baseline_pairs = 0;
  uint64_t baseline_mem = 0;
  const double baseline_seconds = run(1, &baseline_pairs, &baseline_mem);
  for (double threads_d : thread_list) {
    const int threads = static_cast<int>(threads_d);
    if (threads < 1) continue;
    uint64_t pairs = baseline_pairs;
    uint64_t mem = baseline_mem;
    const double seconds =
        threads == 1 ? baseline_seconds : run(threads, &pairs, &mem);
    table.AddRow({std::to_string(threads), FormatDouble(seconds, 3),
                  FormatDouble(stream.size() / seconds / 1000.0, 1),
                  std::to_string(pairs),
                  FormatDouble(baseline_seconds / seconds, 2) + "x",
                  FormatDouble(mem / (1024.0 * 1024.0), 2)});
  }
  std::cout << caption;
  table.Print(std::cout);
}

// Sorted-percentile helper for the latency columns (nearest-rank on a
// pre-sorted sample).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(std::llround(rank))];
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  // A retired sweep's flags (--thread-list, --thread-scale) must not be
  // accepted and ignored.
  flags.RejectUnknown(
      {"scale", "seed", "tsv", "theta-list", "lambda-list", "budget-ms",
       "theta", "lambda", "scale-list", "json-out", "no-cluster",
       "worker-list", "cluster-sessions", "cluster-json-out",
       "cluster-scale", "no-threads", "mb-thread-list", "mb-scale",
       "session-list", "service-scale", "producer-list", "queue-capacity",
       "epoch-items", "ingest-scale"});
  const auto args = bench::ParseCommon(flags, /*default_scale=*/1.0);
  const double theta = flags.GetDouble("theta", 0.7);
  const double lambda = flags.GetDouble("lambda", 0.01);
  const std::vector<double> scales =
      flags.GetDoubleList("scale-list", {0.25, 0.5, 1.0, 2.0, 4.0});
  const std::string json_out =
      flags.GetString("json-out", "BENCH_scaling.json");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "scaling")
      .Set("theta", theta)
      .Set("lambda", lambda)
      .Set("seed", args.seed)
      .Set("hardware_threads",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  JsonValue scaling_rows = JsonValue::Array();
  const auto write_doc = [&](JsonValue rows) {
    doc.Set("scaling", std::move(rows));
    if (json_out.empty()) return;
    const Status status = WriteJsonFile(doc, json_out);
    if (!status.ok()) {
      std::cerr << "warning: " << status.ToString() << "\n";
    } else {
      std::cout << "\nwrote " << json_out << "\n";
    }
  };

  // Every variant runs once per kernel path; the kernel column turns the
  // scaling table into a scalar-vs-SIMD comparison at each stream length.
  const KernelMode kernel_modes[] = {KernelMode::kScalar, KernelMode::kSimd};
  TablePrinter table({"n", "variant", "kernel", "time(s)", "kvec/s", "pairs",
                      "peak_entries", "mem(MB)"},
                     args.tsv);
  for (double scale : scales) {
    const Stream stream =
        GenerateProfile(DatasetProfile::kRcv1, scale, args.seed);
    struct Variant {
      const char* label;
      Framework fw;
      IndexScheme ix;
    };
    const Variant variants[] = {
        {"STR-L2", Framework::kStreaming, IndexScheme::kL2},
        {"STR-INV", Framework::kStreaming, IndexScheme::kInv},
        {"MB-L2", Framework::kMiniBatch, IndexScheme::kL2},
    };
    for (const Variant& v : variants) {
      for (KernelMode kernel : kernel_modes) {
        RunConfig cfg;
        cfg.framework = v.fw;
        cfg.index = v.ix;
        cfg.theta = theta;
        cfg.lambda = lambda;
        cfg.kernel = kernel;
        const RunResult r = RunJoin(stream, cfg);
        table.AddRow({std::to_string(stream.size()), v.label,
                      ToString(kernel), FormatDouble(r.seconds, 3),
                      FormatDouble(stream.size() / r.seconds / 1000.0, 1),
                      std::to_string(r.pairs),
                      std::to_string(r.stats.peak_index_entries),
                      FormatDouble(r.memory_bytes / (1024.0 * 1024.0), 2)});
        scaling_rows.Push(
            JsonValue::Object()
                .Set("n", static_cast<uint64_t>(stream.size()))
                .Set("variant", v.label)
                .Set("kernel", ToString(kernel))
                .Set("seconds", r.seconds)
                .Set("kvec_per_s", stream.size() / r.seconds / 1000.0)
                .Set("pairs", r.pairs)
                .Set("peak_index_entries", r.stats.peak_index_entries)
                .Set("memory_bytes", r.memory_bytes));
      }
    }
  }
  std::cout << "Scaling: time vs stream length at fixed theta=" << theta
            << ", lambda=" << lambda
            << " (RCV1Like; expect ~constant kvec/s for STR; simd rows use "
               "the "
            << ToString(DetectSimdLevel()) << " kernels)\n";
  table.Print(std::cout);

  // ---- Cluster sweep: in-process vs K-worker fleet over the wire ----
  // The same driver feeds S sessions round-robin through a ClusterClient
  // against both backends, so the table isolates what the cluster layer
  // costs: frame encode/decode + a Unix-socket round trip per call, and
  // how that overhead moves as the fleet widens (rendezvous hashing
  // spreads the sessions, so wider fleets mean smaller per-worker
  // indexes). Calls are synchronous, so this measures per-call overhead,
  // not parallel speedup. The pairs column must be identical on every
  // row — the in-process-vs-cluster bitwise pin, restated as a bench
  // invariant. Runs before the thread sweeps because the supervisor
  // forks its fleet, which must happen while this process is
  // single-threaded. Skip with --no-cluster; JSON goes to
  // --cluster-json-out (default BENCH_cluster.json; empty disables).
  if (!flags.GetBool("no-cluster", false)) {
    const std::vector<double> worker_list =
        flags.GetDoubleList("worker-list", {1, 2, 4});
    const size_t cluster_sessions =
        static_cast<size_t>(flags.GetInt("cluster-sessions", 4));
    const std::string cluster_json_out =
        flags.GetString("cluster-json-out", "BENCH_cluster.json");
    const Stream stream = GenerateProfile(
        DatasetProfile::kRcv1, flags.GetDouble("cluster-scale", args.scale),
        args.seed);
    cluster::WireConfig wire_cfg;
    wire_cfg.framework = Framework::kStreaming;
    wire_cfg.index = IndexScheme::kL2;
    wire_cfg.theta = theta;
    wire_cfg.lambda = lambda;
    std::vector<std::string> names;
    for (size_t s = 0; s < cluster_sessions; ++s) {
      names.push_back("bench-" + std::to_string(s));
    }
    const auto drive = [&](cluster::ClusterClient* client,
                           uint64_t* pairs_out) {
      for (const std::string& name : names) {
        client->CreateSession(name, wire_cfg);
      }
      uint64_t total = 0;
      std::vector<ResultPair> pairs;
      Timer timer;
      for (const StreamItem& item : stream) {
        for (const std::string& name : names) {
          pairs.clear();
          client->Push(name, item.ts, item.vec, &pairs);
          total += pairs.size();
        }
      }
      for (const std::string& name : names) {
        pairs.clear();
        client->Flush(name, &pairs);
        total += pairs.size();
        pairs.clear();
        client->CloseSession(name, &pairs);
        total += pairs.size();
      }
      *pairs_out = total;
      return timer.ElapsedSeconds();
    };

    TablePrinter table({"mode", "workers", "time(s)", "kvec/s", "pairs",
                        "overhead"},
                       args.tsv);
    JsonValue cluster_rows = JsonValue::Array();
    const double pushes = static_cast<double>(cluster_sessions) *
                          static_cast<double>(stream.size());
    uint64_t baseline_pairs = 0;
    double baseline_seconds = 0.0;
    {
      cluster::ClusterClient local{JoinServiceOptions{}};
      baseline_seconds = drive(&local, &baseline_pairs);
      table.AddRow({"in-process", "0", FormatDouble(baseline_seconds, 3),
                    FormatDouble(pushes / baseline_seconds / 1000.0, 1),
                    std::to_string(baseline_pairs), "1.00x"});
      cluster_rows.Push(JsonValue::Object()
                            .Set("mode", "in-process")
                            .Set("workers", static_cast<uint64_t>(0))
                            .Set("seconds", baseline_seconds)
                            .Set("kvec_per_s",
                                 pushes / baseline_seconds / 1000.0)
                            .Set("pairs", baseline_pairs)
                            .Set("overhead_vs_inproc", 1.0));
    }
    for (double workers_d : worker_list) {
      const int workers = workers_d < 1 ? 1 : static_cast<int>(workers_d);
      cluster::SupervisorOptions options;
      options.num_workers = workers;
      cluster::Supervisor supervisor(options);
      const Status started = supervisor.Start();
      if (!started.ok()) {
        std::cerr << "warning: cluster sweep skipped: "
                  << started.ToString() << "\n";
        break;
      }
      cluster::ClusterClient remote(&supervisor);
      uint64_t pairs = 0;
      const double seconds = drive(&remote, &pairs);
      supervisor.Shutdown();
      if (pairs != baseline_pairs) {
        std::cerr << "ERROR: cluster pairs " << pairs
                  << " != in-process pairs " << baseline_pairs << "\n";
        return 1;
      }
      table.AddRow({"cluster", std::to_string(workers),
                    FormatDouble(seconds, 3),
                    FormatDouble(pushes / seconds / 1000.0, 1),
                    std::to_string(pairs),
                    FormatDouble(seconds / baseline_seconds, 2) + "x"});
      cluster_rows.Push(JsonValue::Object()
                            .Set("mode", "cluster")
                            .Set("workers", static_cast<uint64_t>(workers))
                            .Set("seconds", seconds)
                            .Set("kvec_per_s", pushes / seconds / 1000.0)
                            .Set("pairs", pairs)
                            .Set("overhead_vs_inproc",
                                 seconds / baseline_seconds));
    }
    std::cout << "\nCluster layer: " << cluster_sessions
              << " STR-L2 sessions fed round-robin (n=" << stream.size()
              << " each) through a ClusterClient; in-process vs a forked "
                 "K-worker fleet over Unix sockets (pairs must match on "
                 "every row)\n";
    table.Print(std::cout);
    if (!cluster_json_out.empty()) {
      JsonValue cluster_doc = JsonValue::Object();
      cluster_doc.Set("bench", "cluster")
          .Set("theta", theta)
          .Set("lambda", lambda)
          .Set("seed", args.seed)
          .Set("n", static_cast<uint64_t>(stream.size()))
          .Set("sessions", static_cast<uint64_t>(cluster_sessions))
          .Set("cluster", std::move(cluster_rows));
      const Status status = WriteJsonFile(cluster_doc, cluster_json_out);
      if (!status.ok()) {
        std::cerr << "warning: " << status.ToString() << "\n";
      } else {
        std::cout << "\nwrote " << cluster_json_out << "\n";
      }
    }
  }

  if (flags.GetBool("no-threads", false)) {
    write_doc(std::move(scaling_rows));
    return 0;
  }

  // ---- Thread-count sweep over the MB window-close fan-out ----
  // The dense profile: avg |x| ≈ 500 makes the per-window probe phase the
  // dominant cost, which is exactly the work the fan-out parallelizes.
  {
    const std::vector<double> mb_thread_list =
        flags.GetDoubleList("mb-thread-list", {1, 2, 4, 8});
    const double mb_scale = flags.GetDouble("mb-scale", args.scale);
    const Stream stream =
        GenerateProfile(DatasetProfile::kWebSpam, mb_scale, args.seed);
    std::ostringstream caption;
    caption << "\nThread sweep: MB-L2 window-close fan-out, WebSpamLike n="
            << stream.size() << ", theta=" << theta << ", lambda=" << lambda
            << " (speedup vs num_threads=1, bit-identical output at every "
               "thread count; hardware threads available: "
            << std::thread::hardware_concurrency() << ")\n";
    PrintThreadSweep(stream, theta, lambda, mb_thread_list, args.tsv,
                     caption.str());
  }

  // ---- Multi-tenant sweep: K concurrent JoinService sessions vs 1 ----
  // Every session runs the same STR-L2 config over the same stream, each
  // fed from its own thread. Per-session work is constant, so the
  // aggregate-throughput column exposes exactly the multi-tenant overhead
  // (registry locks, shared allocator pressure, cache competition); the
  // pairs column must equal K × the single-session count.
  {
    const std::vector<double> session_list =
        flags.GetDoubleList("session-list", {1, 2, 4, 8});
    const Stream stream = GenerateProfile(
        DatasetProfile::kRcv1, flags.GetDouble("service-scale", args.scale),
        args.seed);
    TablePrinter table({"sessions", "time(s)", "agg_kvec/s", "per_sess_kvec/s",
                        "slowdown", "pairs", "mem(MB)"},
                       args.tsv);
    double baseline_seconds = 0.0;
    for (double sessions_d : session_list) {
      const size_t k = sessions_d < 1 ? 1 : static_cast<size_t>(sessions_d);
      JoinService service;
      EngineConfig cfg;
      cfg.framework = Framework::kStreaming;
      cfg.index = IndexScheme::kL2;
      cfg.theta = theta;
      cfg.lambda = lambda;
      std::vector<CountingSink> sinks(k);
      std::vector<JoinService::SessionHandle> handles(k);
      for (size_t s = 0; s < k; ++s) {
        handles[s] = *service.CreateSession(
            {"tenant-" + std::to_string(s), cfg, &sinks[s]});
      }
      Timer timer;
      std::vector<std::thread> feeders;
      feeders.reserve(k);
      for (size_t s = 0; s < k; ++s) {
        feeders.emplace_back([&, s] {
          for (const StreamItem& item : stream) {
            service.Push(handles[s], item.ts, item.vec);
          }
        });
      }
      for (std::thread& t : feeders) t.join();
      const double seconds = timer.ElapsedSeconds();
      if (baseline_seconds == 0.0) baseline_seconds = seconds;
      uint64_t pairs = 0;
      for (const CountingSink& sink : sinks) pairs += sink.count();
      const ServiceStats stats = service.Stats();
      table.AddRow({std::to_string(k), FormatDouble(seconds, 3),
                    FormatDouble(k * stream.size() / seconds / 1000.0, 1),
                    FormatDouble(stream.size() / seconds / 1000.0, 1),
                    FormatDouble(seconds / baseline_seconds, 2) + "x",
                    std::to_string(pairs),
                    FormatDouble(stats.memory_bytes / (1024.0 * 1024.0), 2)});
    }
    std::cout << "\nJoinService multi-tenancy: K concurrent sessions, each "
                 "fed the full RCV1Like stream (n="
              << stream.size() << ") from its own thread; per-session kvec/s "
              << "vs K shows the multi-tenant overhead\n";
    table.Print(std::cout);
  }

  // ---- Async ingestion sweep: inline vs async with K producers ----
  // K producer threads feed ONE engine. Inline mode serializes them on a
  // mutex around Push (latency = lock wait + the full scan); async mode
  // serializes them on the queue's mutex (latency = queue time + the
  // scan on the pump thread). Same items, same pair count — the columns
  // isolate what the ingress layer buys: sustained producer-side
  // throughput and the submit-to-apply latency distribution under
  // contention. All items share one timestamp so every interleaving is a
  // valid arrival order.
  {
    using SteadyClock = std::chrono::steady_clock;
    const std::vector<double> producer_list =
        flags.GetDoubleList("producer-list", {1, 2, 4, 8});
    const size_t queue_capacity = static_cast<size_t>(
        flags.GetInt("queue-capacity", 4096));
    const size_t epoch_items =
        static_cast<size_t>(flags.GetInt("epoch-items", 256));
    Stream stream = GenerateProfile(
        DatasetProfile::kRcv1, flags.GetDouble("ingest-scale", args.scale),
        args.seed);
    for (StreamItem& item : stream) item.ts = 0.0;
    const size_t n = stream.size();

    TablePrinter table({"mode", "producers", "time(s)", "kvec/s", "p50(ms)",
                        "p95(ms)", "p99(ms)", "pairs", "blocked", "epochs"},
                       args.tsv);
    JsonValue sweep_rows = JsonValue::Array();
    for (double producers_d : producer_list) {
      const size_t k = producers_d < 1 ? 1 : static_cast<size_t>(producers_d);
      for (const bool async : {false, true}) {
        EngineConfig cfg;
        cfg.framework = Framework::kStreaming;
        cfg.index = IndexScheme::kL2;
        cfg.theta = theta;
        cfg.lambda = lambda;
        std::vector<SteadyClock::time_point> submitted(n), applied(n);
        if (async) {
          cfg.ingest.mode = IngestMode::kAsync;
          cfg.ingest.queue_capacity = queue_capacity;
          cfg.ingest.epoch_max_items = epoch_items;
          cfg.ingest.submit = SubmitPolicy::kBlock;
          cfg.ingest.on_complete = [&applied](uint64_t ticket,
                                              const Status&) {
            applied[ticket] = SteadyClock::now();
          };
        }
        CountingSink sink;
        auto engine = *SssjEngine::Make(cfg, &sink);
        std::mutex push_mu;  // inline mode: producers serialize here
        std::atomic<size_t> next_index{0};  // ticket surrogate for inline

        Timer timer;
        std::vector<std::thread> feeders;
        for (size_t p = 0; p < k; ++p) {
          feeders.emplace_back([&, p] {
            const size_t begin = p * n / k, end = (p + 1) * n / k;
            for (size_t i = begin; i < end; ++i) {
              const SteadyClock::time_point t0 = SteadyClock::now();
              if (async) {
                uint64_t ticket = 0;
                engine->AsyncPush(stream[i].ts, stream[i].vec, &ticket);
                submitted[ticket] = t0;
              } else {
                std::lock_guard<std::mutex> lock(push_mu);
                engine->Push(stream[i].ts, stream[i].vec);
                const size_t slot = next_index.fetch_add(1);
                submitted[slot] = t0;
                applied[slot] = SteadyClock::now();
              }
            }
          });
        }
        for (std::thread& t : feeders) t.join();
        if (async) engine->Drain();
        const double seconds = timer.ElapsedSeconds();

        std::vector<double> latencies_ms;
        latencies_ms.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(applied[i] -
                                                        submitted[i])
                  .count());
        }
        std::sort(latencies_ms.begin(), latencies_ms.end());
        const double p50 = Percentile(latencies_ms, 0.50);
        const double p95 = Percentile(latencies_ms, 0.95);
        const double p99 = Percentile(latencies_ms, 0.99);
        const IngestStats ingest = engine->ingest_stats();
        const char* mode = async ? "async" : "inline";
        table.AddRow({mode, std::to_string(k), FormatDouble(seconds, 3),
                      FormatDouble(n / seconds / 1000.0, 1),
                      FormatDouble(p50, 3), FormatDouble(p95, 3),
                      FormatDouble(p99, 3), std::to_string(sink.count()),
                      std::to_string(ingest.blocked_submits),
                      std::to_string(ingest.epochs_closed)});
        sweep_rows.Push(JsonValue::Object()
                            .Set("mode", mode)
                            .Set("producers", static_cast<uint64_t>(k))
                            .Set("seconds", seconds)
                            .Set("kvec_per_s", n / seconds / 1000.0)
                            .Set("latency_p50_ms", p50)
                            .Set("latency_p95_ms", p95)
                            .Set("latency_p99_ms", p99)
                            .Set("pairs", sink.count())
                            .Set("blocked_submits", ingest.blocked_submits)
                            .Set("epochs_closed", ingest.epochs_closed)
                            .Set("max_queue_depth", ingest.max_queue_depth));
      }
    }
    std::cout << "\nAsync ingestion: K producers feeding one STR-L2 engine "
                 "(n="
              << n << ", queue=" << queue_capacity << ", epoch="
              << epoch_items
              << " items); inline serializes producers on a mutex, async on "
                 "the queue's mutex; latency is submit-to-apply\n";
    table.Print(std::cout);
    doc.Set("ingest_sweep",
            JsonValue::Object()
                .Set("n", static_cast<uint64_t>(n))
                .Set("queue_capacity", static_cast<uint64_t>(queue_capacity))
                .Set("epoch_max_items", static_cast<uint64_t>(epoch_items))
                .Set("rows", std::move(sweep_rows)));
  }

  write_doc(std::move(scaling_rows));
  return 0;
}

}  // namespace
}  // namespace sssj

int main(int argc, char** argv) { return sssj::Run(argc, argv); }
