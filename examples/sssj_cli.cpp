// sssj_cli — run a streaming similarity self-join over a stream file,
// mirroring the original project's command-line entry point.
//
//   ./examples/sssj_cli --input=stream.txt --theta=0.7 --lambda=0.01
//   ./examples/sssj_cli --input=stream.bin --format=bin --framework=MB
//       --index=L2AP --output=pairs.txt --quiet   (single command line)
//
// Flags:
//   --input=<path>       stream file (required)
//   --format=text|bin    input format (default: by .bin extension)
//   --framework=STR|MB   (default STR)
//   --index=INV|AP|L2AP|L2
//                        (default L2; AP only valid with MB)
//   --theta, --lambda    join parameters (defaults 0.7, 0.01)
//   --kernel=scalar|simd|auto
//                        scoring kernels for the hot posting scans
//                        (default scalar = the reference path). simd
//                        vectorizes the product/dot kernels; output is
//                        bit-identical to scalar for every scheme. auto
//                        picks simd when the CPU has a vector ISA
//                        (AVX2/SSE2/NEON).
//   --threads=<n>        worker threads for any MB scheme's window-close
//                        query fan-out (default 1 = sequential); output
//                        is bit-identical for every thread count. Every
//                        STR scheme runs one sequential scan and ignores
//                        it (a note on stderr says so).
//   --output=<path>      write pairs as "a b t_a t_b dot sim" (default:
//                        stdout)
//   --quiet              suppress per-pair output on stdout; pairs still
//                        go to --output when one is given (stats are on
//                        stderr either way)
//   --min-dot=<v>        sink pipeline: drop pairs whose raw cosine is
//                        below v before writing (FilterSink stage)
//   --top-k=<k>          sink pipeline: also report the k best pairs by
//                        decayed similarity at the end (TopKSink stage)
//   --memory             also print the live footprint after the run
//                        (STR: posting columns + residual store; MB:
//                        buffered windows + peak window-index bytes)
//   --async              ingest through the async pipeline: the reader
//                        thread enqueues into a bounded queue and a pump
//                        thread drains epochs through the same
//                        sequential push path — output is bit-identical
//                        to the inline run; ingest-layer counters
//                        (epochs, queue depth high-water, backpressure)
//                        print on stderr
//   --queue-capacity=<n> async queue bound in items, exact (default 4096)
//   --epoch-items=<n>    the most items the pump applies per epoch
//                        (default 256)
//                        (--threads, --queue-capacity and --epoch-items
//                        take an integer >= 1 that fits their type; any
//                        other value exits 2)
//   --submit=try|block|timeout
//                        what AsyncPush does when the queue is full
//                        (default block; try surfaces
//                        RESOURCE_EXHAUSTED rejects on stderr)
//   --tiered             enable tiered posting storage: cold posting
//                        prefixes freeze into immutable blocks
//                        (compressed for rarely scanned lists, raw
//                        zero-copy for hot ones) so the live footprint
//                        drops; output is bit-identical to the untiered
//                        run
//   --checkpoint-in=<path>
//                        restore engine state from a checkpoint before
//                        pushing the stream (any framework, index and
//                        thread count; the file's live items replay
//                        into this run's engine, and ids continue where
//                        the saved run stopped). A corrupt, truncated, or
//                        mismatched file exits with status 2 and a
//                        message naming what was wrong — it never runs
//                        the join on partial state
//   --checkpoint-out=<path>
//                        save a checkpoint of the final engine state
//                        after the run (MB flushes its windows first, so
//                        an MB checkpoint carries no pending pairs)
//   --memory-budget=<bytes>
//                        run the join as a JoinService session with a
//                        service-wide memory cap: pushes that would run
//                        while the footprint is over budget are refused
//                        with RESOURCE_EXHAUSTED (reported on stderr)
//                        instead of growing without bound; pair output
//                        for accepted items is identical to the
//                        unbudgeted run. Incompatible with --async.
//
// Unknown flags are an error (exit 2): a typo like --thta=0.9 must not
// silently run with the default.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "core/engine.h"
#include "core/join_service.h"
#include "core/sinks.h"
#include "data/io.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

// Reads an integer flag that must be >= 1 and fit T. Anything else exits
// 2 naming the flag: a non-integer inside GetInt, an out-of-range value
// here (a cast would turn --threads=4294967297 into 1 and
// --queue-capacity=-1 into an unbounded queue).
template <typename T>
T PositiveFlag(const sssj::Flags& flags, const char* name, T def) {
  const int64_t v = flags.GetInt(name, static_cast<int64_t>(def));
  const uint64_t max =
      std::min<uint64_t>(std::numeric_limits<T>::max(),
                         std::numeric_limits<int64_t>::max());
  if (v < 1 || static_cast<uint64_t>(v) > max) {
    std::fprintf(stderr,
                 "invalid value for --%s: %lld (expected an integer from 1 "
                 "to %llu)\n",
                 name, static_cast<long long>(v),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return static_cast<T>(v);
}

}  // namespace

int main(int argc, char** argv) {
  sssj::Flags flags(argc, argv);
  flags.RejectUnknown(
      {"input", "format", "framework", "index", "theta", "lambda", "kernel",
       "threads", "output", "quiet", "min-dot", "top-k", "memory", "async",
       "queue-capacity", "epoch-items", "submit", "tiered", "memory-budget",
       "checkpoint-in", "checkpoint-out"});
  const std::string input = flags.GetString("input", "");
  if (input.empty()) {
    std::fprintf(stderr, "--input is required (see header of this file)\n");
    return 1;
  }

  sssj::EngineConfig config;
  const auto framework =
      sssj::ParseFramework(flags.GetString("framework", "STR"));
  const auto index = sssj::ParseIndexScheme(flags.GetString("index", "L2"));
  if (!framework.ok() || !index.ok()) {
    const sssj::Status& bad = !framework.ok() ? framework.status()
                                              : index.status();
    std::fprintf(stderr, "%s\n", bad.ToString().c_str());
    return 1;
  }
  config.framework = *framework;
  config.index = *index;
  config.theta = flags.GetDouble("theta", 0.7);
  config.lambda = flags.GetDouble("lambda", 0.01);
  config.num_threads = PositiveFlag<int>(flags, "threads", 1);
  const bool async = flags.GetBool("async", false);
  if (async) {
    config.ingest.mode = sssj::IngestMode::kAsync;
    config.ingest.queue_capacity =
        PositiveFlag<size_t>(flags, "queue-capacity", 4096);
    config.ingest.epoch_max_items =
        PositiveFlag<size_t>(flags, "epoch-items", 256);
    const std::string submit = flags.GetString("submit", "block");
    if (submit == "try") {
      config.ingest.submit = sssj::SubmitPolicy::kTry;
    } else if (submit == "block") {
      config.ingest.submit = sssj::SubmitPolicy::kBlock;
    } else if (submit == "timeout") {
      config.ingest.submit = sssj::SubmitPolicy::kTimeout;
    } else {
      std::fprintf(stderr,
                   "invalid value for --submit: '%s' (expected try, block, "
                   "or timeout)\n",
                   submit.c_str());
      return 2;
    }
  } else if (flags.Has("queue-capacity") || flags.Has("epoch-items") ||
             flags.Has("submit")) {
    std::fprintf(stderr,
                 "--queue-capacity/--epoch-items/--submit require --async\n");
    return 2;
  }
  if (flags.Has("kernel")) {
    // GetString's default would mask a bare `--kernel` (no value) as the
    // scalar default — the silent-fallback class this flag guards against.
    const std::string kernel_str = flags.GetString("kernel", "");
    if (!sssj::ParseKernelMode(kernel_str, &config.kernel)) {
      std::fprintf(stderr,
                   "invalid value for --kernel: '%s' (expected scalar, "
                   "simd, or auto)\n",
                   kernel_str.c_str());
      return 2;
    }
  }
  config.tiered.enabled = flags.GetBool("tiered", false);
  const int64_t budget_raw = flags.GetInt("memory-budget", 0);
  if (budget_raw < 0) {
    std::fprintf(stderr,
                 "invalid value for --memory-budget: %lld (expected bytes "
                 ">= 0; 0 = unlimited)\n",
                 static_cast<long long>(budget_raw));
    return 2;
  }
  const size_t memory_budget = static_cast<size_t>(budget_raw);
  if (memory_budget > 0 && async) {
    std::fprintf(stderr, "--memory-budget is incompatible with --async\n");
    return 2;
  }
  // Same silent-fallback guard as --kernel: a bare `--checkpoint-in` must
  // not quietly run without restoring anything.
  const std::string checkpoint_in = flags.GetString("checkpoint-in", "");
  const std::string checkpoint_out = flags.GetString("checkpoint-out", "");
  if ((flags.Has("checkpoint-in") && checkpoint_in.empty()) ||
      (flags.Has("checkpoint-out") && checkpoint_out.empty())) {
    std::fprintf(stderr, "--checkpoint-in/--checkpoint-out need a path\n");
    return 2;
  }
  if ((!checkpoint_in.empty() || !checkpoint_out.empty()) &&
      memory_budget > 0) {
    std::fprintf(stderr,
                 "--checkpoint-in/--checkpoint-out are incompatible with "
                 "--memory-budget (checkpoints address the engine directly)\n");
    return 2;
  }

  std::string format = flags.GetString("format", "");
  if (format.empty()) {
    format = input.size() > 4 && input.substr(input.size() - 4) == ".bin"
                 ? "bin"
                 : "text";
  }
  sssj::Stream stream;
  const sssj::Timer read_timer;
  const sssj::Status read_status =
      format == "bin" ? sssj::ReadBinaryStream(input, &stream)
                      : sssj::ReadTextStream(input, &stream);
  const double read_secs = read_timer.ElapsedSeconds();
  if (!read_status.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", input.c_str(),
                 read_status.ToString().c_str());
    return 1;
  }

  const bool quiet = flags.GetBool("quiet", false);
  const std::string output = flags.GetString("output", "");
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!output.empty()) {
    out_file.open(output);
    if (!out_file) {
      std::fprintf(stderr, "cannot open %s\n", output.c_str());
      return 1;
    }
    out = &out_file;
  }

  // --quiet silences the default stdout pair listing, but an explicit
  // --output file always receives the pairs: "quiet scripting" runs used
  // to produce a silently empty output file.
  const bool write_pairs = !quiet || out != &std::cout;
  uint64_t pairs = 0;
  sssj::CallbackSink writer([&](const sssj::ResultPair& p) {
    ++pairs;
    if (write_pairs) {
      (*out) << p.a << ' ' << p.b << ' ' << p.ta << ' ' << p.tb << ' '
             << p.dot << ' ' << p.sim << '\n';
    }
  });

  // Sink pipeline, innermost first: writer ← [tee → top-k] ← [min-dot
  // filter]. The engine sees a single ResultSink regardless of the chain.
  const int64_t top_k_raw = flags.GetInt("top-k", 0);
  if (top_k_raw < 0) {
    std::fprintf(stderr, "invalid value for --top-k: %lld (expected >= 0)\n",
                 static_cast<long long>(top_k_raw));
    return 2;
  }
  const size_t top_k = static_cast<size_t>(top_k_raw);
  sssj::TopKSink best(top_k);
  sssj::TeeSink tee({&writer});
  if (top_k > 0) tee.Add(&best);
  sssj::ResultSink* sink = &tee;
  const double min_dot = flags.GetDouble("min-dot", 0.0);
  sssj::FilterSink filter(
      [min_dot](const sssj::ResultPair& p) { return p.dot >= min_dot; }, &tee);
  if (min_dot > 0.0) sink = &filter;

  // Async runs surface per-item rejects through the completion callback
  // (tickets are dense submit order, so a ticket IS the item index here).
  std::mutex rejects_mu;
  std::vector<std::pair<uint64_t, sssj::Status>> async_rejects;
  size_t async_accepted = 0;
  if (async) {
    config.ingest.on_complete = [&](uint64_t ticket,
                                    const sssj::Status& status) {
      std::lock_guard<std::mutex> lock(rejects_mu);
      if (status.ok()) {
        ++async_accepted;
      } else {
        async_rejects.emplace_back(ticket, status);
      }
    };
  }

  // Knobs the chosen configuration accepts but ignores (e.g. --threads
  // under any STR scheme) are silently-dropped settings; surface them on
  // either path below.
  for (const std::string& note : sssj::ConfigurationNotes(config)) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }

  // Budgeted runs go through a single-session JoinService so the
  // service-wide budget gate applies; unbudgeted runs keep the direct
  // engine (identical push path, no session lock).
  sssj::JoinServiceOptions service_opts;
  service_opts.memory_budget_bytes = memory_budget;
  sssj::JoinService service(service_opts);
  sssj::JoinService::SessionHandle session;
  std::unique_ptr<sssj::SssjEngine> engine;
  if (memory_budget > 0) {
    auto session_or = service.CreateSession({"cli", config, sink});
    if (!session_or.ok()) {
      std::fprintf(stderr, "invalid configuration: %s\n",
                   session_or.status().ToString().c_str());
      return 1;
    }
    session = *session_or;
  } else {
    auto engine_or = sssj::SssjEngine::Make(config, sink);
    if (!engine_or.ok()) {
      std::fprintf(stderr, "invalid configuration: %s\n",
                   engine_or.status().ToString().c_str());
      return 1;
    }
    engine = *std::move(engine_or);
  }

  if (!checkpoint_in.empty()) {
    // A bad checkpoint must stop the run outright: LoadCheckpoint swaps
    // state in only on success, so there is no partial restore to limp
    // along on — but pushing the stream into a fresh engine while the
    // user believes state was restored would silently produce the wrong
    // join. Status already names the file, offset, and defect.
    const sssj::Status st = engine->LoadCheckpoint(checkpoint_in);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot restore --checkpoint-in: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  }

  sssj::Timer timer;
  size_t accepted = 0;
  uint64_t budget_refused = 0;
  if (async) {
    for (const sssj::StreamItem& item : stream) {
      const sssj::Status status = engine->AsyncPush(item.ts, item.vec);
      if (!status.ok()) {
        // Submit-side failure (backpressure under --submit=try/timeout);
        // distinct from the per-item validation rejects below.
        std::fprintf(stderr, "submit rejected: %s\n",
                     status.ToString().c_str());
      }
    }
    engine->Drain();
    engine->Flush();
    accepted = async_accepted;
    for (const auto& [ticket, status] : async_rejects) {
      std::fprintf(stderr, "item %llu rejected: %s\n",
                   static_cast<unsigned long long>(ticket),
                   status.ToString().c_str());
    }
  } else if (memory_budget > 0) {
    // Per-item pushes so each refusal is attributable: a budget refusal
    // (RESOURCE_EXHAUSTED) is backpressure, not a bad item.
    size_t index = 0;
    for (const sssj::StreamItem& item : stream) {
      const sssj::Status status = service.Push(session, item.ts, item.vec);
      if (status.ok()) {
        ++accepted;
      } else if (status.code() == sssj::StatusCode::kResourceExhausted) {
        ++budget_refused;
      } else {
        std::fprintf(stderr, "item %zu rejected: %s\n", index,
                     status.ToString().c_str());
      }
      ++index;
    }
    service.Flush(session);
  } else {
    const sssj::BatchPushResult pushed = engine->PushBatch(stream);
    engine->Flush();
    accepted = pushed.accepted;
    for (const auto& reject : pushed.rejects) {
      std::fprintf(stderr, "item %zu rejected: %s\n", reject.index,
                   reject.status.ToString().c_str());
    }
  }
  const double secs = timer.ElapsedSeconds();

  if (!checkpoint_out.empty()) {
    const sssj::Status st = engine->SaveCheckpoint(checkpoint_out);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write --checkpoint-out: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  sssj::RunStats s;
  double tau = 0.0;
  if (memory_budget > 0) {
    const auto stats_or = service.SessionStats(session);
    if (stats_or.ok()) s = *stats_or;
    sssj::DecayParams params;
    sssj::DecayParams::Make(config.theta, config.lambda, &params);
    tau = params.tau;
  } else {
    s = engine->stats();
    tau = engine->params().tau;
  }
  s.elapsed_seconds = secs;
  struct stat input_stat {};
  const double input_mb =
      stat(input.c_str(), &input_stat) == 0
          ? static_cast<double>(input_stat.st_size) / (1 << 20)
          : 0.0;
  std::fprintf(stderr, "read: %zu vectors in %.3f s (%.1f MB/s)\n",
               stream.size(), read_secs,
               input_mb / std::max(read_secs, 1e-9));
  std::fprintf(stderr,
               "%s-%s theta=%.3f lambda=%.4g tau=%.4g kernel=%s: "
               "%zu vectors (%zu accepted), %llu pairs, %.3fs (%.0f vec/s)\n",
               sssj::ToString(config.framework), sssj::ToString(config.index),
               config.theta, config.lambda, tau,
               sssj::ToString(config.kernel), stream.size(), accepted,
               static_cast<unsigned long long>(pairs), secs,
               stream.size() / std::max(secs, 1e-9));
  std::fprintf(stderr, "stats: %s\n", s.ToString().c_str());
  if (async) {
    std::fprintf(stderr, "ingest: %s\n",
                 engine->ingest_stats().ToString().c_str());
  }
  if (min_dot > 0.0) {
    std::fprintf(stderr,
                 "min-dot filter: %llu pairs passed, %llu dropped\n",
                 static_cast<unsigned long long>(filter.passed()),
                 static_cast<unsigned long long>(filter.dropped()));
  }
  if (top_k > 0) {
    std::fprintf(stderr, "top-%zu pairs by decayed similarity:\n", top_k);
    for (const sssj::ResultPair& p : best.TopPairs()) {
      std::fprintf(stderr, "  %llu %llu sim=%.6f dot=%.6f\n",
                   static_cast<unsigned long long>(p.a),
                   static_cast<unsigned long long>(p.b), p.sim, p.dot);
    }
  }
  if (memory_budget > 0) {
    std::fprintf(stderr,
                 "budget: %zu byte cap, %llu pushes refused "
                 "(RESOURCE_EXHAUSTED)\n",
                 memory_budget,
                 static_cast<unsigned long long>(budget_refused));
  }
  if (flags.GetBool("memory", false)) {
    size_t bytes = 0;
    if (memory_budget > 0) {
      const auto bytes_or = service.SessionMemoryBytes(session);
      if (bytes_or.ok()) bytes = *bytes_or;
    } else {
      bytes = engine->MemoryBytes();
    }
    std::fprintf(stderr, "memory: %zu bytes (%.2f MB) across %llu live entries\n",
                 bytes, bytes / (1024.0 * 1024.0),
                 static_cast<unsigned long long>(
                     s.entries_indexed - s.entries_pruned));
  }
  if (out_file.is_open()) {
    // close() runs the final flush, where a short pair file or a full
    // disk shows; the run has not succeeded until its pairs are written.
    out_file.close();
    if (out_file.fail()) {
      std::fprintf(stderr, "cannot write --output: %s\n",
                   sssj::Status::IoError("write failure on " + output)
                       .ToString()
                       .c_str());
      return 1;
    }
  }
  return 0;
}
