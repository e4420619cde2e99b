// SssjEngine — the library's public facade. Picks a framework (MB / STR)
// and an indexing scheme (INV / AP / L2AP / L2), validates inputs, assigns
// stream ids, and forwards results to the sink bound at creation.
//
//   sssj::EngineConfig cfg;
//   cfg.framework = sssj::Framework::kStreaming;
//   cfg.index = sssj::IndexScheme::kL2;
//   cfg.theta = 0.7;
//   cfg.lambda = 0.01;
//   sssj::CallbackSink sink([](const sssj::ResultPair& p) { ... });
//   auto engine = sssj::SssjEngine::Make(cfg, &sink);
//   if (!engine.ok()) { /* engine.status() says exactly why */ }
//   (*engine)->Push(ts, vec);            // repeatedly, in time order
//   (*engine)->PushBatch(items);         // or hand over whole batches
//   (*engine)->Flush();                  // at end of stream (MB drains)
//
// With cfg.ingest.mode = IngestMode::kAsync the engine additionally
// accepts AsyncPush(ts, vec): producers enqueue into a bounded queue and
// a background pump drains epochs through the same sequential push path,
// with explicit backpressure (kResourceExhausted) instead of unbounded
// queueing — see core/ingest_pump.h. Drain() barriers on everything
// submitted so far; output is bit-identical to inline Push in arrival
// (ticket) order.
//
// Every fallible call returns sssj::Status (core/status.h); Push failures
// carry the per-item reject reason (empty after cleaning, non-
// normalizable, timestamp regression). Multi-tenant serving — many named
// engines behind one manager with a shared thread pool — lives one layer
// up in core/join_service.h.
//
// Parallel execution: with num_threads > 1 every MB configuration
// (MB-INV/AP/L2AP/L2) parallelizes the query phase of each window close
// (stream/minibatch.h). Every STR scheme runs one sequential scan per
// arrival and ignores num_threads (ConfigurationNotes() says so). Either
// way the emitted pair sequence is bit-identical to the num_threads = 1
// engine's.
#ifndef SSSJ_CORE_ENGINE_H_
#define SSSJ_CORE_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/ingest_pump.h"
#include "core/join_core.h"
#include "core/result.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "core/status.h"
#include "core/stream_item.h"
#include "util/frozen_block.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace sssj {

// Framework and IndexScheme live in core/join_core.h (the swappable-core
// layer needs them below the engine); re-exported here for existing users.

const char* ToString(Framework f);
const char* ToString(IndexScheme s);
// Case-insensitive parse ("MB"/"minibatch", "STR"/"streaming"; "INV",
// "AP", "L2AP", "L2"). Unknown names yield kInvalidArgument naming the
// input.
StatusOr<Framework> ParseFramework(const std::string& s);
StatusOr<IndexScheme> ParseIndexScheme(const std::string& s);

struct EngineConfig {
  Framework framework = Framework::kStreaming;
  IndexScheme index = IndexScheme::kL2;
  double theta = 0.7;
  double lambda = 0.01;
  // When true (default), Push() unit-normalizes input vectors. When false,
  // non-unit vectors are rejected (the similarity bounds require ||x||=1).
  bool normalize_inputs = true;
  // Worker threads for the MiniBatch window-close query fan-out (any MB
  // scheme). 1 (default) keeps the sequential engine; MB output is
  // bit-identical for any thread count. Checkpoints work at every thread
  // count. Every STR scheme ignores it. Values < 1 are clamped to 1.
  int num_threads = 1;
  // Optional pool for that fan-out, shared with other engines
  // (JoinService sets this so N sessions share one pool instead of
  // spawning N). Null (default) gives an MB engine a private pool when
  // num_threads > 1. The pool serializes concurrent fork/join jobs, and
  // which pool runs the work never affects the output.
  std::shared_ptr<ThreadPool> pool;
  // Scoring-kernel selection for the hot posting-scan loops
  // (index/kernels.h). kScalar (default) is the bit-exact reference path.
  // kSimd selects the vectorized kernels, all bit-identical to scalar:
  // the MB schemes and STR-INV scan through lane-wise multiplies, and
  // verification's sparse dot only advances its merge cursors with
  // vector compares. The STR-L2/L2AP scans evaluate one std::exp per
  // candidate on both paths. kAuto resolves to kSimd when the CPU has a
  // vector ISA.
  KernelMode kernel = KernelMode::kScalar;
  // Tiered posting storage (util/frozen_block.h). Off by default. When
  // enabled, cold prefixes of long posting lists are compacted into
  // immutable frozen blocks with delta+varint compressed id/ts columns;
  // scans decompress one block at a time into per-caller scratch. The
  // value/prefix_norm columns decode to the exact doubles, so the emitted
  // pair sequence and scores are bit-identical to the untiered engine for
  // every STR scheme. Applies to the STR schemes; MB windows are
  // short-lived and ignore it.
  TieredStorageOptions tiered;
  // Ingestion mode and queue/epoch/backpressure tuning (core/ingest_pump.h).
  // The default (IngestMode::kInline) keeps Push synchronous and makes
  // AsyncPush a kFailedPrecondition. With IngestMode::kAsync the engine
  // owns a bounded ingress queue and (unless ingest.external_pump) a
  // private pump thread; AsyncPush enqueues, Drain barriers, and results
  // are bit-identical to inline Push fed the same arrival order.
  IngestOptions ingest;
};

// Outcome of PushBatch: how many items were accepted, and for each
// rejected item its position in the batch plus the same Status Push would
// have returned. Rejects do not consume ids and do not stop the batch.
struct BatchPushResult {
  size_t accepted = 0;
  struct Reject {
    size_t index = 0;  // position within the pushed batch
    Status status;
  };
  std::vector<Reject> rejects;
  bool all_accepted() const { return rejects.empty(); }
};

// The SSSJENG3 header: the writing combination (metadata — a loader
// replays into its own), the exact-matched parameters, the id counter,
// the stream clock and the reported-pair watermark.
struct CheckpointHeader {
  Framework framework = Framework::kStreaming;
  IndexScheme scheme = IndexScheme::kL2;
  double theta = 0.0;
  double lambda = 0.0;
  VectorId next_id = 0;
  Timestamp last_ts = 0.0;
  bool started = false;
  VectorId watermark = 0;
};

// Writes one SSSJENG3 checkpoint: `header`, then `live` in arrival order.
// The format's only writer: SssjEngine::SaveCheckpoint and the cluster
// supervisor's zero-item recovery seed both call it. kIoError when the
// stream fails.
Status WriteCheckpoint(const CheckpointHeader& header, const Stream& live,
                       std::ostream& os);

// Builds a join core for the given framework×scheme, honoring the
// config's thread/pool/kernel/tiering knobs. An STR core's checkpoint
// items are its index's rebuild of the in-horizon items.
// Fails with kUnimplemented for STR-AP and kInvalidArgument for a scheme
// value outside INV..L2. Used by the engine shell and the
// checkpoint-restore path that scheme migration runs through.
StatusOr<std::unique_ptr<JoinCore>> MakeJoinCore(const EngineConfig& config,
                                                 Framework framework,
                                                 IndexScheme scheme,
                                                 const DecayParams& params);

// Human-readable diagnostics for the knobs `config` sets that its
// combination accepts but does not use (num_threads under any STR scheme,
// tiered storage under MB, a pool at num_threads <= 1). Empty when every
// knob is in effect. Depends on the config alone, so a caller can print
// it before building an engine or a service session.
std::vector<std::string> ConfigurationNotes(const EngineConfig& config);

class SssjEngine {
 public:
  // Validates the config and builds the engine, with `sink` (borrowed,
  // may be null to discard results, rebindable via BindSink) receiving
  // every discovered pair. Failures:
  //   kOutOfRange      theta outside (0, 1], lambda negative/non-finite,
  //                    or an ingest option outside its domain (zero queue
  //                    capacity or epoch size, bad timeout)
  //   kUnimplemented   the STR-AP combination (omitted by the paper as
  //                    impractical — see §5.2 — and not implemented here)
  //   kInvalidArgument an index scheme value outside INV..L2
  static StatusOr<std::unique_ptr<SssjEngine>> Make(
      const EngineConfig& config, ResultSink* sink = nullptr);

  // Stops the private ingest pump (if any) first; items still queued and
  // not yet applied are dropped — call Drain() before destruction when
  // every submitted item must be processed.
  ~SssjEngine();
  SssjEngine(const SssjEngine&) = delete;
  SssjEngine& operator=(const SssjEngine&) = delete;

  // Rebinds the result sink (null discards). Takes effect for the next
  // Push/Flush; never call it concurrently with them.
  void BindSink(ResultSink* sink) { sink_ = sink; }
  ResultSink* sink() const { return sink_; }

  // Feeds one vector with its arrival time; pairs go to the bound sink.
  // Ids are assigned sequentially from 0; a rejected item consumes no id.
  // Failures:
  //   kInvalidArgument     non-finite timestamp; vector empty after
  //                        cleaning; vector not normalizable
  //   kFailedPrecondition  non-unit input while normalize_inputs is off;
  //                        timestamp earlier than the last accepted one
  Status Push(Timestamp ts, SparseVector vec);

  // Convenience for pre-built items; the item's id is ignored and
  // reassigned.
  Status Push(const StreamItem& item);

  // Batched ingestion: feeds every item of `batch` in order. Items that
  // fail Push's validation are skipped — later items are still processed
  // — and reported per item in the result.
  BatchPushResult PushBatch(const Stream& batch);

  // Drains any buffered state (MB windows) into the bound sink. STR emits
  // eagerly, so this is a no-op for it.
  void Flush();

  // ---- async ingestion (EngineConfig::ingest.mode == kAsync only) ----

  // Enqueues one item without running the scan; the pump applies it later
  // through the exact sequential push path, so the emitted pairs are
  // bit-identical to calling Push in the same arrival order. On success
  // stores the item's dense arrival-order ticket into *ticket (when
  // given); per-item validation outcomes arrive via
  // ingest.on_complete(ticket, status). Failures here are submit-side
  // only:
  //   kFailedPrecondition  the engine was built with IngestMode::kInline
  //   kResourceExhausted   the queue is full (kTry, or kTimeout after the
  //                        deadline)
  // Safe from any number of producer threads concurrently.
  Status AsyncPush(Timestamp ts, SparseVector vec, uint64_t* ticket = nullptr);

  // Blocks until every item submitted before this call has been applied.
  // No-op (OK) for inline engines. Does not Flush(): MB windows may still
  // be buffering afterwards.
  Status Drain();

  // Ingress-layer counters (submits, backpressure rejects, epochs, queue
  // depth). Zero-valued for inline engines.
  IngestStats ingest_stats() const;

  // The engine's ingress queue (null for inline engines). JoinService uses
  // this to register sessions with its shared pump.
  IngestQueue* ingest_queue() const { return ingest_queue_.get(); }

  // Pump side: applies one popped epoch through the sequential push path,
  // invoking ingest.on_complete per item. Called by the pump thread (or by
  // the owner's apply wrapper); never call it from producer threads.
  void ApplyEpoch(Stream&& epoch, uint64_t first_ticket);

  // Id that will be assigned to the next accepted item.
  VectorId next_id() const { return next_id_; }

  // ---- live scheme migration ----

  // Live scheme migration: serializes the active core through the
  // checkpoint path and rehydrates a core of the target
  // combination, replaying the live items. Pairs already reported are
  // suppressed on replay (and forever after) by an id watermark, so the
  // external output stream stays duplicate-free; pairs that were pending
  // in MB windows are emitted exactly when a target-scheme engine
  // restored from the same checkpoint would emit them — the post-switch
  // output is bit-identical to that restored engine (tested for every
  // source→target pair). Valid at any push boundary. Failures:
  //   kUnimplemented       target is STR-AP
  //   kInvalidArgument     target scheme value outside INV..L2
  // On failure the active core is untouched. Never call it concurrently
  // with Push/Flush (JoinService serializes it under the session lock).
  Status SwitchScheme(Framework framework, IndexScheme scheme);

  // The combination currently running. Differs from config() after a
  // migration.
  Framework active_framework() const { return active_framework_; }
  IndexScheme active_scheme() const { return active_scheme_; }

  // Completed scheme migrations.
  uint64_t scheme_switches() const { return scheme_switches_; }

  // All pairs whose BOTH ids are below this watermark were already
  // reported before the last restore/migration and are suppressed if the
  // replayed core re-detects them. 0 until a migration or checkpoint
  // restore happens.
  VectorId reported_watermark() const { return watermark_; }

  // ConfigurationNotes(config()), computed once by Make.
  const std::vector<std::string>& configuration_notes() const {
    return config_notes_;
  }

  // Checkpoint/restore for long-running streaming jobs, in one format
  // (SSSJENG3) for every framework×scheme and thread count: the live item
  // set plus the clock/id/watermark state. STR engines write the items
  // rebuilt from the index (StreamIndex::CollectLiveItems); MB engines
  // write their two buffered windows. Loading replays the items through a
  // fresh core of the LOADING engine's active combination — the file's
  // own scheme is metadata — emitting any still-unreported pairs into the
  // bound sink, so a checkpoint written by MB-INV restores cleanly into
  // STR-L2, and stats() then count the replay's work. Restoring into an
  // engine with the same config and pushing the remainder of the stream
  // yields the uninterrupted run's pairs (tested). LoadCheckpoint rejects
  // stale, truncated, or mismatched files with kDataLoss without touching
  // the live engine state; a file in a retired format (SSSJENG2 and the
  // index image it wrapped) is refused by name.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);
  // Stream-based cores of the two above (the path overloads wrap these).
  // Useful for embedding checkpoints in a larger container — and they are
  // what the checkpoint fuzz harness drives, byte-corrupted inputs and
  // all, so every rejection path here is exercised against adversarial
  // data rather than just well-formed files.
  Status SaveCheckpoint(std::ostream& os) const;
  Status LoadCheckpoint(std::istream& is);

  // Approximate resident bytes of the live state. STR: the online index
  // (posting-list columns + residual store). MB: the buffered windows plus
  // the peak per-window index footprint seen this run (the window index
  // only lives inside a close, so its high-water mark is the capacity
  // signal). O(1): every core keeps it as running totals at the sites
  // that change its state, so it is cheap enough to read after each push.
  size_t MemoryBytes() const;
  // Test oracle for MemoryBytes(): the same number recomputed by walking
  // every posting list, residual and buffered item, O(live state). No
  // production caller.
  size_t RecountMemoryBytes() const;

  const RunStats& stats() const;
  const DecayParams& params() const { return params_; }
  const EngineConfig& config() const { return config_; }

 private:
  SssjEngine(const EngineConfig& config, const DecayParams& params,
             ResultSink* sink);

  Status PushImpl(Timestamp ts, SparseVector vec, ResultSink* sink);
  void FlushImpl(ResultSink* sink);

  // Checkpoint reader, positioned after the magic. Parses and validates
  // the whole file first, then builds a fresh core of the target
  // combination, replays the live items into the bound sink
  // (watermark-filtered), and only then swaps it in — a bad file leaves
  // the engine (and its sink) untouched.
  Status RestorePortable(std::istream& is, Framework framework,
                         IndexScheme scheme);

  EngineConfig config_;
  DecayParams params_;
  ResultSink* sink_ = nullptr;
  VectorId next_id_ = 0;
  // The active core plus the engine-shell view of it. config_ keeps what
  // the user asked for; active_* is what is running.
  std::unique_ptr<JoinCore> core_;
  Framework active_framework_ = Framework::kStreaming;
  IndexScheme active_scheme_ = IndexScheme::kL2;
  VectorId watermark_ = 0;
  uint64_t scheme_switches_ = 0;
  // Counters of cores switched away from; stats() returns folded + active.
  RunStats folded_stats_;
  mutable RunStats combined_stats_;
  std::vector<std::string> config_notes_;
  // Async ingress. Declaration order matters: the pump is declared last so
  // its destructor (which joins the pump thread) runs before the queue and
  // the joins it drains into are torn down.
  std::unique_ptr<IngestQueue> ingest_queue_;
  std::unique_ptr<IngestPump> ingest_pump_;
};

}  // namespace sssj

#endif  // SSSJ_CORE_ENGINE_H_
