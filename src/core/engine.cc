#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "index/inv_index.h"
#include "index/prefix_index.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"
#include "stream/minibatch.h"
#include "stream/streaming.h"
#include "util/ascii.h"

namespace sssj {

namespace {

std::unique_ptr<BatchIndex> MakeBatchIndex(IndexScheme scheme, double theta,
                                           bool use_simd) {
  switch (scheme) {
    case IndexScheme::kInv:
      return std::make_unique<InvIndex>(theta, use_simd);
    case IndexScheme::kAp:
      return std::make_unique<ApIndex>(theta, use_simd);
    case IndexScheme::kL2ap:
      return std::make_unique<L2apIndex>(theta, use_simd);
    case IndexScheme::kL2:
      return std::make_unique<L2Index>(theta, use_simd);
  }
  return nullptr;
}

std::string FormatValue(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// Stand-in for an unbound sink: the joins unconditionally Emit into the
// sink they are handed, so "discard results" is a sink that ignores them.
class DiscardSink : public ResultSink {
 public:
  void Emit(const ResultPair&) override {}
};

ResultSink* OrDiscard(ResultSink* sink) {
  static DiscardSink* discard = new DiscardSink;  // leaked singleton
  return sink != nullptr ? sink : discard;
}

// Suppresses pairs that were already reported before a migration or
// checkpoint restore: a pair whose BOTH ids are below the watermark was
// emitted by the pre-snapshot engine, and the replayed core will
// re-detect it (STR targets re-join the replayed items; MB targets
// re-emit them at later window closes).
class WatermarkFilterSink : public ResultSink {
 public:
  WatermarkFilterSink(ResultSink* down, VectorId watermark)
      : down_(down), watermark_(watermark) {}
  void Emit(const ResultPair& pair) override {
    if (pair.a < watermark_ && pair.b < watermark_) return;
    down_->Emit(pair);
  }

 private:
  ResultSink* down_;
  VectorId watermark_;
};

template <typename T>
void WriteRaw(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadRaw(std::istream& is, T* value) {
  is.read(reinterpret_cast<char*>(value), sizeof(*value));
  return is.good();
}

}  // namespace

const char* ToString(Framework f) {
  return f == Framework::kMiniBatch ? "MB" : "STR";
}

const char* ToString(IndexScheme s) {
  switch (s) {
    case IndexScheme::kInv:
      return "INV";
    case IndexScheme::kAp:
      return "AP";
    case IndexScheme::kL2ap:
      return "L2AP";
    case IndexScheme::kL2:
      return "L2";
  }
  return "?";
}

StatusOr<Framework> ParseFramework(const std::string& s) {
  const std::string l = AsciiLower(s);
  if (l == "mb" || l == "minibatch") return Framework::kMiniBatch;
  if (l == "str" || l == "streaming") return Framework::kStreaming;
  return Status::InvalidArgument("unknown framework '" + s +
                                 "' (expected MB/minibatch or "
                                 "STR/streaming)");
}

StatusOr<IndexScheme> ParseIndexScheme(const std::string& s) {
  const std::string l = AsciiLower(s);
  if (l == "inv") return IndexScheme::kInv;
  if (l == "ap") return IndexScheme::kAp;
  if (l == "l2ap") return IndexScheme::kL2ap;
  if (l == "l2") return IndexScheme::kL2;
  return Status::InvalidArgument("unknown index scheme '" + s +
                                 "' (expected INV, AP, L2AP, or L2)");
}

StatusOr<std::unique_ptr<JoinCore>> MakeJoinCore(const EngineConfig& config,
                                                 Framework framework,
                                                 IndexScheme scheme,
                                                 const DecayParams& params) {
  if (scheme < IndexScheme::kInv || scheme > IndexScheme::kL2) {
    return Status::InvalidArgument(
        "unknown index scheme " + std::to_string(static_cast<int>(scheme)) +
        " (expected INV, AP, L2AP, or L2)");
  }
  if (framework == Framework::kStreaming && scheme == IndexScheme::kAp) {
    return Status::Unimplemented(
        "STR-AP is not supported: the paper omits the streaming AP scheme "
        "as impractical (maintaining the prefix-filter max vector online "
        "forces continual re-indexing, see §5.2); use STR-L2AP or MB-AP "
        "instead");
  }
  const bool use_simd = KernelModeUsesSimd(config.kernel);
  if (framework == Framework::kMiniBatch) {
    const double theta = config.theta;
    auto factory = [scheme, theta, use_simd] {
      return MakeBatchIndex(scheme, theta, use_simd);
    };
    std::shared_ptr<ThreadPool> pool;
    if (config.num_threads > 1) {
      pool = config.pool != nullptr
                 ? config.pool
                 : std::make_shared<ThreadPool>(
                       static_cast<size_t>(config.num_threads));
    }
    std::unique_ptr<JoinCore> core = std::make_unique<MiniBatchJoin>(
        params, std::move(factory), std::move(pool));
    return core;
  }
  std::unique_ptr<StreamIndex> index;
  switch (scheme) {
    case IndexScheme::kInv:
      index = std::make_unique<StreamInvIndex>(params, use_simd,
                                               config.tiered);
      break;
    case IndexScheme::kL2ap:
      index = std::make_unique<StreamL2apIndex>(params,
                                                /*ic_theta_slack=*/0.0,
                                                /*use_l2_bounds=*/true,
                                                use_simd, config.tiered);
      break;
    case IndexScheme::kL2:
      index = std::make_unique<StreamL2Index>(params, L2IndexOptions{},
                                              use_simd, config.tiered);
      break;
    case IndexScheme::kAp:
      return Status::Internal("invalid STR scheme slipped past validation");
  }
  std::unique_ptr<JoinCore> core =
      std::make_unique<StreamingJoin>(std::move(index));
  return core;
}

std::vector<std::string> ConfigurationNotes(const EngineConfig& config) {
  std::vector<std::string> notes;
  if (config.num_threads > 1 && config.framework == Framework::kStreaming) {
    notes.push_back(
        "num_threads=" + std::to_string(config.num_threads) +
        " is ignored: every STR scheme runs one sequential scan per arrival "
        "(only MB parallelizes, across its window closes)");
  }
  if (config.tiered.enabled && config.framework == Framework::kMiniBatch) {
    notes.push_back(
        "tiered posting storage is ignored: MiniBatch window indexes are "
        "short-lived and dropped wholesale at window close, so there is "
        "no cold prefix to freeze");
  }
  if (config.pool != nullptr && config.num_threads <= 1) {
    notes.push_back(
        "the shared thread pool is unused: num_threads <= 1 keeps the "
        "sequential path");
  }
  return notes;
}

SssjEngine::SssjEngine(const EngineConfig& config, const DecayParams& params,
                       ResultSink* sink)
    : config_(config), params_(params), sink_(sink) {}

SssjEngine::~SssjEngine() = default;

StatusOr<std::unique_ptr<SssjEngine>> SssjEngine::Make(
    const EngineConfig& config, ResultSink* sink) {
  if (!(config.theta > 0.0) || config.theta > 1.0 ||
      !std::isfinite(config.theta)) {
    return Status(StatusCode::kOutOfRange,
                  "theta must be in (0, 1]; got " + FormatValue(config.theta));
  }
  if (!(config.lambda >= 0.0) || !std::isfinite(config.lambda)) {
    return Status(StatusCode::kOutOfRange,
                  "lambda must be finite and >= 0; got " +
                      FormatValue(config.lambda));
  }
  if (config.ingest.mode == IngestMode::kAsync) {
    const IngestOptions& ing = config.ingest;
    if (ing.queue_capacity < 1) {
      return Status::OutOfRange("ingest.queue_capacity must be >= 1; got 0");
    }
    if (ing.epoch_max_items < 1) {
      return Status::OutOfRange("ingest.epoch_max_items must be >= 1; got 0");
    }
    if (!(ing.submit_timeout_ms >= 0.0) ||
        !std::isfinite(ing.submit_timeout_ms)) {
      return Status::OutOfRange(
          "ingest.submit_timeout_ms must be finite and >= 0; got " +
          FormatValue(ing.submit_timeout_ms));
    }
  }
  if (config.tiered.enabled && config.tiered.block_entries < 1) {
    return Status::OutOfRange("tiered.block_entries must be >= 1; got 0");
  }
  if (config.framework == Framework::kStreaming &&
      config.index == IndexScheme::kAp) {
    return Status::Unimplemented(
        "STR-AP is not supported: the paper omits the streaming AP scheme "
        "as impractical (maintaining the prefix-filter max vector online "
        "forces continual re-indexing, see §5.2); use STR-L2AP or MB-AP "
        "instead");
  }
  DecayParams params;
  if (!DecayParams::Make(config.theta, config.lambda, &params)) {
    return Status::Internal("DecayParams rejected validated theta/lambda");
  }

  std::unique_ptr<SssjEngine> engine(new SssjEngine(config, params, sink));
  engine->active_framework_ = config.framework;
  engine->active_scheme_ = config.index;
  auto core_or = MakeJoinCore(config, engine->active_framework_,
                              engine->active_scheme_, params);
  if (!core_or.ok()) return core_or.status();
  engine->core_ = std::move(*core_or);
  engine->config_notes_ = ConfigurationNotes(config);

  if (config.ingest.mode == IngestMode::kAsync) {
    engine->ingest_queue_ = std::make_unique<IngestQueue>(config.ingest);
    if (!config.ingest.external_pump) {
      engine->ingest_pump_ = std::make_unique<IngestPump>();
      SssjEngine* eng = engine.get();
      engine->ingest_pump_->Register(
          engine->ingest_queue_.get(),
          [eng](Stream&& epoch, uint64_t first_ticket) {
            eng->ApplyEpoch(std::move(epoch), first_ticket);
          });
    }
  }
  return engine;
}

Status SssjEngine::PushImpl(Timestamp ts, SparseVector vec, ResultSink* sink) {
  if (!std::isfinite(ts)) {
    return Status::InvalidArgument("timestamp must be finite; got " +
                                   FormatValue(ts));
  }
  if (config_.normalize_inputs) {
    vec.Normalize();
    if (vec.empty()) {
      return Status::InvalidArgument(
          "vector is empty after cleaning (no finite positive coordinates)");
    }
    if (!vec.IsUnit()) {
      return Status::InvalidArgument(
          "vector is not normalizable (zero or non-finite norm)");
    }
  } else {
    if (vec.empty()) {
      return Status::InvalidArgument(
          "vector is empty after cleaning (no finite positive coordinates)");
    }
    if (!vec.IsUnit()) {
      return Status::FailedPrecondition(
          "input is not unit-normalized and EngineConfig::normalize_inputs "
          "is false; normalize the vector or enable normalize_inputs");
    }
  }
  // Diagnose a time regression here, where the last accepted timestamp is
  // known, instead of letting the join silently refuse the item.
  if (core_->started() && ts < core_->last_ts()) {
    return Status::FailedPrecondition(
        "timestamp regression: " + FormatValue(ts) +
        " is earlier than the last accepted timestamp " +
        FormatValue(core_->last_ts()));
  }

  StreamItem item;
  item.id = next_id_;
  item.ts = ts;
  item.vec = std::move(vec);

  WatermarkFilterSink filtered(OrDiscard(sink), watermark_);
  ResultSink* out =
      watermark_ > 0 ? static_cast<ResultSink*>(&filtered) : OrDiscard(sink);
  if (!core_->Push(item, out)) {
    return Status::Internal("join rejected a validated item");
  }
  ++next_id_;
  return Status::Ok();
}

Status SssjEngine::Push(Timestamp ts, SparseVector vec) {
  return PushImpl(ts, std::move(vec), sink_);
}

Status SssjEngine::Push(const StreamItem& item) {
  return PushImpl(item.ts, item.vec, sink_);
}

BatchPushResult SssjEngine::PushBatch(const Stream& batch) {
  BatchPushResult result;
  for (size_t i = 0; i < batch.size(); ++i) {
    Status status = PushImpl(batch[i].ts, batch[i].vec, sink_);
    if (status.ok()) {
      ++result.accepted;
    } else {
      result.rejects.push_back({i, std::move(status)});
    }
  }
  return result;
}

void SssjEngine::FlushImpl(ResultSink* sink) {
  WatermarkFilterSink filtered(OrDiscard(sink), watermark_);
  core_->Flush(watermark_ > 0 ? static_cast<ResultSink*>(&filtered)
                              : OrDiscard(sink));
}

void SssjEngine::Flush() { FlushImpl(sink_); }

Status SssjEngine::AsyncPush(Timestamp ts, SparseVector vec,
                             uint64_t* ticket) {
  if (ingest_queue_ == nullptr) {
    return Status::FailedPrecondition(
        "AsyncPush requires EngineConfig::ingest.mode == IngestMode::kAsync; "
        "this engine ingests inline");
  }
  return ingest_queue_->Submit(ts, std::move(vec), ticket);
}

Status SssjEngine::Drain() {
  if (ingest_queue_ == nullptr) return Status::Ok();  // inline: nothing queued
  return ingest_queue_->Drain();
}

IngestStats SssjEngine::ingest_stats() const {
  if (ingest_queue_ == nullptr) return IngestStats{};
  return ingest_queue_->stats();
}

void SssjEngine::ApplyEpoch(Stream&& epoch, uint64_t first_ticket) {
  const auto& on_complete =
      ingest_queue_ != nullptr ? ingest_queue_->on_complete()
                               : config_.ingest.on_complete;
  for (size_t i = 0; i < epoch.size(); ++i) {
    Status status = PushImpl(epoch[i].ts, std::move(epoch[i].vec), sink_);
    if (on_complete) on_complete(first_ticket + i, status);
  }
}

const RunStats& SssjEngine::stats() const {
  // Counters survive migrations: cores switched away from fold into
  // folded_stats_; the active core's counters ride on top. With no
  // migration this is identity (folded is all-zero).
  combined_stats_ = folded_stats_;
  combined_stats_ += core_->stats();
  return combined_stats_;
}

size_t SssjEngine::MemoryBytes() const { return core_->MemoryBytes(); }

size_t SssjEngine::RecountMemoryBytes() const {
  return core_->RecountMemoryBytes();
}

namespace {

// Engine checkpoint header: magic + version, then the stream clock and the
// live item set any framework×scheme can replay.
constexpr char kCheckpointMagic[8] = {'S', 'S', 'S', 'J', 'E', 'N', 'G', '3'};
constexpr uint32_t kCheckpointVersion = 3;

// Formats older builds wrote and this one refuses by name.
struct RetiredFormat {
  const char* magic;
  const char* what;
};
constexpr RetiredFormat kRetiredFormats[] = {
    {"SSSJENG2", "native STR-L2 engine checkpoint"},
    {"SSSJCKP2", "STR-L2 index image"},
};

}  // namespace

Status WriteCheckpoint(const CheckpointHeader& header, const Stream& live,
                       std::ostream& os) {
  os.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  WriteRaw(os, kCheckpointVersion);
  const uint8_t framework_byte =
      header.framework == Framework::kMiniBatch ? 0 : 1;
  const uint8_t scheme_byte = static_cast<uint8_t>(header.scheme);
  WriteRaw(os, framework_byte);
  WriteRaw(os, scheme_byte);
  WriteRaw(os, header.theta);
  WriteRaw(os, header.lambda);
  WriteRaw(os, header.next_id);
  WriteRaw(os, header.last_ts);
  WriteRaw(os, static_cast<uint8_t>(header.started ? 1 : 0));
  WriteRaw(os, header.watermark);
  WriteRaw(os, static_cast<uint64_t>(live.size()));
  for (const StreamItem& item : live) {
    WriteRaw(os, static_cast<uint64_t>(item.id));
    WriteRaw(os, item.ts);
    WriteRaw(os, static_cast<uint32_t>(item.vec.nnz()));
    for (const Coord& c : item.vec) {
      WriteRaw(os, c.dim);
      WriteRaw(os, c.value);
    }
  }
  if (!os.good()) {
    return Status::IoError("checkpoint write failure");
  }
  return Status::Ok();
}

Status SssjEngine::SaveCheckpoint(std::ostream& os) const {
  CheckpointHeader header;
  header.framework = active_framework_;
  header.scheme = active_scheme_;
  header.theta = config_.theta;
  header.lambda = config_.lambda;
  header.next_id = next_id_;
  header.last_ts = core_->last_ts();
  header.started = core_->started();
  // Watermark: every pair with BOTH ids below it has been reported to the
  // external sink. STR emits at push, so everything below next_id is out;
  // MB windows hold pending pairs among the live items, so only the
  // carried watermark (from an earlier restore/migration, else 0) is safe.
  header.watermark =
      active_framework_ == Framework::kStreaming ? next_id_ : watermark_;
  Stream live;
  core_->CollectLiveItems(&live);
  return WriteCheckpoint(header, live, os);
}

Status SssjEngine::RestorePortable(std::istream& is, Framework framework,
                                   IndexScheme scheme) {
  // Parse and validate the ENTIRE file before touching any engine state
  // (or the sink): a truncated or corrupt checkpoint must leave the live
  // engine — and its output stream — exactly as it was.
  uint32_t version = 0;
  if (!ReadRaw(is, &version)) {
    return Status::DataLoss("truncated checkpoint header");
  }
  if (version != kCheckpointVersion) {
    return Status::DataLoss("unsupported checkpoint version " +
                            std::to_string(version));
  }
  uint8_t src_framework = 0;
  uint8_t src_scheme = 0;
  if (!ReadRaw(is, &src_framework) || !ReadRaw(is, &src_scheme)) {
    return Status::DataLoss("truncated checkpoint header");
  }
  if (src_framework > 1 ||
      src_scheme > static_cast<uint8_t>(IndexScheme::kL2)) {
    return Status::DataLoss("corrupt framework/scheme byte in checkpoint");
  }
  double theta = 0.0;
  double lambda = 0.0;
  if (!ReadRaw(is, &theta) || !ReadRaw(is, &lambda)) {
    return Status::DataLoss("truncated checkpoint header");
  }
  if (theta != config_.theta || lambda != config_.lambda) {
    return Status::DataLoss(
        "checkpoint parameter mismatch: file has theta=" + FormatValue(theta) +
        " lambda=" + FormatValue(lambda) + ", engine has theta=" +
        FormatValue(config_.theta) + " lambda=" + FormatValue(config_.lambda));
  }
  uint64_t next_id = 0;
  Timestamp last_ts = 0.0;
  uint8_t started = 0;
  uint64_t watermark = 0;
  uint64_t num_items = 0;
  if (!ReadRaw(is, &next_id) || !ReadRaw(is, &last_ts) ||
      !ReadRaw(is, &started) || !ReadRaw(is, &watermark) ||
      !ReadRaw(is, &num_items)) {
    return Status::DataLoss("truncated checkpoint header");
  }
  if (!std::isfinite(last_ts) || started > 1 || watermark > next_id) {
    return Status::DataLoss("corrupt clock/watermark in checkpoint");
  }
  Stream items;
  // num_items is untrusted: grow with the data actually read, never with
  // the declared count.
  for (uint64_t i = 0; i < num_items; ++i) {
    uint64_t id = 0;
    Timestamp ts = 0.0;
    uint32_t nnz = 0;
    if (!ReadRaw(is, &id) || !ReadRaw(is, &ts) || !ReadRaw(is, &nnz)) {
      return Status::DataLoss("truncated checkpoint item");
    }
    if (id >= next_id || !std::isfinite(ts)) {
      return Status::DataLoss("corrupt item header in checkpoint");
    }
    if (!items.empty() &&
        (id <= items.back().id || ts < items.back().ts)) {
      return Status::DataLoss("checkpoint items out of order");
    }
    if (nnz == 0) {
      return Status::DataLoss("empty vector in checkpoint");
    }
    std::vector<Coord> coords;
    DimId prev_dim = 0;
    for (uint32_t c = 0; c < nnz; ++c) {
      Coord coord;
      if (!ReadRaw(is, &coord.dim) || !ReadRaw(is, &coord.value)) {
        return Status::DataLoss("truncated checkpoint item");
      }
      if (!(coord.value > 0.0) || !std::isfinite(coord.value) ||
          (c > 0 && coord.dim <= prev_dim)) {
        return Status::DataLoss("corrupt coordinate in checkpoint");
      }
      prev_dim = coord.dim;
      coords.push_back(coord);
    }
    StreamItem item;
    item.id = id;
    item.ts = ts;
    // The coords were validated sorted/positive/finite, so FromCoords is
    // an identity reconstruction with bit-exact recomputed stats.
    item.vec = SparseVector::FromCoords(std::move(coords));
    if (!item.vec.IsUnit()) {
      return Status::DataLoss("non-unit vector in checkpoint");
    }
    items.push_back(std::move(item));
  }
  if (!items.empty() && last_ts < items.back().ts) {
    return Status::DataLoss("checkpoint clock behind its live items");
  }

  auto core_or = MakeJoinCore(config_, framework, scheme, params_);
  if (!core_or.ok()) return core_or.status();
  std::unique_ptr<JoinCore> fresh = std::move(*core_or);

  // Replay the live items through the fresh core. Pairs already reported
  // before the snapshot (both ids below the watermark) are suppressed;
  // pairs that were pending (MB windows) emit exactly as a target-scheme
  // engine restored from this checkpoint would emit them — which is what
  // this is. The replay cannot fail: items were validated time-ordered.
  WatermarkFilterSink filtered(OrDiscard(sink_), watermark);
  for (const StreamItem& item : items) {
    if (!fresh->Push(item, &filtered)) {
      return Status::Internal("replay rejected a validated item");
    }
  }
  fresh->RestoreClock(last_ts, started != 0);

  folded_stats_ += core_->stats();  // counters are per-process
  core_ = std::move(fresh);
  active_framework_ = framework;
  active_scheme_ = scheme;
  watermark_ = watermark;
  next_id_ = next_id;
  return Status::Ok();
}

Status SssjEngine::SwitchScheme(Framework framework, IndexScheme scheme) {
  if (framework == active_framework_ && scheme == active_scheme_) {
    return Status::Ok();  // already running it
  }
  // A migration IS a checkpoint save + restore — sharing the code path with
  // LoadCheckpoint is what makes the equivalence contract (switched
  // engine ≡ target engine restored from the same checkpoint) hold by
  // construction rather than by parallel maintenance.
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  Status saved = SaveCheckpoint(snapshot);
  if (!saved.ok()) return saved;
  char magic[8];
  snapshot.read(magic, sizeof(magic));
  if (!snapshot.good() ||
      std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::Internal("scheme-migration snapshot is unreadable");
  }
  Status restored = RestorePortable(snapshot, framework, scheme);
  if (!restored.ok()) return restored;
  ++scheme_switches_;
  return Status::Ok();
}

Status SssjEngine::SaveCheckpoint(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  Status status = SaveCheckpoint(f);
  // close() runs the final flush. A checkpoint smaller than the stream
  // buffer reaches the file only there, so a full disk fails it there.
  f.close();
  if (status.code() == StatusCode::kIoError || f.fail()) {
    return Status::IoError("write failure on " + path);
  }
  return status;
}

Status SssjEngine::LoadCheckpoint(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (is.good()) {
    if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) == 0) {
      // A restore rebuilds the engine's active combination; the file's
      // own scheme is metadata.
      return RestorePortable(is, active_framework_, active_scheme_);
    }
    for (const RetiredFormat& retired : kRetiredFormats) {
      if (std::memcmp(magic, retired.magic, sizeof(magic)) == 0) {
        return Status::DataLoss(std::string(retired.magic) + " (" +
                                retired.what +
                                ") is a retired checkpoint format that this "
                                "build no longer reads; it reads SSSJENG3 "
                                "only");
      }
    }
  }
  return Status::DataLoss(
      "not a sssj engine checkpoint (bad or stale header; files "
      "from older builds are not readable)");
}

Status SssjEngine::LoadCheckpoint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status::NotFound("cannot open " + path);
  }
  Status status = LoadCheckpoint(f);
  if (!status.ok() && status.code() != StatusCode::kUnimplemented &&
      status.code() != StatusCode::kInternal) {
    return Status(status.code(), path + ": " + std::string(status.message()));
  }
  return status;
}

}  // namespace sssj
