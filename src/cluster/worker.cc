#include "cluster/worker.h"

#include <sstream>
#include <utility>

#include "cluster/serve.h"

namespace sssj {
namespace cluster {

namespace {

JoinServiceOptions ForceSingleThread(JoinServiceOptions options) {
  options.num_threads = 1;
  return options;
}

Status NoSession(const std::string& name) {
  return Status::NotFound("no session named '" + name + "'");
}

// Hands the sink's pairs to the caller (when it asked for them) and
// clears it, so each call reports only what it emitted.
void Drain(CollectorSink* sink, std::vector<ResultPair>* pairs) {
  if (pairs != nullptr) {
    pairs->insert(pairs->end(), sink->pairs().begin(), sink->pairs().end());
  }
  sink->Clear();
}

}  // namespace

Worker::Worker(const WorkerOptions& options)
    : service_(ForceSingleThread(options.service)) {}

Reply Worker::Handle(FrameType type, const std::string& payload,
                     bool* shutdown) {
  return Dispatch(this, type, payload, shutdown);
}

Worker::SessionRec* Worker::Find(const std::string& name) {
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : &it->second;
}

Status Worker::Open(const std::string& name, const WireConfig& config,
                    SessionRec* rec) {
  if (Find(name) != nullptr) {
    return Status::AlreadyExists("a session named '" + name +
                                 "' already exists");
  }
  rec->sink = std::make_unique<CollectorSink>();
  StatusOr<JoinService::SessionHandle> handle = service_.CreateSession(
      {name, config.ToEngineConfig(), rec->sink.get()});
  if (!handle.ok()) return handle.status();
  rec->handle = *handle;
  return Status::Ok();
}

Status Worker::CreateSession(const std::string& name,
                             const WireConfig& config) {
  SessionRec rec;
  Status status = Open(name, config, &rec);
  if (!status.ok()) return status;
  sessions_.emplace(name, std::move(rec));
  return Status::Ok();
}

Status Worker::Push(const std::string& name, Timestamp ts, SparseVector vec,
                    std::vector<ResultPair>* pairs) {
  SessionRec* rec = Find(name);
  if (rec == nullptr) return NoSession(name);
  Status status = service_.Push(rec->handle, ts, std::move(vec));
  Drain(rec->sink.get(), status.ok() ? pairs : nullptr);
  return status;
}

StatusOr<BatchPushResult> Worker::PushBatch(const std::string& name,
                                            const Stream& batch,
                                            std::vector<ResultPair>* pairs) {
  SessionRec* rec = Find(name);
  if (rec == nullptr) return NoSession(name);
  StatusOr<BatchPushResult> result = service_.PushBatch(rec->handle, batch);
  Drain(rec->sink.get(), result.ok() ? pairs : nullptr);
  return result;
}

Status Worker::Flush(const std::string& name, std::vector<ResultPair>* pairs) {
  SessionRec* rec = Find(name);
  if (rec == nullptr) return NoSession(name);
  Status status = service_.Flush(rec->handle);
  Drain(rec->sink.get(), status.ok() ? pairs : nullptr);
  return status;
}

Status Worker::CloseSession(const std::string& name,
                            std::vector<ResultPair>* pairs) {
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NoSession(name);
  Status status = service_.CloseSession(it->second.handle);
  Drain(it->second.sink.get(), status.ok() ? pairs : nullptr);
  sessions_.erase(it);
  return status;
}

StatusOr<SessionWireStats> Worker::SessionStats(const std::string& name) {
  SessionRec* rec = Find(name);
  if (rec == nullptr) return NoSession(name);
  StatusOr<RunStats> stats = service_.SessionStats(rec->handle);
  if (!stats.ok()) return stats.status();
  StatusOr<size_t> memory = service_.SessionMemoryBytes(rec->handle);
  if (!memory.ok()) return memory.status();
  SessionWireStats wire_stats;
  wire_stats.vectors_processed = stats->vectors_processed;
  wire_stats.pairs_emitted = stats->pairs_emitted;
  wire_stats.memory_bytes = *memory;
  return wire_stats;
}

Status Worker::Restore(const std::string& name, const WireConfig& config,
                       const std::string& checkpoint) {
  SessionRec rec;
  Status status = Open(name, config, &rec);
  if (!status.ok()) return status;
  std::istringstream is(checkpoint);
  status = service_.LoadCheckpoint(rec.handle, is);
  if (!status.ok()) {
    // Roll the half-born session back: a refused restore (truncated or
    // corrupt bytes, or a retired checkpoint format) must leave the
    // worker exactly as it was.
    service_.AbandonSession(rec.handle);
    return status;
  }
  // A restore emits nothing (the checkpoint's watermark suppresses
  // replayed pairs), but clear defensively so the next call reports only
  // its own pairs.
  rec.sink->Clear();
  sessions_.emplace(name, std::move(rec));
  return Status::Ok();
}

StatusOr<std::string> Worker::MigrateOut(const std::string& name) {
  SessionRec* rec = Find(name);
  if (rec == nullptr) return NoSession(name);
  std::ostringstream os;
  Status status = service_.SaveCheckpoint(rec->handle, os);
  if (!status.ok()) return status;
  // Abandon, not Close: pairs still pending in MB windows live inside
  // the checkpoint bytes and will emit at the destination; a flush here
  // would deliver them twice.
  status = service_.AbandonSession(rec->handle);
  if (!status.ok()) return status;
  sessions_.erase(name);
  return std::move(os).str();
}

}  // namespace cluster
}  // namespace sssj
