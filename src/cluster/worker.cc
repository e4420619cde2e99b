#include "cluster/worker.h"

#include <sstream>
#include <utility>

namespace sssj {
namespace cluster {

namespace {

Reply ErrorReply(Status status) {
  Reply reply;
  reply.status = std::move(status);
  return reply;
}

JoinServiceOptions ForceSingleThread(JoinServiceOptions options) {
  options.num_threads = 1;
  return options;
}

}  // namespace

Worker::Worker(const WorkerOptions& options)
    : service_(ForceSingleThread(options.service)) {}

Status Worker::Serve(FrameChannel* channel) {
  // One request and one reply buffer for the life of the loop.
  std::string payload;
  std::string reply_payload;
  for (;;) {
    FrameType type;
    Status status = channel->Recv(&type, &payload);
    if (!status.ok()) return status;
    bool shutdown = false;
    EncodeReply(Handle(type, payload, &shutdown), &reply_payload);
    status = channel->Send(FrameType::kReply, reply_payload);
    if (!status.ok()) return status;
    if (shutdown) return Status::Ok();
    ReleaseIfLarge(&payload);
    ReleaseIfLarge(&reply_payload);
  }
}

Reply Worker::Handle(FrameType type, const std::string& payload,
                     bool* shutdown) {
  *shutdown = false;
  switch (type) {
    case FrameType::kHello:
      return HandleHello(payload);
    case FrameType::kCreateSession:
      return HandleCreateSession(payload);
    case FrameType::kPush:
      return HandlePush(payload);
    case FrameType::kPushBatch:
      return HandlePushBatch(payload);
    case FrameType::kFlush:
      return HandleFlush(payload);
    case FrameType::kRestore:
      return HandleRestore(payload);
    case FrameType::kMigrateOut:
      return HandleMigrateOut(payload);
    case FrameType::kCloseSession:
      return HandleCloseSession(payload);
    case FrameType::kStats:
      return HandleStats(payload);
    case FrameType::kShutdown: {
      *shutdown = true;
      Reply reply;
      reply.status = Status::Ok();
      return reply;
    }
    case FrameType::kReply:
      return ErrorReply(Status::InvalidArgument(
          "a worker does not accept kReply frames as requests"));
  }
  return ErrorReply(Status::InvalidArgument("unknown frame type"));
}

void Worker::DrainPairs(CollectorSink* sink, Reply* reply) {
  reply->pairs.assign(sink->pairs().begin(), sink->pairs().end());
  sink->Clear();
}

Worker::SessionRec* Worker::Find(const std::string& name) {
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : &it->second;
}

Reply Worker::HandleHello(const std::string& payload) {
  HelloPayload hello;
  Status status = DecodeHello(payload, &hello);
  if (!status.ok()) return ErrorReply(std::move(status));
  Reply reply;
  if (hello.magic != kWireMagic) {
    reply.status = Status::FailedPrecondition(
        "wire magic mismatch: peer sent " + std::to_string(hello.magic) +
        ", expected " + std::to_string(kWireMagic));
  } else if (hello.version != kWireVersion) {
    reply.status = Status::FailedPrecondition(
        "wire protocol version mismatch: peer speaks version " +
        std::to_string(hello.version) + ", this worker speaks " +
        std::to_string(kWireVersion));
  }
  // Echo our identity so the peer can name the mismatch from its side.
  reply.blob = EncodeHello(HelloPayload{});
  return reply;
}

Reply Worker::HandleCreateSession(const std::string& payload) {
  CreateSessionRequest req;
  Status status = DecodeCreateSession(payload, &req);
  if (!status.ok()) return ErrorReply(std::move(status));
  if (Find(req.name) != nullptr) {
    return ErrorReply(Status::AlreadyExists("a session named '" + req.name +
                                            "' already exists on this worker"));
  }
  SessionRec rec;
  rec.sink = std::make_unique<CollectorSink>();
  StatusOr<JoinService::SessionHandle> handle = service_.CreateSession(
      {req.name, req.config.ToEngineConfig(), rec.sink.get()});
  if (!handle.ok()) return ErrorReply(handle.status());
  rec.handle = *handle;
  sessions_.emplace(req.name, std::move(rec));
  return Reply{};
}

Reply Worker::HandlePush(const std::string& payload) {
  PushRequest req;
  Status status = DecodePush(payload, &req);
  if (!status.ok()) return ErrorReply(std::move(status));
  SessionRec* rec = Find(req.name);
  if (rec == nullptr) {
    return ErrorReply(
        Status::NotFound("no session named '" + req.name + "' on this worker"));
  }
  Reply reply;
  reply.status = service_.Push(rec->handle, req.ts, std::move(req.vec));
  if (reply.status.ok()) reply.accepted = 1;
  DrainPairs(rec->sink.get(), &reply);
  return reply;
}

Reply Worker::HandlePushBatch(const std::string& payload) {
  PushBatchRequest req;
  Status status = DecodePushBatch(payload, &req);
  if (!status.ok()) return ErrorReply(std::move(status));
  SessionRec* rec = Find(req.name);
  if (rec == nullptr) {
    return ErrorReply(
        Status::NotFound("no session named '" + req.name + "' on this worker"));
  }
  Stream batch;
  batch.reserve(req.items.size());
  for (auto& [ts, vec] : req.items) {
    StreamItem item;
    item.ts = ts;
    item.vec = std::move(vec);
    batch.push_back(std::move(item));
  }
  Reply reply;
  StatusOr<BatchPushResult> result = service_.PushBatch(rec->handle, batch);
  if (!result.ok()) {
    reply.status = result.status();
  } else {
    reply.accepted = result->accepted;
    reply.rejects.reserve(result->rejects.size());
    for (const BatchPushResult::Reject& reject : result->rejects) {
      reply.rejects.emplace_back(static_cast<uint32_t>(reject.index),
                                 reject.status);
    }
  }
  DrainPairs(rec->sink.get(), &reply);
  return reply;
}

Reply Worker::HandleFlush(const std::string& payload) {
  NameRequest req;
  Status status = DecodeName(payload, &req);
  if (!status.ok()) return ErrorReply(std::move(status));
  SessionRec* rec = Find(req.name);
  if (rec == nullptr) {
    return ErrorReply(
        Status::NotFound("no session named '" + req.name + "' on this worker"));
  }
  Reply reply;
  reply.status = service_.Flush(rec->handle);
  DrainPairs(rec->sink.get(), &reply);
  return reply;
}

Reply Worker::HandleRestore(const std::string& payload) {
  RestoreRequest req;
  Status status = DecodeRestore(payload, &req);
  if (!status.ok()) return ErrorReply(std::move(status));
  if (Find(req.name) != nullptr) {
    return ErrorReply(Status::AlreadyExists("a session named '" + req.name +
                                            "' already exists on this worker"));
  }
  SessionRec rec;
  rec.sink = std::make_unique<CollectorSink>();
  StatusOr<JoinService::SessionHandle> handle = service_.CreateSession(
      {req.name, req.config.ToEngineConfig(), rec.sink.get()});
  if (!handle.ok()) return ErrorReply(handle.status());
  std::istringstream is(req.checkpoint);
  status = service_.LoadCheckpoint(*handle, is);
  if (!status.ok()) {
    // Roll the half-born session back: a refused restore (truncated or
    // corrupt bytes, or a retired checkpoint format) must leave the
    // worker exactly as it was.
    service_.AbandonSession(*handle);
    return ErrorReply(std::move(status));
  }
  rec.handle = *handle;
  // A restore emits nothing immediately (the checkpoint's watermark
  // suppresses replayed pairs), but drain defensively so reply pairs
  // always reflect this request only.
  Reply reply;
  DrainPairs(rec.sink.get(), &reply);
  reply.pairs.clear();
  sessions_.emplace(req.name, std::move(rec));
  return reply;
}

Reply Worker::HandleMigrateOut(const std::string& payload) {
  NameRequest req;
  Status status = DecodeName(payload, &req);
  if (!status.ok()) return ErrorReply(std::move(status));
  SessionRec* rec = Find(req.name);
  if (rec == nullptr) {
    return ErrorReply(
        Status::NotFound("no session named '" + req.name + "' on this worker"));
  }
  std::ostringstream os;
  status = service_.SaveCheckpoint(rec->handle, os);
  if (!status.ok()) return ErrorReply(std::move(status));
  // Abandon, not Close: pairs still pending in MB windows live inside
  // the checkpoint bytes and will emit at the destination; a flush here
  // would deliver them twice.
  status = service_.AbandonSession(rec->handle);
  if (!status.ok()) return ErrorReply(std::move(status));
  sessions_.erase(req.name);
  Reply reply;
  reply.blob = std::move(os).str();
  return reply;
}

Reply Worker::HandleCloseSession(const std::string& payload) {
  NameRequest req;
  Status status = DecodeName(payload, &req);
  if (!status.ok()) return ErrorReply(std::move(status));
  auto it = sessions_.find(req.name);
  if (it == sessions_.end()) {
    return ErrorReply(
        Status::NotFound("no session named '" + req.name + "' on this worker"));
  }
  Reply reply;
  reply.status = service_.CloseSession(it->second.handle);
  DrainPairs(it->second.sink.get(), &reply);
  sessions_.erase(it);
  return reply;
}

Reply Worker::HandleStats(const std::string& payload) {
  NameRequest req;
  Status status = DecodeName(payload, &req);
  if (!status.ok()) return ErrorReply(std::move(status));
  SessionRec* rec = Find(req.name);
  if (rec == nullptr) {
    return ErrorReply(
        Status::NotFound("no session named '" + req.name + "' on this worker"));
  }
  StatusOr<RunStats> stats = service_.SessionStats(rec->handle);
  if (!stats.ok()) return ErrorReply(stats.status());
  StatusOr<size_t> memory = service_.SessionMemoryBytes(rec->handle);
  if (!memory.ok()) return ErrorReply(memory.status());
  SessionWireStats wire_stats;
  wire_stats.vectors_processed = stats->vectors_processed;
  wire_stats.pairs_emitted = stats->pairs_emitted;
  wire_stats.memory_bytes = *memory;
  Reply reply;
  reply.blob = EncodeSessionStats(wire_stats);
  return reply;
}

}  // namespace cluster
}  // namespace sssj
