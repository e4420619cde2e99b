// sssj_clusterd — the cluster front door: forks a worker fleet and
// serves the frame protocol on a Unix-domain socket, routing sessions
// across workers by rendezvous hash and supervising crashes.
//
//   ./sssj_clusterd --workers=4 --socket=/tmp/sssj-cluster.sock
//
// Clients speak the same wire format a worker does; the router maps
// each request to the session's home worker, journals acked mutations,
// and on a worker crash restarts + restores it transparently — callers
// just see their request take a little longer. One client connection is
// served at a time; a disconnected client can reconnect and continue
// (sessions live in the workers, not the connection). kShutdown stops
// the fleet and exits.
//
// The router pulls no checkpoints: a session's journal is trimmed at the
// horizon τ (STR) or at two windows (MB), and a crashed worker's
// sessions recover from a zero-item seed plus that journal.
//
// Exit status: 0 after kShutdown; 2 on a bad command line (an unknown
// flag, a missing --socket, --workers not a positive integer), before
// any worker is forked; 1 when the fleet or the listener cannot start.
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "cluster/channel.h"
#include "cluster/supervisor.h"
#include "util/flags.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

// Translates one client frame into the matching Supervisor call. The
// router intentionally speaks the same protocol as a worker, so a
// client needs no special "cluster mode" — only kRestore/kMigrateOut
// (supervisor-internal machinery) are refused.
sssj::cluster::Reply Route(sssj::cluster::Supervisor* supervisor,
                           sssj::cluster::FrameType type,
                           const std::string& payload, bool* shutdown) {
  using sssj::Status;
  namespace cl = sssj::cluster;
  cl::Reply reply;
  switch (type) {
    case cl::FrameType::kHello: {
      cl::HelloPayload hello;
      reply.status = cl::DecodeHello(payload, &hello);
      if (reply.status.ok() && hello.version != cl::kWireVersion) {
        reply.status = Status::FailedPrecondition(
            "wire protocol version mismatch: client speaks " +
            std::to_string(hello.version));
      }
      reply.blob = cl::EncodeHello(cl::HelloPayload{});
      return reply;
    }
    case cl::FrameType::kCreateSession: {
      cl::CreateSessionRequest req;
      reply.status = cl::DecodeCreateSession(payload, &req);
      if (!reply.status.ok()) return reply;
      reply.status = supervisor->CreateSession(req.name, req.config);
      return reply;
    }
    case cl::FrameType::kPush: {
      cl::PushRequest req;
      reply.status = cl::DecodePush(payload, &req);
      if (!reply.status.ok()) return reply;
      reply.status =
          supervisor->Push(req.name, req.ts, req.vec, &reply.pairs);
      if (reply.status.ok()) reply.accepted = 1;
      return reply;
    }
    case cl::FrameType::kPushBatch: {
      cl::PushBatchRequest req;
      reply.status = cl::DecodePushBatch(payload, &req);
      if (!reply.status.ok()) return reply;
      sssj::Stream batch;
      batch.reserve(req.items.size());
      for (auto& [ts, vec] : req.items) {
        sssj::StreamItem item;
        item.ts = ts;
        item.vec = std::move(vec);
        batch.push_back(std::move(item));
      }
      auto result = supervisor->PushBatch(req.name, batch, &reply.pairs);
      if (!result.ok()) {
        reply.status = result.status();
        return reply;
      }
      reply.accepted = result->accepted;
      for (const auto& reject : result->rejects) {
        reply.rejects.emplace_back(static_cast<uint32_t>(reject.index),
                                   reject.status);
      }
      return reply;
    }
    case cl::FrameType::kFlush: {
      cl::NameRequest req;
      reply.status = cl::DecodeName(payload, &req);
      if (!reply.status.ok()) return reply;
      reply.status = supervisor->Flush(req.name, &reply.pairs);
      return reply;
    }
    case cl::FrameType::kCloseSession: {
      cl::NameRequest req;
      reply.status = cl::DecodeName(payload, &req);
      if (!reply.status.ok()) return reply;
      reply.status = supervisor->CloseSession(req.name, &reply.pairs);
      return reply;
    }
    case cl::FrameType::kStats: {
      cl::NameRequest req;
      reply.status = cl::DecodeName(payload, &req);
      if (!reply.status.ok()) return reply;
      auto stats = supervisor->SessionStats(req.name);
      if (!stats.ok()) {
        reply.status = stats.status();
        return reply;
      }
      reply.blob = cl::EncodeSessionStats(*stats);
      return reply;
    }
    case cl::FrameType::kShutdown:
      *shutdown = true;
      return reply;
    default:
      reply.status = Status::Unimplemented(
          std::string("the router does not accept ") + cl::ToString(type) +
          " frames");
      return reply;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  sssj::cluster::SupervisorOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--socket", &value)) {
      socket_path = value;
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      int64_t workers = 0;
      if (!sssj::ParseFlagInt(value, &workers) || workers < 1 ||
          workers > INT_MAX) {
        std::fprintf(stderr,
                     "sssj_clusterd: --workers must be a positive integer; "
                     "got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.num_workers = static_cast<int>(workers);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::fprintf(stderr,
                   "usage: sssj_clusterd --workers=K --socket=PATH\n"
                   "  --workers=K    worker processes to fork (default 2)\n"
                   "  --socket=PATH  Unix-domain socket to serve on\n"
                   "Sessions recover from a seed and their journals.\n");
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "sssj_clusterd: --socket=PATH is required\n");
    return 2;
  }

  // Fork the fleet BEFORE opening the listener: fork must happen while
  // this process is single-threaded and owns no client state.
  sssj::cluster::Supervisor supervisor(options);
  sssj::Status status = supervisor.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "sssj_clusterd: %s\n", status.ToString().c_str());
    return 1;
  }
  int listen_fd = -1;
  status = sssj::cluster::ListenUnix(socket_path, &listen_fd);
  if (!status.ok()) {
    std::fprintf(stderr, "sssj_clusterd: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "sssj_clusterd: %d workers, serving on %s\n",
               options.num_workers, socket_path.c_str());

  bool shutdown = false;
  std::string payload;
  std::string reply_payload;
  while (!shutdown) {
    int conn_fd = -1;
    status = sssj::cluster::AcceptOne(listen_fd, &conn_fd);
    if (!status.ok()) {
      std::fprintf(stderr, "sssj_clusterd: %s\n", status.ToString().c_str());
      return 1;
    }
    sssj::cluster::FrameChannel channel(conn_fd);
    while (!shutdown) {
      sssj::cluster::FrameType type;
      status = channel.Recv(&type, &payload);
      if (!status.ok()) break;  // client went away; accept the next one
      sssj::cluster::EncodeReply(Route(&supervisor, type, payload, &shutdown),
                                 &reply_payload);
      status = channel.Send(sssj::cluster::FrameType::kReply, reply_payload);
      if (!status.ok()) break;
      sssj::cluster::ReleaseIfLarge(&payload);
      sssj::cluster::ReleaseIfLarge(&reply_payload);
    }
  }
  supervisor.Shutdown();
  std::fprintf(stderr, "sssj_clusterd: shutdown\n");
  return 0;
}
