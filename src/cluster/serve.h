// The one request path of the cluster: a frame dispatcher that maps a
// request frame onto a host's typed session calls, and the serve loop
// that feeds it. The forked worker, sssj_workerd and sssj_clusterd all
// serve through it.
//
// A host is a class with the typed session API (names as in
// ClusterClient):
//
//   Status CreateSession(name, const WireConfig&);
//   Status Push(name, Timestamp, <vector>, std::vector<ResultPair>*);
//   StatusOr<BatchPushResult> PushBatch(name, const Stream&, pairs);
//   Status Flush(name, pairs);
//   Status CloseSession(name, pairs);
//   StatusOr<SessionWireStats> SessionStats(name);
//
// and, if it holds session state itself, the transfer pair:
//
//   Status Restore(name, const WireConfig&, const std::string& bytes);
//   StatusOr<std::string> MigrateOut(name);
//
// Worker has both; Supervisor has no transfer pair (kRestore and
// kMigrateOut are its own machinery, which no client may drive), so the
// dispatcher refuses those frames for it with kUnimplemented. The Hello
// check, the decode of every payload and the shape of every reply live
// here once.
//
// Dispatch is a template over the host, not a virtual interface, so each
// host keeps its own argument passing: Push gets the decoded vector as an
// rvalue, which the worker moves into its engine and the supervisor
// encodes from by const reference.
#ifndef SSSJ_CLUSTER_SERVE_H_
#define SSSJ_CLUSTER_SERVE_H_

#include <string>
#include <type_traits>
#include <utility>

#include "cluster/channel.h"
#include "cluster/wire.h"
#include "core/status.h"

namespace sssj {
namespace cluster {

namespace serve_internal {

// True when Host serves kRestore and kMigrateOut.
template <typename Host, typename = void>
struct TransfersState : std::false_type {};
template <typename Host>
struct TransfersState<Host, std::void_t<decltype(&Host::MigrateOut)>>
    : std::true_type {};

}  // namespace serve_internal

// Decodes one request frame, makes the matching host call and builds its
// reply: a malformed payload is the decoder's kDataLoss, a refused call
// is the host's status. Sets *shutdown on kShutdown (the caller sends the
// reply, then stops).
template <typename Host>
Reply Dispatch(Host* host, FrameType type, const std::string& payload,
               bool* shutdown) {
  constexpr bool kTransfersState =
      serve_internal::TransfersState<Host>::value;
  *shutdown = false;
  Reply reply;
  switch (type) {
    case FrameType::kHello: {
      HelloPayload hello;
      reply.status = DecodeHello(payload, &hello);
      if (!reply.status.ok()) break;
      reply.status = CheckHello(hello);
      // Echo this end's identity so the peer can name a mismatch too.
      reply.blob = EncodeHello(HelloPayload{});
      break;
    }
    case FrameType::kCreateSession: {
      CreateSessionRequest req;
      reply.status = DecodeCreateSession(payload, &req);
      if (!reply.status.ok()) break;
      reply.status = host->CreateSession(req.name, req.config);
      break;
    }
    case FrameType::kPush: {
      PushRequest req;
      reply.status = DecodePush(payload, &req);
      if (!reply.status.ok()) break;
      reply.status =
          host->Push(req.name, req.ts, std::move(req.vec), &reply.pairs);
      if (reply.status.ok()) reply.accepted = 1;
      break;
    }
    case FrameType::kPushBatch: {
      PushBatchRequest req;
      reply.status = DecodePushBatch(payload, &req);
      if (!reply.status.ok()) break;
      StatusOr<BatchPushResult> result =
          host->PushBatch(req.name, req.items, &reply.pairs);
      reply.status = result.status();
      if (!result.ok()) break;
      reply.accepted = result->accepted;
      reply.rejects = std::move(result->rejects);
      break;
    }
    case FrameType::kFlush: {
      NameRequest req;
      reply.status = DecodeName(payload, &req);
      if (!reply.status.ok()) break;
      reply.status = host->Flush(req.name, &reply.pairs);
      break;
    }
    case FrameType::kCloseSession: {
      NameRequest req;
      reply.status = DecodeName(payload, &req);
      if (!reply.status.ok()) break;
      reply.status = host->CloseSession(req.name, &reply.pairs);
      break;
    }
    case FrameType::kStats: {
      NameRequest req;
      reply.status = DecodeName(payload, &req);
      if (!reply.status.ok()) break;
      StatusOr<SessionWireStats> stats = host->SessionStats(req.name);
      reply.status = stats.status();
      if (stats.ok()) reply.blob = EncodeSessionStats(*stats);
      break;
    }
    case FrameType::kRestore:
    case FrameType::kMigrateOut:
      if constexpr (!kTransfersState) {
        reply.status = Status::Unimplemented(
            std::string("this endpoint does not accept ") + ToString(type) +
            " frames");
      } else if (type == FrameType::kRestore) {
        RestoreRequest req;
        reply.status = DecodeRestore(payload, &req);
        if (!reply.status.ok()) break;
        reply.status = host->Restore(req.name, req.config, req.checkpoint);
      } else {
        NameRequest req;
        reply.status = DecodeName(payload, &req);
        if (!reply.status.ok()) break;
        StatusOr<std::string> bytes = host->MigrateOut(req.name);
        reply.status = bytes.status();
        if (bytes.ok()) reply.blob = std::move(*bytes);
      }
      break;
    case FrameType::kShutdown:
      *shutdown = true;
      break;
    case FrameType::kReply:
      reply.status =
          Status::InvalidArgument("a kReply frame is not a request");
      break;
  }
  return reply;
}

// Serves one connection until kShutdown (returns Ok once its reply is
// sent) or a failed Recv or Send (returns that status: the peer went
// away, or it speaks another protocol). One request and one reply buffer
// serve the whole loop.
template <typename Host>
Status Serve(Host* host, FrameChannel* channel) {
  std::string payload;
  std::string reply_payload;
  for (;;) {
    FrameType type;
    Status status = channel->Recv(&type, &payload);
    if (!status.ok()) return status;
    bool shutdown = false;
    EncodeReply(Dispatch(host, type, payload, &shutdown), &reply_payload);
    status = channel->Send(FrameType::kReply, reply_payload);
    if (!status.ok()) return status;
    if (shutdown) return Status::Ok();
    ReleaseIfLarge(&payload);
    ReleaseIfLarge(&reply_payload);
  }
}

// Serves the connections to a ListenUnix socket bound at `path`, one at a
// time. A connection that ends without kShutdown ends only itself: the
// host keeps its sessions for the next peer. Returns Ok after kShutdown,
// or the failed accept's status; either way the listener is closed and
// `path` unlinked.
template <typename Host>
Status ServeUnix(Host* host, int listen_fd, const std::string& path) {
  Status status;
  for (;;) {
    int conn_fd = -1;
    status = AcceptOne(listen_fd, &conn_fd);
    if (!status.ok()) break;
    FrameChannel channel(conn_fd);
    if (Serve(host, &channel).ok()) break;
  }
  CloseListener(listen_fd, path);
  return status;
}

}  // namespace cluster
}  // namespace sssj

#endif  // SSSJ_CLUSTER_SERVE_H_
