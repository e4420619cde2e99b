// Cluster worker — a JoinService behind a frame-protocol request loop.
//
// One worker process serves the sessions the supervisor routes to it:
// each request frame maps to one JoinService call, and the reply carries
// the pairs that call caused the engine to emit (drained from a
// per-session CollectorSink, bit-exact doubles). That per-request pair
// delivery is what the supervisor's exactly-once failover hangs on: a
// pair is always emitted in the reply of the push that completed it, so
// after a crash the supervisor can replay un-acked operations and
// suppress the pairs of already-acked ones.
//
// Session state never leaves the engine's SSSJENG3 checkpoint format:
// kMigrateOut returns those bytes and destroys the session WITHOUT
// flushing (the pending MB pairs travel inside the bytes), and kRestore
// creates a session and loads them: a migration's bytes, or the
// zero-item seed the supervisor replays a journal onto after a crash. A
// kRestore whose bytes the engine refuses — truncated, corrupt, or a
// retired format such as SSSJENG2 — rolls the half-born session back,
// leaving the worker pristine.
//
// The worker is single-threaded by design: one serve loop, sessions
// forced to num_threads = 1, requests totally ordered per connection.
// Determinism across placements follows — a session's output depends
// only on its WireConfig and its stream, never on which worker ran it.
#ifndef SSSJ_CLUSTER_WORKER_H_
#define SSSJ_CLUSTER_WORKER_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "cluster/channel.h"
#include "cluster/wire.h"
#include "core/join_service.h"
#include "core/result.h"
#include "core/status.h"

namespace sssj {
namespace cluster {

struct WorkerOptions {
  // Forwarded to the JoinService, except num_threads is forced to 1 (the
  // worker process is the unit of parallelism in the cluster; engines
  // inside it stay single-threaded so placement never changes output).
  JoinServiceOptions service;
};

class Worker {
 public:
  explicit Worker(const WorkerOptions& options = {});

  // Serves requests on the channel until a kShutdown frame (returns Ok)
  // or a transport failure (returns that kIoError — the supervisor died
  // or closed the pipe; the caller should exit).
  Status Serve(FrameChannel* channel);

  // Dispatches one decoded request and builds its reply. Exposed so
  // tests can drive the full dispatch table without a socket. Sets
  // *shutdown on a kShutdown frame (after which the caller sends the
  // reply and stops).
  Reply Handle(FrameType type, const std::string& payload, bool* shutdown);

  size_t num_sessions() const { return service_.num_sessions(); }

 private:
  struct SessionRec {
    JoinService::SessionHandle handle;
    // Owned here (not adopted by the service) because the worker drains
    // it into every reply; destroyed after the session closes.
    std::unique_ptr<CollectorSink> sink;
  };

  Reply HandleHello(const std::string& payload);
  Reply HandleCreateSession(const std::string& payload);
  Reply HandlePush(const std::string& payload);
  Reply HandlePushBatch(const std::string& payload);
  Reply HandleFlush(const std::string& payload);
  Reply HandleRestore(const std::string& payload);
  Reply HandleMigrateOut(const std::string& payload);
  Reply HandleCloseSession(const std::string& payload);
  Reply HandleStats(const std::string& payload);

  // Moves the sink's accumulated pairs into the reply and clears it.
  static void DrainPairs(CollectorSink* sink, Reply* reply);

  SessionRec* Find(const std::string& name);

  JoinService service_;
  std::unordered_map<std::string, SessionRec> sessions_;
};

}  // namespace cluster
}  // namespace sssj

#endif  // SSSJ_CLUSTER_WORKER_H_
