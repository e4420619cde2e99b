// Cluster worker — a JoinService behind the typed session API, served
// over frames by the shared dispatcher (cluster/serve.h).
//
// One worker serves the sessions routed to it: in a forked worker
// process, behind sssj_workerd, or in process as ClusterClient's local
// backend (called through the typed API, never through the codec). Each
// call maps to one JoinService call and appends the pairs that call
// caused the engine to emit (drained from a per-session CollectorSink,
// bit-exact doubles). That per-call pair delivery is what the
// supervisor's exactly-once failover hangs on: a pair is always emitted
// in the reply of the push that completed it, so after a crash the
// supervisor can replay un-acked operations and suppress the pairs of
// already-acked ones.
//
// Session state never leaves the engine's SSSJENG3 checkpoint format:
// MigrateOut returns those bytes and destroys the session WITHOUT
// flushing (the pending MB pairs travel inside the bytes), and Restore
// creates a session and loads them: a migration's bytes, or the
// zero-item seed the supervisor replays a journal onto after a crash. A
// Restore whose bytes the engine refuses — truncated, corrupt, or a
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
#include <vector>

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

  // ---- the typed session API (see cluster/serve.h) ----
  //
  // `pairs` (may be null) receives the pairs the call caused the engine
  // to emit, in emission order; a refused call appends none.
  Status CreateSession(const std::string& name, const WireConfig& config);
  // Takes the vector by value and moves it into the engine.
  Status Push(const std::string& name, Timestamp ts, SparseVector vec,
              std::vector<ResultPair>* pairs);
  StatusOr<BatchPushResult> PushBatch(const std::string& name,
                                      const Stream& batch,
                                      std::vector<ResultPair>* pairs);
  Status Flush(const std::string& name, std::vector<ResultPair>* pairs);
  // Final flush + destroy; the name becomes reusable.
  Status CloseSession(const std::string& name, std::vector<ResultPair>* pairs);
  StatusOr<SessionWireStats> SessionStats(const std::string& name);
  // Creates the session and loads SSSJENG3 `checkpoint` bytes into it; a
  // refused load leaves no session behind.
  Status Restore(const std::string& name, const WireConfig& config,
                 const std::string& checkpoint);
  // The session's SSSJENG3 bytes; the session is destroyed unflushed.
  StatusOr<std::string> MigrateOut(const std::string& name);

  // Dispatches one request frame through the shared dispatcher, so tests
  // can drive the full dispatch table without a socket.
  Reply Handle(FrameType type, const std::string& payload, bool* shutdown);

  size_t num_sessions() const { return service_.num_sessions(); }

 private:
  struct SessionRec {
    JoinService::SessionHandle handle;
    // Owned here (not adopted by the service) because the worker drains
    // it after every call; destroyed after the session closes.
    std::unique_ptr<CollectorSink> sink;
  };

  // Creates a session with a private sink; *rec gets both.
  Status Open(const std::string& name, const WireConfig& config,
              SessionRec* rec);
  SessionRec* Find(const std::string& name);

  JoinService service_;
  std::unordered_map<std::string, SessionRec> sessions_;
};

}  // namespace cluster
}  // namespace sssj

#endif  // SSSJ_CLUSTER_WORKER_H_
