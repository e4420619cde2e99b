// Cluster supervisor — partitions sessions across forked worker
// processes, forwards calls over the frame protocol, and survives
// worker death by restore and journal replay (what that guarantees, per
// framework and scheme, is stated under Failover below).
//
// Its session API is the typed host API of cluster/serve.h, so
// sssj_clusterd serves a Supervisor through the same dispatcher and
// serve loop as a worker's. It has no Restore or MigrateOut of its own:
// those frames move worker state, and the dispatcher refuses them from
// a client.
//
// Placement: a session's home worker is RendezvousOwner(name, K) —
// every router instance computes the same owner, and resizing the fleet
// by one slot moves only ~1/K of the sessions. Migrate() overrides the
// home slot for one session: MigrateOut at the source (checkpoint +
// destroy WITHOUT flush) and Restore at the destination move the
// engine's portable SSSJENG3 bytes verbatim, so a migrated session emits
// the pairs of one that never moved, with the guarantee a failover gives
// (below): bit for bit, except STR-L2AP, which keeps the pair set.
//
// Failover: the supervisor keeps, per session, one restore point — a
// zero-item SSSJENG3 seed — and a journal of the encoded mutating request
// payloads (push / batch / flush) completed since it. Requests are
// synchronous, so a journaled operation is by definition *acked*: its
// reply — including the pairs it emitted — already reached the caller.
// When a worker channel returns kIoError (the one signal for worker
// death: kill -9, crash, closed pipe), the supervisor reaps the corpse,
// forks a fresh worker on the same slot, restores every session homed
// there from its seed, replays each journal in order *discarding the
// replayed replies' pairs* (they were already delivered — that discard is
// the exactly-once rule), and finally retries the in-flight request,
// whose reply is delivered normally. A journal replays as kPushBatch
// frames of its ops' items (an STR Flush is a no-op, and a batch
// re-derives each reject in order). A Migrate changes where the session
// runs, not what it holds, so it keeps the seed and the journal.
//
// No session ever pulls a checkpoint. A fresh session's seed is not
// started, with the clock at 0. After every journaled op the supervisor
// drops the leading ops that no longer shape future output; what bounds
// the journal depends on the framework:
//   * STR: an item older than the horizon τ can never pair again, so the
//     dropped ops are those whose accepted items are all OutsideHorizon
//     of the newest accepted ts.
//   * MB: windows sit on the grid [kτ, (k+1)τ) (MbWindowIndex), and the
//     core buffers only the newest item's window k and window k − 1, so
//     the dropped ops are those whose items all lie in windows below
//     k − 1. An MB Flush empties the core and restarts its clock: it
//     clears the journal and resets the seed to a not-started one with
//     the clock at 0, so an MB journal never holds a Flush.
// Once an op with items is dropped, the seed becomes a started one (next
// id = the first kept op's first id, clock = the newest dropped ts,
// watermark = next id), and the replay of the kept ops rebuilds the core
// a restore of those items would build: the STR index, or the MB
// windows, whose first close on replay indexes an empty window. At λ = 0
// τ is infinite (MB: one window), so no op with items drops: the journal
// holds every op since CreateSession or the last MB Flush, as the core
// holds every item.
//
// What failover guarantees, per framework and scheme:
//
//   session            pairs lost or repeated   a pair's bits
//   MB (any scheme)    none                     as without the crash
//   STR-INV, STR-L2    none                     as without the crash
//   STR-L2AP           none                     may differ
//
// A restore rebuilds STR-L2AP's max vector from the replayed items only,
// which can move a prefix boundary and a score's summation order: the
// pair set holds, not the bits. A Migrate is such a restore too: the
// SSSJENG3 bytes hold the live items, not the max vector, so a migrated
// STR-L2AP session keeps the pair set and its bits may differ.
//
// Fork model: workers are forked (no exec) with a socketpair as their
// only link to the supervisor; each serves a Worker over it with
// cluster::Serve. Fork only happens while the supervisor
// process is single-threaded — the library spawns no threads of its
// own; callers embedding it in threaded programs should Start() before
// spawning threads and serialize calls per Supervisor (every public
// method takes the one internal lock, so concurrent calls are safe but
// not parallel).
#ifndef SSSJ_CLUSTER_SUPERVISOR_H_
#define SSSJ_CLUSTER_SUPERVISOR_H_

#include <sys/types.h>

#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/channel.h"
#include "cluster/wire.h"
#include "core/join_service.h"
#include "core/result.h"
#include "core/status.h"
#include "util/thread_annotations.h"

namespace sssj {
namespace cluster {

class Worker;

struct SupervisorOptions {
  // Worker fleet size; fixed for the supervisor's lifetime.
  int num_workers = 2;
};

class Supervisor {
 public:
  explicit Supervisor(const SupervisorOptions& options = {});
  // Shuts the fleet down (best-effort kShutdown, then reap).
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Forks the fleet and completes the Hello exchange with every worker.
  Status Start() SSSJ_EXCLUDES(mu_);
  // Graceful stop: kShutdown to every live worker, then waitpid. Safe
  // to call twice; the destructor calls it.
  void Shutdown() SSSJ_EXCLUDES(mu_);

  // ---- session API (addressed by name, like ClusterClient; the host
  // API of cluster/serve.h) ----
  //
  // Each call forwards one frame to the session's worker. `pairs`
  // (where present, may be null) receives the pairs that THIS call
  // caused the engine to emit, in emission order, bit-exact.
  Status CreateSession(const std::string& name, const WireConfig& config)
      SSSJ_EXCLUDES(mu_);
  Status Push(const std::string& name, Timestamp ts, const SparseVector& vec,
              std::vector<ResultPair>* pairs) SSSJ_EXCLUDES(mu_);
  // Mirrors JoinService::PushBatch: per-item rejects, accepted count.
  // Encodes straight from `batch`.
  StatusOr<BatchPushResult> PushBatch(const std::string& name,
                                      const Stream& batch,
                                      std::vector<ResultPair>* pairs)
      SSSJ_EXCLUDES(mu_);
  Status Flush(const std::string& name, std::vector<ResultPair>* pairs)
      SSSJ_EXCLUDES(mu_);
  // Final flush + destroy; the name becomes reusable.
  Status CloseSession(const std::string& name, std::vector<ResultPair>* pairs)
      SSSJ_EXCLUDES(mu_);
  StatusOr<SessionWireStats> SessionStats(const std::string& name)
      SSSJ_EXCLUDES(mu_);

  // Moves the session to worker slot `target` (checkpoint bytes travel
  // verbatim; output is bit-identical to never migrating, except that
  // STR-L2AP keeps only the pair set). The session's seed and journal
  // stay as they were.
  Status Migrate(const std::string& name, int target) SSSJ_EXCLUDES(mu_);

  // The slot a session currently lives on (kNotFound if unknown).
  StatusOr<int> OwnerOf(const std::string& name) const SSSJ_EXCLUDES(mu_);

  int num_workers() const { return options_.num_workers; }
  // Lifetime count of crash-restarts (not graceful shutdowns).
  uint64_t restarts() const SSSJ_EXCLUDES(mu_);
  // A session's failover state: what a restart would replay onto its
  // seed.
  struct JournalInfo {
    size_t ops = 0;  // journaled ops a failover replays
  };
  StatusOr<JournalInfo> journal_info(const std::string& name) const
      SSSJ_EXCLUDES(mu_);
  // The worker's pid — for tests that kill -9 it.
  StatusOr<pid_t> worker_pid(int slot) const SSSJ_EXCLUDES(mu_);

 private:
  struct WorkerProc {
    pid_t pid = -1;
    FrameChannel channel;
    bool live = false;
  };

  // One journaled mutating request: the frame type + encoded payload,
  // replayed verbatim on failover (replies discarded — already acked),
  // plus what a trim needs: the ids and newest ts the op got accepted.
  struct JournalOp {
    FrameType type;
    std::string payload;
    VectorId first_id = 0;      // the session's next id before the op
    uint64_t accepted = 0;      // items the engine accepted
    Timestamp newest_ts = 0.0;  // newest accepted ts (when accepted > 0)
  };

  struct SessionRec {
    WireConfig config;
    // τ (+inf at λ = 0): an STR journal is trimmed at the horizon τ, an
    // MB journal at windows of length τ.
    double tau = std::numeric_limits<double>::infinity();
    int worker = 0;
    // The restore point, written by SeedCheckpoint(): not started at 0
    // until a trim drops an op with items (then started, clocked at the
    // newest dropped ts), and again after an MB Flush empties the core.
    bool seed_started = false;
    Timestamp seed_clock = 0.0;
    std::deque<JournalOp> journal;
    VectorId next_id = 0;       // ids the session has assigned
    Timestamp newest_ts = 0.0;  // newest accepted ts
  };

  // Forks slot `slot` and runs the Hello exchange.
  Status SpawnWorker(int slot) SSSJ_REQUIRES(mu_);
  // SIGKILL + reap + refork + restore every session homed on `slot`
  // (seed, then journal replay with pairs discarded).
  Status RecoverWorker(int slot) SSSJ_REQUIRES(mu_);
  // RecoverWorker's replay of a journal, pairs discarded: the ops' items
  // as kPushBatch frames instead of one frame per op.
  static Status ReplayAsBatches(FrameChannel* channel, const std::string& name,
                                const std::deque<JournalOp>& journal);
  // Sends one request; on kIoError runs RecoverWorker and retries once.
  // Any non-transport failure is returned as the reply's status.
  Status CallWorker(int slot, FrameType type, const std::string& payload,
                    Reply* reply) SSSJ_REQUIRES(mu_);
  // Journal bookkeeping after a successful mutating call that got
  // `accepted` items accepted, the newest at `newest_ts`: trims an STR
  // journal at the horizon and an MB journal at two windows; an MB Flush
  // resets the seed.
  void JournalOpLocked(SessionRec* rec, FrameType type, std::string payload,
                       uint64_t accepted, Timestamp newest_ts)
      SSSJ_REQUIRES(mu_);
  // The session's zero-item SSSJENG3 seed, written with its framework.
  static std::string SeedCheckpoint(const SessionRec& rec);

  const SupervisorOptions options_;

  mutable Mutex mu_;
  bool started_ SSSJ_GUARDED_BY(mu_) = false;
  std::vector<WorkerProc> workers_ SSSJ_GUARDED_BY(mu_);
  // std::map: failover restores sessions in name order — deterministic.
  std::map<std::string, SessionRec> sessions_ SSSJ_GUARDED_BY(mu_);
  uint64_t restarts_ SSSJ_GUARDED_BY(mu_) = 0;
};

// Thin client presenting one Status-based session API over either
// backend, so examples and benches target in-process or cluster
// execution transparently:
//
//   ClusterClient local(JoinServiceOptions{});     // an in-process Worker
//   ClusterClient remote(&supervisor);             // forked fleet
//   client.CreateSession("news", config);
//   client.Push("news", ts, vec, &pairs);          // same calls either way
//
// The in-process backend is a Worker called through its typed API, never
// through the codec, so the in-process-vs-fleet pins compare a path with
// no wire against the wire. Both backends resolve configs through
// WireConfig::ToEngineConfig(), so their outputs are bit-identical for
// the same stream.
class ClusterClient {
 public:
  // In-process backend: a private Worker over these options (num_threads
  // forced to 1, as in every worker).
  explicit ClusterClient(const JoinServiceOptions& options);
  // Cluster backend: forwards to a Start()ed supervisor (borrowed; must
  // outlive the client).
  explicit ClusterClient(Supervisor* supervisor);
  ~ClusterClient();

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  Status CreateSession(const std::string& name, const WireConfig& config);
  Status Push(const std::string& name, Timestamp ts, const SparseVector& vec,
              std::vector<ResultPair>* pairs);
  StatusOr<BatchPushResult> PushBatch(const std::string& name,
                                      const Stream& batch,
                                      std::vector<ResultPair>* pairs);
  Status Flush(const std::string& name, std::vector<ResultPair>* pairs);
  Status CloseSession(const std::string& name, std::vector<ResultPair>* pairs);
  StatusOr<SessionWireStats> SessionStats(const std::string& name);

 private:
  Supervisor* supervisor_ = nullptr;  // cluster backend
  std::unique_ptr<Worker> worker_;    // in-process backend
};

}  // namespace cluster
}  // namespace sssj

#endif  // SSSJ_CLUSTER_SUPERVISOR_H_
