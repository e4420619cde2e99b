#include "cluster/supervisor.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <sstream>
#include <utility>

#include "cluster/serve.h"
#include "cluster/worker.h"
#include "core/similarity.h"
#include "index/stream_index.h"
#include "stream/minibatch.h"

namespace sssj {
namespace cluster {

namespace {

Status NoSession(const std::string& name) {
  return Status::NotFound("no session named '" + name + "'");
}

}  // namespace

Supervisor::Supervisor(const SupervisorOptions& options) : options_(options) {}

Supervisor::~Supervisor() { Shutdown(); }

Status Supervisor::Start() {
  MutexLock lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("the supervisor is already started");
  }
  if (options_.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1; got " +
                                   std::to_string(options_.num_workers));
  }
  workers_.resize(static_cast<size_t>(options_.num_workers));
  for (int slot = 0; slot < options_.num_workers; ++slot) {
    Status status = SpawnWorker(slot);
    if (!status.ok()) {
      // Tear the partial fleet down so a failed Start leaks no children.
      for (WorkerProc& w : workers_) {
        if (!w.live) continue;
        w.channel.Close();
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, nullptr, 0);
        w.live = false;
      }
      workers_.clear();
      return status;
    }
  }
  started_ = true;
  return Status::Ok();
}

void Supervisor::Shutdown() {
  MutexLock lock(mu_);
  for (WorkerProc& w : workers_) {
    if (!w.live) continue;
    // Best-effort graceful exit; a dead worker just fails the send.
    Reply reply;
    (void)w.channel.Call(FrameType::kShutdown, std::string(), &reply);
    w.channel.Close();
    ::waitpid(w.pid, nullptr, 0);
    w.live = false;
  }
  workers_.clear();
  started_ = false;
}

Status Supervisor::SpawnWorker(int slot) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IoError(std::string("socketpair: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: its only link to the world is its end of the socketpair.
    // Close the parent end and every other worker's supervisor-side
    // channel we inherited, so a sibling's EOF detection still works.
    ::close(fds[0]);
    for (WorkerProc& w : workers_) w.channel.Close();
    {
      FrameChannel channel(fds[1]);
      Worker worker;
      (void)Serve(&worker, &channel);
    }
    // _exit, not exit: the child shares the parent's atexit state and
    // must not run its destructors/flushes.
    ::_exit(0);
  }
  ::close(fds[1]);
  WorkerProc& proc = workers_[static_cast<size_t>(slot)];
  proc.pid = pid;
  proc.channel = FrameChannel(fds[0]);
  proc.live = true;
  // Hello exchange: a protocol mismatch fails fast with a named reason.
  Reply reply;
  Status status = proc.channel.Call(FrameType::kHello,
                                    EncodeHello(HelloPayload{}), &reply);
  if (!status.ok()) return status;
  return reply.status;
}

Status Supervisor::RecoverWorker(int slot) {
  WorkerProc& proc = workers_[static_cast<size_t>(slot)];
  if (proc.live) {
    // The channel reported kIoError; whatever state the process is in,
    // make "dead" true before reaping so waitpid cannot hang.
    ::kill(proc.pid, SIGKILL);
    ::waitpid(proc.pid, nullptr, 0);
    proc.channel.Close();
    proc.live = false;
  }
  Status status = SpawnWorker(slot);
  if (!status.ok()) return status;
  ++restarts_;
  // Restore every session homed on this slot, in name order (sessions_
  // is an ordered map) so recovery is deterministic. Each session comes
  // back from its seed, then its journal — the mutating requests acked
  // since that point — replays with the replies' pairs DISCARDED: those
  // pairs were already delivered, and this discard is what makes
  // failover exactly-once.
  for (auto& [name, rec] : sessions_) {
    if (rec.worker != slot) continue;
    RestoreRequest req;
    req.name = name;
    req.config = rec.config;
    req.checkpoint = SeedCheckpoint(rec);
    Reply reply;
    status = proc.channel.Call(FrameType::kRestore, EncodeRestore(req), &reply);
    if (!status.ok()) return status;
    if (!reply.status.ok()) {
      return Status::Internal("failover restore of session '" + name +
                              "' failed: " + reply.status.message());
    }
    status = ReplayAsBatches(&proc.channel, name, rec.journal);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status Supervisor::ReplayAsBatches(FrameChannel* channel,
                                   const std::string& name,
                                   const std::deque<JournalOp>& journal) {
  // A batch payload is at most its ops' payload bytes + 4 (one name and a
  // count instead of one name per op), so a chunk of at most half a frame
  // fits one frame. A chunk of one op goes verbatim, whatever its size.
  constexpr size_t kChunkBytes = kMaxFramePayload / 2;
  auto op = journal.begin();
  while (op != journal.end()) {
    const auto first = op;
    PushBatchRequest batch;
    batch.name = name;
    uint64_t accepted = 0;
    size_t bytes = 0;
    for (; op != journal.end() &&
           (bytes == 0 || bytes + op->payload.size() <= kChunkBytes);
         ++op) {
      bytes += op->payload.size();
      accepted += op->accepted;
      if (op->type == FrameType::kPush) {
        PushRequest req;
        Status status = DecodePush(op->payload, &req);
        if (!status.ok()) return status;
        batch.items.push_back({0, req.ts, std::move(req.vec)});
      } else if (op->type == FrameType::kPushBatch) {
        PushBatchRequest req;
        Status status = DecodePushBatch(op->payload, &req);
        if (!status.ok()) return status;
        for (auto& item : req.items) batch.items.push_back(std::move(item));
      }  // kFlush: a no-op on an STR engine (an MB journal holds none)
    }
    if (batch.items.empty()) continue;
    Reply reply;
    Status status =
        std::next(first) == op
            ? channel->Call(first->type, first->payload, &reply)
            : channel->Call(FrameType::kPushBatch, EncodePushBatch(batch),
                            &reply);
    if (!status.ok()) return status;
    if (!reply.status.ok() || reply.accepted != accepted) {
      return Status::Internal(
          "failover replay for session '" + name + "' failed: " +
          (reply.status.ok() ? "it accepted " + std::to_string(reply.accepted) +
                                   " items, not " + std::to_string(accepted)
                             : std::string(reply.status.message())));
    }
    // reply.pairs dropped on the floor: acked = already delivered.
  }
  return Status::Ok();
}

Status Supervisor::CallWorker(int slot, FrameType type,
                              const std::string& payload, Reply* reply) {
  if (!started_) {
    return Status::FailedPrecondition("the supervisor is not started");
  }
  Status status =
      workers_[static_cast<size_t>(slot)].channel.Call(type, payload, reply);
  if (status.ok()) return status;
  if (status.code() != StatusCode::kIoError) return status;
  // Transport failure = worker death. Refork, restore, replay — then
  // retry the in-flight request exactly once (it was never journaled,
  // so the recovery did not re-run it).
  status = RecoverWorker(slot);
  if (!status.ok()) return status;
  return workers_[static_cast<size_t>(slot)].channel.Call(type, payload,
                                                          reply);
}

void Supervisor::JournalOpLocked(SessionRec* rec, FrameType type,
                                 std::string payload, uint64_t accepted,
                                 Timestamp newest_ts) {
  const bool mini_batch = rec->config.framework == Framework::kMiniBatch;
  if (mini_batch && type == FrameType::kFlush) {
    // An MB Flush empties the core and restarts its clock: no earlier op
    // shapes future output, and a not-started zero-item seed is the core
    // the Flush left.
    rec->journal.clear();
    rec->seed_started = false;
    rec->seed_clock = 0.0;
    return;
  }
  rec->journal.push_back(
      JournalOp{type, std::move(payload), rec->next_id, accepted, newest_ts});
  if (accepted > 0) {
    rec->next_id += accepted;
    rec->newest_ts = newest_ts;
  }
  // Drop the leading ops that no longer shape future output. STR: items
  // OutsideHorizon of the newest accepted ts can never pair with a later
  // arrival (time order). MB: items in windows below the newest item's
  // previous one were closed out of the core, and their pairs emitted.
  // An op with no accepted items (an STR flush, an all-rejected batch)
  // left the engine as it was. At λ = 0 τ is infinite and no item falls
  // outside it (MB: everything is one window): only such zero-item ops
  // drop, and the journal holds every op since the seed.
  auto expired = [rec, mini_batch](Timestamp ts) {
    return mini_batch ? MbWindowIndex(ts, rec->tau) <
                            MbWindowIndex(rec->newest_ts, rec->tau) - 1.0
                      : OutsideHorizon(ts, rec->newest_ts, rec->tau);
  };
  while (!rec->journal.empty()) {
    const JournalOp& front = rec->journal.front();
    if (front.accepted > 0) {
      if (!expired(front.newest_ts)) break;
      rec->seed_started = true;
      rec->seed_clock = front.newest_ts;
    }
    rec->journal.pop_front();
  }
}

std::string Supervisor::SeedCheckpoint(const SessionRec& rec) {
  // The engine a restore of the kept ops' items would build, before
  // those items replay: no live items, the id counter at the first kept
  // op, the clock the seed was taken at (after a trim, the newest dropped
  // item: the last accepted ts before that op, so the replay re-derives
  // every reject), and nothing below the first kept id left to report.
  CheckpointHeader header;
  header.framework = rec.config.framework;
  header.scheme = rec.config.index;
  header.theta = rec.config.theta;
  header.lambda = rec.config.lambda;
  header.next_id =
      rec.journal.empty() ? rec.next_id : rec.journal.front().first_id;
  header.last_ts = rec.seed_clock;
  header.started = rec.seed_started;
  header.watermark = header.next_id;
  std::ostringstream os;
  (void)WriteCheckpoint(header, Stream(), os);  // a string stream: no I/O
  return std::move(os).str();
}

Status Supervisor::CreateSession(const std::string& name,
                                 const WireConfig& config) {
  MutexLock lock(mu_);
  if (sessions_.count(name) != 0) {
    return Status::AlreadyExists("a session named '" + name +
                                 "' already exists");
  }
  SessionRec rec;
  rec.config = config;
  DecayParams params;
  if (DecayParams::Make(config.theta, config.lambda, &params)) {
    rec.tau = params.tau;  // the engine's own τ, bit for bit
  }
  rec.worker = RendezvousOwner(name, options_.num_workers);
  CreateSessionRequest req;
  req.name = name;
  req.config = config;
  Reply reply;
  Status status = CallWorker(rec.worker, FrameType::kCreateSession,
                             EncodeCreateSession(req), &reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status;
  sessions_.emplace(name, std::move(rec));
  return Status::Ok();
}

Status Supervisor::Push(const std::string& name, Timestamp ts,
                        const SparseVector& vec,
                        std::vector<ResultPair>* pairs) {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NoSession(name);
  std::string payload = EncodePush(name, ts, vec);
  Reply reply;
  Status status =
      CallWorker(it->second.worker, FrameType::kPush, payload, &reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status;  // rejected = no mutation
  if (pairs != nullptr) {
    pairs->insert(pairs->end(), reply.pairs.begin(), reply.pairs.end());
  }
  JournalOpLocked(&it->second, FrameType::kPush, std::move(payload),
                  /*accepted=*/1, ts);
  return Status::Ok();
}

StatusOr<BatchPushResult> Supervisor::PushBatch(const std::string& name,
                                                const Stream& batch,
                                                std::vector<ResultPair>* pairs) {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NoSession(name);
  std::string payload = EncodePushBatch(name, batch);
  Reply reply;
  Status status =
      CallWorker(it->second.worker, FrameType::kPushBatch, payload, &reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status;
  if (pairs != nullptr) {
    pairs->insert(pairs->end(), reply.pairs.begin(), reply.pairs.end());
  }
  BatchPushResult result;
  result.accepted = reply.accepted;
  result.rejects = std::move(reply.rejects);
  // The newest accepted item is the last one the rejects (ascending by
  // index) do not name.
  Timestamp newest_ts = 0.0;
  auto reject = result.rejects.rbegin();
  for (size_t i = batch.size(); i-- > 0;) {
    if (reject != result.rejects.rend() && reject->index == i) {
      ++reject;
      continue;
    }
    newest_ts = batch[i].ts;
    break;
  }
  // Journal even a partially-rejected batch: the accepted items mutated
  // the engine, and a replay re-derives the same rejects.
  JournalOpLocked(&it->second, FrameType::kPushBatch, std::move(payload),
                  result.accepted, newest_ts);
  return result;
}

Status Supervisor::Flush(const std::string& name,
                         std::vector<ResultPair>* pairs) {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NoSession(name);
  NameRequest req;
  req.name = name;
  std::string payload = EncodeName(req);
  Reply reply;
  Status status =
      CallWorker(it->second.worker, FrameType::kFlush, payload, &reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status;
  if (pairs != nullptr) {
    pairs->insert(pairs->end(), reply.pairs.begin(), reply.pairs.end());
  }
  // An STR Flush journals like a push; an MB Flush, which empties the
  // core, becomes the restore point.
  JournalOpLocked(&it->second, FrameType::kFlush, std::move(payload),
                  /*accepted=*/0, 0.0);
  return Status::Ok();
}

Status Supervisor::CloseSession(const std::string& name,
                                std::vector<ResultPair>* pairs) {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NoSession(name);
  NameRequest req;
  req.name = name;
  Reply reply;
  Status status = CallWorker(it->second.worker, FrameType::kCloseSession,
                             EncodeName(req), &reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status;
  if (pairs != nullptr) {
    pairs->insert(pairs->end(), reply.pairs.begin(), reply.pairs.end());
  }
  sessions_.erase(it);
  return Status::Ok();
}

StatusOr<SessionWireStats> Supervisor::SessionStats(const std::string& name) {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NoSession(name);
  NameRequest req;
  req.name = name;
  Reply reply;
  Status status =
      CallWorker(it->second.worker, FrameType::kStats, EncodeName(req), &reply);
  if (!status.ok()) return status;
  if (!reply.status.ok()) return reply.status;
  SessionWireStats stats;
  status = DecodeSessionStats(reply.blob, &stats);
  if (!status.ok()) return status;
  return stats;
}

Status Supervisor::Migrate(const std::string& name, int target) {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NoSession(name);
  if (target < 0 || target >= options_.num_workers) {
    return Status::OutOfRange("worker slot " + std::to_string(target) +
                              " is outside the fleet of " +
                              std::to_string(options_.num_workers));
  }
  SessionRec& rec = it->second;
  if (rec.worker == target) return Status::Ok();
  const int source = rec.worker;

  // Step 1: checkpoint-and-destroy at the source. MigrateOut does NOT
  // flush — pairs pending in MB windows travel inside the checkpoint
  // bytes and emit at the destination, never twice.
  NameRequest out_req;
  out_req.name = name;
  Reply out_reply;
  Status status = CallWorker(source, FrameType::kMigrateOut,
                             EncodeName(out_req), &out_reply);
  if (!status.ok()) return status;
  if (!out_reply.status.ok()) return out_reply.status;

  // Commit the move before the restore call: if the target dies mid-
  // restore, RecoverWorker (keyed on rec.worker == target) replants the
  // session from its seed and journal, the same state these bytes hold,
  // and the retried restore simply reports kAlreadyExists.
  rec.worker = target;

  RestoreRequest in_req;
  in_req.name = name;
  in_req.config = rec.config;
  in_req.checkpoint = std::move(out_reply.blob);
  Reply in_reply;
  status =
      CallWorker(target, FrameType::kRestore, EncodeRestore(in_req), &in_reply);
  if (!status.ok()) return status;
  if (in_reply.status.ok() ||
      in_reply.status.code() == StatusCode::kAlreadyExists) {
    return Status::Ok();
  }
  // The destination refused the bytes (should be impossible for a
  // checkpoint we just took). Put the session back where it was so it
  // is not stranded nowhere.
  rec.worker = source;
  Reply back_reply;
  Status back = CallWorker(source, FrameType::kRestore, EncodeRestore(in_req),
                           &back_reply);
  if (!back.ok() ||
      (!back_reply.status.ok() &&
       back_reply.status.code() != StatusCode::kAlreadyExists)) {
    return Status::Internal(
        "migration of '" + name + "' failed (" + in_reply.status.message() +
        ") and the rollback to the source worker also failed");
  }
  return in_reply.status;
}

StatusOr<int> Supervisor::OwnerOf(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NoSession(name);
  return it->second.worker;
}

uint64_t Supervisor::restarts() const {
  MutexLock lock(mu_);
  return restarts_;
}

StatusOr<Supervisor::JournalInfo> Supervisor::journal_info(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NoSession(name);
  JournalInfo info;
  info.ops = it->second.journal.size();
  return info;
}

StatusOr<pid_t> Supervisor::worker_pid(int slot) const {
  MutexLock lock(mu_);
  if (slot < 0 || slot >= static_cast<int>(workers_.size())) {
    return Status::OutOfRange("worker slot " + std::to_string(slot) +
                              " is outside the fleet");
  }
  return workers_[static_cast<size_t>(slot)].pid;
}

// ---- ClusterClient ----

ClusterClient::ClusterClient(const JoinServiceOptions& options)
    : worker_(std::make_unique<Worker>(WorkerOptions{options})) {}

ClusterClient::ClusterClient(Supervisor* supervisor)
    : supervisor_(supervisor) {}

ClusterClient::~ClusterClient() = default;

Status ClusterClient::CreateSession(const std::string& name,
                                    const WireConfig& config) {
  if (supervisor_ != nullptr) return supervisor_->CreateSession(name, config);
  return worker_->CreateSession(name, config);
}

Status ClusterClient::Push(const std::string& name, Timestamp ts,
                           const SparseVector& vec,
                           std::vector<ResultPair>* pairs) {
  if (supervisor_ != nullptr) return supervisor_->Push(name, ts, vec, pairs);
  return worker_->Push(name, ts, vec, pairs);
}

StatusOr<BatchPushResult> ClusterClient::PushBatch(
    const std::string& name, const Stream& batch,
    std::vector<ResultPair>* pairs) {
  if (supervisor_ != nullptr) {
    return supervisor_->PushBatch(name, batch, pairs);
  }
  return worker_->PushBatch(name, batch, pairs);
}

Status ClusterClient::Flush(const std::string& name,
                            std::vector<ResultPair>* pairs) {
  if (supervisor_ != nullptr) return supervisor_->Flush(name, pairs);
  return worker_->Flush(name, pairs);
}

Status ClusterClient::CloseSession(const std::string& name,
                                   std::vector<ResultPair>* pairs) {
  if (supervisor_ != nullptr) return supervisor_->CloseSession(name, pairs);
  return worker_->CloseSession(name, pairs);
}

StatusOr<SessionWireStats> ClusterClient::SessionStats(
    const std::string& name) {
  if (supervisor_ != nullptr) return supervisor_->SessionStats(name);
  return worker_->SessionStats(name);
}

}  // namespace cluster
}  // namespace sssj
