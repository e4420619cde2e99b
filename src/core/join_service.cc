#include "core/join_service.h"

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "core/sinks.h"

namespace sssj {

JoinService::JoinService(const Options& options) : options_(options) {
  if (options_.num_threads > 1) {
    pool_ = std::make_shared<ThreadPool>(options_.num_threads);
  }
}

JoinService::~JoinService() = default;

JoinService::Session::~Session() {
  if (evicted) std::remove(spill_path.c_str());
}

Status JoinService::UnknownSession() {
  return Status::NotFound("unknown or closed session handle");
}

void JoinService::NoteActivity(Session* session) const {
  session->mem_bytes.store(session->engine->MemoryBytes(),
                           std::memory_order_relaxed);
  session->last_active.store(
      activity_clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
}

RunStats JoinService::CountersLocked(const Session* session) {
  RunStats stats = session->engine->stats();
  stats.vectors_processed += session->carried_vectors;
  stats.pairs_emitted += session->carried_pairs;
  return stats;
}

Status JoinService::EnsureResident(Session* session) const {
  if (!session->evicted) return Status::Ok();
  // A reload replays the checkpoint's live items through a fresh
  // core, which counts them (and the pairs among them) again; only the
  // pairs the replay actually delivers — pending MB pairs — are new to
  // the session. Count those on the way to the session's sink.
  CountingSink delivered;
  TeeSink tee{session->bound_sink, &delivered};
  session->engine->BindSink(&tee);
  Status status = session->engine->LoadCheckpoint(session->spill_path);
  session->engine->BindSink(session->bound_sink);
  if (!status.ok()) return status;
  const RunStats& replayed = session->engine->stats();
  session->carried_vectors -= replayed.vectors_processed;
  session->carried_pairs -= replayed.pairs_emitted - delivered.count();
  DropSpill(session);
  session->mem_bytes.store(session->engine->MemoryBytes(),
                           std::memory_order_relaxed);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void JoinService::DropSpill(Session* session) {
  std::remove(session->spill_path.c_str());
  session->evicted = false;
  session->spill_path.clear();
}

Status JoinService::EvictLocked(Session* victim) {
  // One private file per eviction: mkstemp creates it under a fresh name,
  // so no session name reaches the path, and no other service sharing the
  // directory can write over it.
  std::string path = options_.spill_dir + "/sssj-spill-XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) {
    return Status::IoError("cannot create a spill file in " +
                           options_.spill_dir + ": " + std::strerror(errno));
  }
  ::close(fd);
  Status status = victim->engine->SaveCheckpoint(path);
  if (!status.ok()) {
    std::remove(path.c_str());
    return status;
  }
  // Swap in a fresh empty engine of the same config; LoadCheckpoint on
  // reload restores the id counter and stream clock along with the index.
  StatusOr<std::unique_ptr<SssjEngine>> fresh =
      SssjEngine::Make(victim->config, victim->bound_sink);
  if (!fresh.ok()) {
    std::remove(path.c_str());
    return fresh.status();
  }
  const RunStats& spilled = victim->engine->stats();
  victim->carried_vectors += spilled.vectors_processed;
  victim->carried_pairs += spilled.pairs_emitted;
  victim->engine = *std::move(fresh);
  victim->evicted = true;
  victim->spill_path = path;
  victim->mem_bytes.store(victim->engine->MemoryBytes(),
                          std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status JoinService::EnforceBudget(Session* current) {
  if (options_.memory_budget_bytes == 0) return Status::Ok();
  auto total_now = [this]() SSSJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    size_t total = 0;
    for (const auto& [id, session] : sessions_) {
      total += session->mem_bytes.load(std::memory_order_relaxed);
    }
    return total;
  };
  size_t total = total_now();
  if (total <= options_.memory_budget_bytes) return Status::Ok();

  if (!options_.spill_dir.empty()) {
    std::vector<std::shared_ptr<Session>> victims;
    {
      MutexLock lock(mu_);
      victims.reserve(sessions_.size());
      for (const auto& [id, session] : sessions_) {
        if (session.get() != current) victims.push_back(session);
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const std::shared_ptr<Session>& a,
                 const std::shared_ptr<Session>& b) {
                return a->last_active.load(std::memory_order_relaxed) <
                       b->last_active.load(std::memory_order_relaxed);
              });
    for (const auto& victim : victims) {
      if (total <= options_.memory_budget_bytes) break;
      // TryLock, never a blocking lock: the caller already holds
      // current->mu, and a session whose lock is contended is mid-push —
      // i.e. not dormant — so skipping it is also the right policy call.
      if (!victim->mu.TryLock()) continue;
      MutexLock vl(victim->mu, std::adopt_lock);
      // Async sessions are never evicted: the pump holds their engine.
      if (victim->closed.load(std::memory_order_acquire) ||
          victim->evicted || victim->async_engine != nullptr) {
        continue;
      }
      if (EvictLocked(victim.get()).ok()) total = total_now();
    }
  }
  if (total > options_.memory_budget_bytes) {
    budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "service memory budget exceeded: " + std::to_string(total) +
        " resident bytes against a budget of " +
        std::to_string(options_.memory_budget_bytes) +
        (options_.spill_dir.empty()
             ? " (eviction disabled: no spill_dir configured)"
             : " (no evictable dormant session left)"));
  }
  return Status::Ok();
}

StatusOr<JoinService::SessionHandle> JoinService::CreateSession(
    SessionOptions options) {
  if (options.name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  // Build the engine outside the registry lock: engine construction may
  // spawn a private pool, and a rejected config must not disturb the map.
  EngineConfig config = options.engine;
  if (pool_ != nullptr && config.num_threads > 1) {
    config.pool = pool_;
  }
  // Async sessions share the service's single pump thread instead of each
  // spawning their own.
  const bool async = config.ingest.mode == IngestMode::kAsync;
  if (async) config.ingest.external_pump = true;
  ResultSink* sink =
      options.sink != nullptr ? options.sink : options.owned_sink.get();
  StatusOr<std::unique_ptr<SssjEngine>> engine = SssjEngine::Make(config, sink);
  if (!engine.ok()) return engine.status();

  auto session = std::make_shared<Session>();
  session->name = options.name;
  {
    // No other thread can see the session until the registry insert below,
    // so initializing its mu-guarded fields without the lock would be
    // benign — but the uncontended lock costs nothing and keeps the
    // annotations assumption-free. Scoped tightly: it must not be held
    // across Register below, whose apply callback takes the same lock.
    MutexLock init_lock(session->mu);
    session->engine = *std::move(engine);
    if (async) session->async_engine = session->engine.get();
    session->mem_bytes.store(session->engine->MemoryBytes(),
                             std::memory_order_relaxed);
  }
  session->owned_sink = std::move(options.owned_sink);
  session->config = config;  // resolved (pool/external_pump applied)
  session->bound_sink = sink;
  session->last_active.store(
      activity_clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);

  if (async) {
    {
      MutexLock lock(mu_);
      if (by_name_.count(options.name) != 0) {
        return Status::AlreadyExists("a session named '" + options.name +
                                     "' already exists");
      }
      if (ingest_pump_ == nullptr) {
        ingest_pump_ = std::make_unique<IngestPump>();
      }
    }
    // Register before the session enters the registry, so every session a
    // racing CloseSession can find already carries its registration. The
    // apply callback runs on the pump thread under the session lock — the
    // same serialization every other per-session call uses — so an epoch
    // application and, say, a Flush can never interleave. The captured
    // shared_ptr keeps the session alive even mid-close.
    session->pump_registration = ingest_pump_->Register(
        session->async_engine->ingest_queue(),
        [session](Stream&& epoch, uint64_t first_ticket) {
          MutexLock lock(session->mu);
          session->engine->ApplyEpoch(std::move(epoch), first_ticket);
        });
  }

  MutexLock lock(mu_);
  if (by_name_.count(options.name) != 0) {
    // Lost a naming race between the pre-check and here; undo the pump
    // registration (the pump holds the session alive otherwise).
    if (session->pump_registration != 0) {
      ingest_pump_->Unregister(session->pump_registration);
    }
    return Status::AlreadyExists("a session named '" + options.name +
                                 "' already exists");
  }
  const uint64_t id = next_id_++;
  session->id = id;
  sessions_.emplace(id, std::move(session));
  by_name_.emplace(options.name, id);
  return SessionHandle(id);
}

StatusOr<JoinService::SessionHandle> JoinService::FindSession(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no session named '" + name + "'");
  }
  return SessionHandle(it->second);
}

std::shared_ptr<JoinService::Session> JoinService::Lookup(
    SessionHandle handle) const {
  if (!handle.valid()) return nullptr;
  MutexLock lock(mu_);
  auto it = sessions_.find(handle.id_);
  return it == sessions_.end() ? nullptr : it->second;
}

Status JoinService::CloseSession(SessionHandle handle) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(handle.id_);
    if (it == sessions_.end()) return UnknownSession();
    session = it->second;
    sessions_.erase(it);
    by_name_.erase(session->name);
  }
  // The registry no longer hands the session out, but a racing call that
  // looked it up before the erase may still hold it; `closed` makes that
  // race a clean kNotFound instead of a push into a flushed engine. Set it
  // before draining so late AsyncPush racers are refused, not stranded.
  session->closed.store(true, std::memory_order_release);
  if (session->pump_registration != 0) {
    // Apply everything already submitted (no locks held here — the pump
    // needs the session lock to apply), then detach from the pump so it
    // never touches this session again. pump_registration stays set: it is
    // immutable by contract (AsyncPush reads it lock-free), and the
    // registry erase above guarantees this teardown runs at most once.
    session->async_engine->Drain();
    ingest_pump_->Unregister(session->pump_registration);
  }
  MutexLock lock(session->mu);
  // An evicted session reloads before its final flush: MB sessions can
  // have pairs pending in the spilled window state, and flushing the
  // empty stand-in engine would silently drop them. (For STR spills the
  // flush is a no-op either way.)
  Status resident = EnsureResident(session.get());
  if (!resident.ok()) return resident;
  session->engine->Flush();
  return Status::Ok();
}

Status JoinService::AbandonSession(SessionHandle handle) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(handle.id_);
    if (it == sessions_.end()) return UnknownSession();
    session = it->second;
    sessions_.erase(it);
    by_name_.erase(session->name);
  }
  session->closed.store(true, std::memory_order_release);
  if (session->pump_registration != 0) {
    // Same teardown order as CloseSession: apply what was already
    // submitted, then detach. Skipping the drain would risk the pump
    // applying an epoch concurrently with the teardown.
    session->async_engine->Drain();
    ingest_pump_->Unregister(session->pump_registration);
  }
  // Deliberately no Flush: pairs still pending in MB windows travel
  // inside the checkpoint the caller took and emit at the destination;
  // flushing here would emit them a second time at the source. The
  // caller has its own copy of the state (that is the contract of
  // Abandon), so a spill is garbage: ~Session deletes it.
  return Status::Ok();
}

Status JoinService::Push(SessionHandle handle, Timestamp ts, SparseVector vec) {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  Status budget = EnforceBudget(session.get());
  if (!budget.ok()) return budget;
  Status resident = EnsureResident(session.get());
  if (!resident.ok()) return resident;
  Status result = session->engine->Push(ts, std::move(vec));
  NoteActivity(session.get());
  return result;
}

Status JoinService::AsyncPush(SessionHandle handle, Timestamp ts,
                              SparseVector vec, uint64_t* ticket) {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  // Inline sessions take the lock (their `engine` pointer can be swapped
  // by eviction; an inline AsyncPush is a kFailedPrecondition anyway).
  // Async sessions are never evicted, so their engine pointer is stable
  // and the submit path skips the session lock: it only touches the
  // session's queue (and `closed` is atomic). Taking the lock there would
  // serialize producers behind the pump's epoch applications — the exact
  // stall async mode exists to remove.
  if (session->async_engine == nullptr) {
    MutexLock lock(session->mu);
    if (session->closed) return UnknownSession();
    return session->engine->AsyncPush(ts, std::move(vec), ticket);
  }
  if (session->closed.load(std::memory_order_acquire)) {
    return UnknownSession();
  }
  return session->async_engine->AsyncPush(ts, std::move(vec), ticket);
}

Status JoinService::Drain(SessionHandle handle) {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  // Inline sessions: locked (evictable engine pointer), and Drain is an
  // immediate no-op for them. Async sessions stay lock-free — the pump
  // needs the session lock to apply epochs, so holding it here would
  // deadlock the very work Drain waits for.
  if (session->async_engine == nullptr) {
    MutexLock lock(session->mu);
    if (session->closed) return UnknownSession();
    return session->engine->Drain();
  }
  if (session->closed.load(std::memory_order_acquire)) {
    return UnknownSession();
  }
  return session->async_engine->Drain();
}

StatusOr<BatchPushResult> JoinService::PushBatch(SessionHandle handle,
                                                 const Stream& batch) {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  Status budget = EnforceBudget(session.get());
  if (!budget.ok()) return budget;
  Status resident = EnsureResident(session.get());
  if (!resident.ok()) return resident;
  BatchPushResult result = session->engine->PushBatch(batch);
  NoteActivity(session.get());
  return result;
}

Status JoinService::Flush(SessionHandle handle) {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  // As in CloseSession: an evicted MB session's pending pairs live in its
  // spill, and flushing the empty stand-in would emit none of them.
  Status resident = EnsureResident(session.get());
  if (!resident.ok()) return resident;
  session->engine->Flush();
  NoteActivity(session.get());
  return Status::Ok();
}

Status JoinService::SaveCheckpoint(SessionHandle handle,
                                   std::ostream& os) const {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  // An evicted session must reload first, or we would checkpoint the
  // fresh empty stand-in engine.
  Status resident = EnsureResident(session.get());
  if (!resident.ok()) return resident;
  return session->engine->SaveCheckpoint(os);
}

Status JoinService::LoadCheckpoint(SessionHandle handle, std::istream& is) {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  // A refused load leaves the engine as it was, and an evicted session's
  // state is still its spill; only a load that replaced the state makes
  // the spilled copy dead.
  Status status = session->engine->LoadCheckpoint(is);
  if (!status.ok()) return status;
  if (session->evicted) DropSpill(session.get());
  NoteActivity(session.get());
  return status;
}

Status JoinService::SwitchScheme(SessionHandle handle, Framework framework,
                                 IndexScheme scheme) {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  // Migrating the empty stand-in of an evicted session would orphan the
  // spilled state; bring it back first.
  Status resident = EnsureResident(session.get());
  if (!resident.ok()) return resident;
  Status result = session->engine->SwitchScheme(framework, scheme);
  NoteActivity(session.get());
  return result;
}

StatusOr<RunStats> JoinService::SessionStats(SessionHandle handle) const {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  return CountersLocked(session.get());
}

StatusOr<IngestStats> JoinService::SessionIngestStats(
    SessionHandle handle) const {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  // Inline sessions: locked, because eviction can swap the engine
  // pointer. Async sessions (never evicted): a counter snapshot under the
  // queue's own lock, no session lock needed.
  if (session->async_engine == nullptr) {
    MutexLock lock(session->mu);
    if (session->closed) return UnknownSession();
    return session->engine->ingest_stats();
  }
  if (session->closed.load(std::memory_order_acquire)) {
    return UnknownSession();
  }
  return session->async_engine->ingest_stats();
}

StatusOr<size_t> JoinService::SessionMemoryBytes(SessionHandle handle) const {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  return session->engine->MemoryBytes();
}

size_t JoinService::num_sessions() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

ServiceStats JoinService::Stats() const {
  // Snapshot the registry, then visit sessions without the registry lock
  // so pushes on other sessions keep flowing while we aggregate.
  std::vector<std::shared_ptr<Session>> snapshot;
  {
    MutexLock lock(mu_);
    snapshot.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) snapshot.push_back(session);
  }
  ServiceStats stats;
  stats.sessions_evicted = evictions_.load(std::memory_order_relaxed);
  stats.session_reloads = reloads_.load(std::memory_order_relaxed);
  stats.budget_rejections = budget_rejections_.load(std::memory_order_relaxed);
  for (const auto& session : snapshot) {
    MutexLock lock(session->mu);
    if (session->closed) continue;
    ServiceStats::SessionEntry entry;
    entry.name = session->name;
    const RunStats counters = CountersLocked(session.get());
    entry.vectors_processed = counters.vectors_processed;
    entry.pairs_emitted = counters.pairs_emitted;
    entry.memory_bytes = session->engine->MemoryBytes();
    entry.evicted = session->evicted;
    entry.ingest = session->engine->ingest_stats();
    stats.vectors_processed += entry.vectors_processed;
    stats.pairs_emitted += entry.pairs_emitted;
    stats.memory_bytes += entry.memory_bytes;
    stats.queue_depth += entry.ingest.queue_depth;
    stats.epochs_closed += entry.ingest.epochs_closed;
    stats.backpressure_rejections += entry.ingest.rejected_backpressure;
    stats.sessions.push_back(std::move(entry));
  }
  stats.num_sessions = stats.sessions.size();
  std::sort(stats.sessions.begin(), stats.sessions.end(),
            [](const ServiceStats::SessionEntry& a,
               const ServiceStats::SessionEntry& b) { return a.name < b.name; });
  return stats;
}

}  // namespace sssj
