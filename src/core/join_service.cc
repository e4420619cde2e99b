#include "core/join_service.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/sinks.h"

namespace sssj {

namespace {

// ---- spill manifest format (version 1) ----
//
//   SSSJSPILL 1
//   name_hex=<lowercase hex of the session name bytes>
//   checkpoint=<checkpoint filename, relative to the spill dir>
//
// The session name is hex-encoded because it is user-controlled (it may
// contain '=', '\n', anything); the checkpoint filename is generated by
// this file and needs no escaping.
constexpr char kSpillMagicLine[] = "SSSJSPILL 1";
constexpr char kSpillPrefix[] = "sssj-spill-";
constexpr char kSpillManifestSuffix[] = ".manifest";
constexpr char kSpillCheckpointSuffix[] = ".ckpt";

std::string HexEncode(const std::string& raw) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size() * 2);
  for (const char c : raw) {
    const uint8_t b = static_cast<uint8_t>(c);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::string* raw) {
  if (hex.size() % 2 != 0) return false;
  raw->clear();
  raw->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int value = 0;
    for (int k = 0; k < 2; ++k) {
      const char c = hex[i + k];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= c - '0';
      } else if (c >= 'a' && c <= 'f') {
        value |= c - 'a' + 10;
      } else {
        return false;
      }
    }
    raw->push_back(static_cast<char>(value));
  }
  return true;
}

uint64_t Fnv64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Filesystem-safe stem unique per session name: full hex for short
// names; a hex prefix plus the full-name hash for pathological ones
// (filenames must stay under the typical 255-byte component limit).
std::string SpillStem(const std::string& name) {
  if (name.size() <= 100) return std::string(kSpillPrefix) + HexEncode(name);
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(Fnv64(name)));
  return std::string(kSpillPrefix) + HexEncode(name.substr(0, 50)) + "-" +
         hash_hex;
}

// The manifest always sits next to its checkpoint with the same stem.
std::string ManifestFor(const std::string& checkpoint_path) {
  const size_t suffix_len = sizeof(kSpillCheckpointSuffix) - 1;
  return checkpoint_path.substr(0, checkpoint_path.size() - suffix_len) +
         kSpillManifestSuffix;
}

// Writes the version-1 manifest; on failure the caller deletes the
// checkpoint so no orphaned state file survives.
Status WriteSpillManifest(const std::string& manifest_path,
                          const std::string& session_name,
                          const std::string& checkpoint_filename) {
  std::ofstream os(manifest_path, std::ios::trunc);
  if (!os) {
    return Status::IoError("cannot open spill manifest for writing: " +
                           manifest_path);
  }
  os << kSpillMagicLine << "\n";
  os << "name_hex=" << HexEncode(session_name) << "\n";
  os << "checkpoint=" << checkpoint_filename << "\n";
  os.flush();
  if (!os) {
    return Status::IoError("short write to spill manifest: " + manifest_path);
  }
  return Status::Ok();
}

// Parses a version-1 manifest. A malformed or unknown-version file is a
// failed parse, not a crash: the spill dir may be shared with other
// processes or hold leftovers from a future format.
bool ParseSpillManifest(const std::string& manifest_path, std::string* name,
                        std::string* checkpoint_filename) {
  std::ifstream is(manifest_path);
  if (!is) return false;
  std::string magic;
  if (!std::getline(is, magic) || magic != kSpillMagicLine) return false;
  std::string line;
  if (!std::getline(is, line) || line.rfind("name_hex=", 0) != 0) return false;
  if (!HexDecode(line.substr(sizeof("name_hex=") - 1), name)) return false;
  if (name->empty()) return false;
  if (!std::getline(is, line) || line.rfind("checkpoint=", 0) != 0) {
    return false;
  }
  *checkpoint_filename = line.substr(sizeof("checkpoint=") - 1);
  // The filename is generated by SpillStem, never user-controlled; refuse
  // anything with a path separator so a doctored manifest cannot point the
  // restore at a file outside the spill dir.
  if (checkpoint_filename->empty() ||
      checkpoint_filename->find('/') != std::string::npos) {
    return false;
  }
  return true;
}

}  // namespace

JoinService::JoinService(const Options& options) : options_(options) {
  if (options_.num_threads > 1) {
    pool_ = std::make_shared<ThreadPool>(options_.num_threads);
  }
}

JoinService::~JoinService() = default;

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
  std::remove(ManifestFor(session->spill_path).c_str());
  std::remove(session->spill_path.c_str());
  session->evicted = false;
  session->spill_path.clear();
  session->mem_bytes.store(session->engine->MemoryBytes(),
                           std::memory_order_relaxed);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status JoinService::EvictLocked(Session* victim) {
  // The filename is derived from the session *name*, not the per-instance
  // registry id, and a manifest records the mapping — so a different
  // JoinService instance (after a restart, or a supervisor restoring a
  // dead worker's sessions) can enumerate the spill dir and re-adopt the
  // state via ListSpilled/RestoreSession.
  const std::string stem = SpillStem(victim->name);
  const std::string path =
      options_.spill_dir + "/" + stem + kSpillCheckpointSuffix;
  Status status = victim->engine->SaveCheckpoint(path);
  if (!status.ok()) return status;
  status = WriteSpillManifest(options_.spill_dir + "/" + stem +
                                  kSpillManifestSuffix,
                              victim->name, stem + kSpillCheckpointSuffix);
  if (!status.ok()) {
    std::remove(path.c_str());
    return status;
  }
  // Swap in a fresh empty engine of the same config; LoadCheckpoint on
  // reload restores the id counter and stream clock along with the index.
  StatusOr<std::unique_ptr<SssjEngine>> fresh =
      SssjEngine::Make(victim->config, victim->bound_sink);
  if (!fresh.ok()) {
    std::remove(ManifestFor(path).c_str());
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
    // applying an epoch concurrently with our teardown below.
    session->async_engine->Drain();
    ingest_pump_->Unregister(session->pump_registration);
  }
  MutexLock lock(session->mu);
  if (session->evicted) {
    // The caller has its own copy of the state (that is the contract of
    // Abandon); the spilled one is garbage, not something to restore.
    std::remove(ManifestFor(session->spill_path).c_str());
    std::remove(session->spill_path.c_str());
    session->evicted = false;
    session->spill_path.clear();
  }
  // Deliberately no Flush: pairs still pending in MB windows travel
  // inside the checkpoint the caller took and emit at the destination;
  // flushing here would emit them a second time at the source.
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
                                   const std::string& path) const {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  // An evicted session must reload first, or we would checkpoint the
  // fresh empty stand-in engine.
  Status resident = EnsureResident(session.get());
  if (!resident.ok()) return resident;
  return session->engine->SaveCheckpoint(path);
}

Status JoinService::LoadCheckpoint(SessionHandle handle,
                                   const std::string& path) {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  if (session->evicted) {
    // The caller is replacing the session's state wholesale; the spilled
    // copy is dead either way.
    std::remove(ManifestFor(session->spill_path).c_str());
    std::remove(session->spill_path.c_str());
    session->evicted = false;
    session->spill_path.clear();
  }
  Status status = session->engine->LoadCheckpoint(path);
  if (status.ok()) NoteActivity(session.get());
  return status;
}

Status JoinService::SaveCheckpoint(SessionHandle handle,
                                   std::ostream& os) const {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  Status resident = EnsureResident(session.get());
  if (!resident.ok()) return resident;
  return session->engine->SaveCheckpoint(os);
}

Status JoinService::LoadCheckpoint(SessionHandle handle, std::istream& is) {
  std::shared_ptr<Session> session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  if (session->evicted) {
    std::remove(ManifestFor(session->spill_path).c_str());
    std::remove(session->spill_path.c_str());
    session->evicted = false;
    session->spill_path.clear();
  }
  Status status = session->engine->LoadCheckpoint(is);
  if (status.ok()) NoteActivity(session.get());
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

StatusOr<std::vector<JoinService::SpillEntry>> JoinService::ListSpilled(
    const std::string& spill_dir) {
  if (spill_dir.empty()) {
    return Status::InvalidArgument("spill_dir must be non-empty");
  }
  DIR* dir = ::opendir(spill_dir.c_str());
  if (dir == nullptr) {
    return Status::IoError("cannot open spill dir: " + spill_dir);
  }
  std::vector<SpillEntry> entries;
  const std::string prefix = kSpillPrefix;
  const std::string suffix = kSpillManifestSuffix;
  for (dirent* ent = ::readdir(dir); ent != nullptr; ent = ::readdir(dir)) {
    const std::string filename = ent->d_name;
    if (filename.size() <= prefix.size() + suffix.size()) continue;
    if (filename.compare(0, prefix.size(), prefix) != 0) continue;
    if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
      continue;
    }
    const std::string manifest_path = spill_dir + "/" + filename;
    SpillEntry entry;
    std::string checkpoint_filename;
    // Unreadable / malformed / future-version manifests are skipped, not
    // errors: the scan must tolerate leftovers and concurrent writers.
    if (!ParseSpillManifest(manifest_path, &entry.name,
                            &checkpoint_filename)) {
      continue;
    }
    entry.manifest_path = manifest_path;
    entry.checkpoint_path = spill_dir + "/" + checkpoint_filename;
    entries.push_back(std::move(entry));
  }
  ::closedir(dir);
  std::sort(entries.begin(), entries.end(),
            [](const SpillEntry& a, const SpillEntry& b) {
              return a.name < b.name;
            });
  return entries;
}

StatusOr<JoinService::SessionHandle> JoinService::RestoreSession(
    SessionOptions options, const std::string& checkpoint_path) {
  StatusOr<SessionHandle> handle = CreateSession(std::move(options));
  if (!handle.ok()) return handle.status();
  Status loaded = LoadCheckpoint(*handle, checkpoint_path);
  if (!loaded.ok()) {
    // The half-born session holds no state worth keeping; drop it so the
    // caller sees a clean failure, not a stray empty session.
    AbandonSession(*handle);
    return loaded;
  }
  return handle;
}

void JoinService::RemoveSpill(const SpillEntry& entry) {
  std::remove(entry.checkpoint_path.c_str());
  std::remove(entry.manifest_path.c_str());
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
