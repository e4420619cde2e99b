// JoinService — multi-tenant session manager over SssjEngine.
//
// One process serving many users means many independent joins: each
// tenant (a user's feed, a topic, a shard of the corpus) gets a named
// *session* — its own engine with its own EngineConfig, sink chain,
// stats, id space, and memory accounting — while the service owns the
// shared machinery: one ThreadPool for every MB session's window-close
// fan-out (instead of one pool per engine) and the aggregate capacity
// view.
//
//   sssj::JoinService service({/*num_threads=*/8});
//   sssj::CollectorSink news_sink;
//   auto news = service.CreateSession({"news", news_cfg, &news_sink});
//   auto spam = service.CreateSession({"spam", spam_cfg, &spam_sink});
//   service.Push(*news, ts, vec);            // thread A
//   service.Push(*spam, ts2, vec2);          // thread B, concurrently
//   service.CloseSession(*news);             // flushes, then destroys
//
// Thread-safety: every method is safe to call from any thread. Calls on
// *distinct* sessions run concurrently (each session has its own lock;
// the registry lock is held only for the lookup). Calls on the *same*
// session are serialized by its lock — the per-session stream is a
// totally ordered sequence, exactly like a standalone engine. Output per
// session is bit-identical to a standalone engine with the same config
// fed the same stream (tested with TSan), because engines never share
// mutable state — the shared pool only lends threads, and neither pool
// size nor EngineConfig::num_threads ever affects results.
//
// Sink lifetime: a session's sink chain is bound at creation. A borrowed
// `sink` must outlive the session; an `owned_sink` chain head is adopted
// and destroyed with it. Sinks of different sessions are independent, so
// they need no locking unless the application shares one across sessions
// (then use a thread-safe sink such as ConcurrentCollectingSink).
#ifndef SSSJ_CORE_JOIN_SERVICE_H_
#define SSSJ_CORE_JOIN_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/ingest_pump.h"
#include "core/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sssj {

// Service-wide knobs (namespace-scope so it can default-construct in the
// JoinService constructor's default argument).
struct JoinServiceOptions {
  // Worker threads shared by every MB session's window-close fan-out. 1
  // disables the shared pool: MB sessions with num_threads > 1 then get
  // private pools, as standalone engines do. STR sessions run
  // sequentially either way.
  size_t num_threads = 1;
  // Service-wide cap on the sum of every live session's MemoryBytes().
  // 0 (default) = unlimited. When a Push/PushBatch would run while the
  // total is over budget, the service first evicts dormant sessions
  // (least-recently-active first) to private checkpoint files under
  // `spill_dir`; an evicted session reloads transparently on its next
  // push. If no evictable session remains and the total is still over
  // budget, the push is refused with kResourceExhausted — deterministic
  // backpressure instead of an OOM kill. Every inline (non-async) session
  // is evictable, whatever its framework, scheme and thread count; async
  // sessions count toward the total but are never evicted. A reload
  // replays the spilled live items, so the session's output does not
  // change.
  size_t memory_budget_bytes = 0;
  // Directory for eviction checkpoints. Empty (default) disables
  // eviction: budget enforcement then has only the kResourceExhausted
  // lever. The directory must exist and be writable. Each eviction
  // creates its own file with mkstemp, so a session name never reaches a
  // path and services may share the directory. The reload, an
  // AbandonSession or accepted LoadCheckpoint of the session, or the
  // service's destruction deletes the file: no spill outlives the
  // service that wrote it.
  std::string spill_dir;
};

// Aggregate capacity view across live sessions, for monitoring.
struct ServiceStats {
  size_t num_sessions = 0;
  uint64_t vectors_processed = 0;  // sum over live sessions
  uint64_t pairs_emitted = 0;      // sum over live sessions
  size_t memory_bytes = 0;         // sum of engine MemoryBytes()
  // Ingress aggregates (zero when every session ingests inline).
  uint64_t queue_depth = 0;        // items submitted but not yet applied
  uint64_t epochs_closed = 0;      // epochs the pump drained
  uint64_t backpressure_rejections = 0;  // kResourceExhausted submits
  // Budget enforcement counters (all zero when memory_budget_bytes == 0).
  uint64_t sessions_evicted = 0;   // evict-to-checkpoint events, lifetime
  uint64_t session_reloads = 0;    // transparent reloads, lifetime
  uint64_t budget_rejections = 0;  // pushes refused with kResourceExhausted

  struct SessionEntry {
    std::string name;
    uint64_t vectors_processed = 0;
    uint64_t pairs_emitted = 0;
    size_t memory_bytes = 0;
    bool evicted = false;  // currently spilled to its checkpoint file
    IngestStats ingest;  // zero-valued for inline sessions
  };
  std::vector<SessionEntry> sessions;  // sorted by session name
};

class JoinService {
 public:
  // Opaque session handle; cheap to copy. A default-constructed handle is
  // invalid and every call taking it returns kNotFound.
  class SessionHandle {
   public:
    SessionHandle() = default;
    bool valid() const { return id_ != 0; }

   private:
    friend class JoinService;
    explicit SessionHandle(uint64_t id) : id_(id) {}
    uint64_t id_ = 0;
  };

  using Options = JoinServiceOptions;

  struct SessionOptions {
    std::string name;  // must be non-empty and unique within the service
    EngineConfig engine;
    // Where this session's pairs go: either borrowed (must outlive the
    // session) or adopted. If both are set, `sink` wins and `owned_sink`
    // is just kept alive; if neither, results are discarded.
    ResultSink* sink = nullptr;
    std::unique_ptr<ResultSink> owned_sink;

    SessionOptions() = default;
    SessionOptions(std::string name_in, const EngineConfig& engine_in,
                   ResultSink* sink_in)
        : name(std::move(name_in)), engine(engine_in), sink(sink_in) {}
  };

  explicit JoinService(const Options& options = {});
  // Destroys all sessions without flushing; CloseSession first if the MB
  // windows' tail results matter.
  ~JoinService();

  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  // Creates a session. Failures:
  //   kInvalidArgument  empty session name
  //   kAlreadyExists    a live session already has this name
  //   (plus anything SssjEngine::Make rejects, forwarded verbatim)
  // EngineConfig::pool is overridden with the service pool (when the
  // service has one and the session asks for num_threads > 1).
  StatusOr<SessionHandle> CreateSession(SessionOptions options)
      SSSJ_EXCLUDES(mu_);

  // Looks a live session up by name (kNotFound otherwise).
  StatusOr<SessionHandle> FindSession(const std::string& name) const
      SSSJ_EXCLUDES(mu_);

  // Flushes buffered state into the session's sink, then destroys the
  // session. The name becomes reusable.
  Status CloseSession(SessionHandle handle) SSSJ_EXCLUDES(mu_);

  // Destroys the session WITHOUT the final flush, discarding any pairs
  // still pending in MB windows — for callers that have already captured
  // the session's state in a portable checkpoint (the cluster layer's
  // MigrateOut: the pending pairs live on in the checkpoint and emit at
  // the destination; flushing here would emit them twice). An evicted
  // session's spill file is deleted, not restored.
  Status AbandonSession(SessionHandle handle) SSSJ_EXCLUDES(mu_);

  // Per-session mirrors of the engine API; all return kNotFound for an
  // unknown/closed handle, otherwise exactly what the underlying engine
  // returns.
  Status Push(SessionHandle handle, Timestamp ts, SparseVector vec)
      SSSJ_EXCLUDES(mu_);
  StatusOr<BatchPushResult> PushBatch(SessionHandle handle,
                                      const Stream& batch) SSSJ_EXCLUDES(mu_);
  // Async ingestion for sessions created with ingest.mode == kAsync: the
  // service forces ingest.external_pump and registers every async
  // session's queue with one shared pump thread. AsyncPush never takes
  // the session lock — producers only touch the session's queue, whose
  // lock no apply holds — so submits on one session proceed while the
  // pump is mid-epoch on another. Submits racing a concurrent CloseSession may be dropped
  // (their on_complete never fires); quiesce producers before closing.
  Status AsyncPush(SessionHandle handle, Timestamp ts, SparseVector vec,
                   uint64_t* ticket = nullptr);
  // Blocks until everything submitted so far on the session is applied.
  Status Drain(SessionHandle handle);
  Status Flush(SessionHandle handle);
  // The session's SSSJENG3 checkpoint, as SssjEngine writes and reads it
  // (the cluster layer ships it as migration frames). An evicted session
  // reloads before a save; an accepted load replaces its spilled state,
  // and a refused one leaves the session as it was, spill included.
  Status SaveCheckpoint(SessionHandle handle, std::ostream& os) const;
  Status LoadCheckpoint(SessionHandle handle, std::istream& is);
  // Live scheme migration on one session. Runs under the session lock
  // like every per-session call, so it can never interleave with a
  // Push/Flush on the same session; other sessions are unaffected.
  // Forwards exactly what SssjEngine::SwitchScheme returns.
  Status SwitchScheme(SessionHandle handle, Framework framework,
                      IndexScheme scheme) SSSJ_EXCLUDES(mu_);
  StatusOr<RunStats> SessionStats(SessionHandle handle) const;
  StatusOr<IngestStats> SessionIngestStats(SessionHandle handle) const;
  StatusOr<size_t> SessionMemoryBytes(SessionHandle handle) const;

  size_t num_sessions() const SSSJ_EXCLUDES(mu_);

  // Aggregates per-session RunStats / MemoryBytes under the session locks
  // — safe while other threads keep pushing.
  ServiceStats Stats() const SSSJ_EXCLUDES(mu_);

 private:
  struct Session {
    // An evicted session's spill goes with it (CloseSession, Abandon,
    // ~JoinService), whatever state the session is left in.
    ~Session();

    Mutex mu;
    std::string name;
    // Declared before `engine` so it outlives engine teardown (members
    // destroy in reverse order; the engine's bound sink points here).
    std::unique_ptr<ResultSink> owned_sink;
    std::unique_ptr<SssjEngine> engine SSSJ_GUARDED_BY(mu);
    // Atomic (not mu-guarded) so AsyncPush can gate on it without taking
    // the session lock — the lock may be held by the pump for a whole
    // epoch, and a blocked submit must not serialize behind it.
    std::atomic<bool> closed{false};
    // Both set by CreateSession before the session is published and never
    // written again (CloseSession can run its teardown at most once — the
    // registry erase under mu_ decides the winner — so it needs no "done"
    // flag here). AsyncPush reads them lock-free; a mutation anywhere
    // else would be the data race the immutability rules out.
    uint64_t pump_registration = 0;  // 0 = not an async session
    // Non-null iff async. Async sessions are never evicted, so unlike
    // `engine` (which eviction swaps under mu) this pointer is stable for
    // the session's whole life — it is what the submit paths that skip
    // the session lock dereference, encoding "async engines don't move"
    // as a type-level fact instead of a comment on `engine`.
    SssjEngine* async_engine = nullptr;
    // ---- budget/eviction state ----
    uint64_t id = 0;  // registry id; immutable once inserted
    EngineConfig config;             // resolved config, for engine rebuild
    ResultSink* bound_sink = nullptr;  // sink the engine was built with
    // Cached accounting, atomic so EnforceBudget can total the service
    // without taking every session's lock. Refreshed from
    // engine->MemoryBytes() — O(1), a running total the indexes keep —
    // after every locked operation that can change the engine's state
    // (push, batch, flush, load, scheme switch, evict, reload). Async
    // sessions apply on the pump without this refresh.
    std::atomic<size_t> mem_bytes{0};
    std::atomic<uint64_t> last_active{0};  // service activity clock tick
    bool evicted SSSJ_GUARDED_BY(mu) = false;
    std::string spill_path SSSJ_GUARDED_BY(mu);  // set iff evicted
    // Session-lifetime counters survive eviction: what the engines that
    // eviction swapped out had counted, net of what a reload's replay
    // counts again. Added to the engine's own counters on every read
    // (CountersLocked); unsigned wrap-around makes the subtraction exact.
    uint64_t carried_vectors SSSJ_GUARDED_BY(mu) = 0;
    uint64_t carried_pairs SSSJ_GUARDED_BY(mu) = 0;
  };

  // Registry lookup; returns null after CloseSession erased the id.
  std::shared_ptr<Session> Lookup(SessionHandle handle) const
      SSSJ_EXCLUDES(mu_);
  static Status UnknownSession();

  // Refreshes the session's cached accounting + LRU clock.
  void NoteActivity(Session* session) const SSSJ_REQUIRES(session->mu);
  // The engine's counters plus what the session carried across evictions.
  static RunStats CountersLocked(const Session* session)
      SSSJ_REQUIRES(session->mu);
  // Brings an evicted session back (LoadCheckpoint from its spill file,
  // which is then deleted).
  Status EnsureResident(Session* session) const SSSJ_REQUIRES(session->mu);
  // Deletes an evicted session's spill file and clears its evicted mark.
  static void DropSpill(Session* session) SSSJ_REQUIRES(session->mu);
  // Spills the session to a new private checkpoint file in spill_dir and
  // swaps in a fresh empty engine.
  Status EvictLocked(Session* victim) SSSJ_REQUIRES(victim->mu);
  // Called before a push while holding current->mu: if the service total
  // is over budget, evicts dormant sessions (LRU first, TryLock only —
  // never waits on a busy session's lock, so no deadlock is possible);
  // returns kResourceExhausted if the total still exceeds the budget.
  // Takes mu_ to total/snapshot the registry — the one place the lock
  // order session->mu -> mu_ occurs (see ARCHITECTURE.md for the table).
  Status EnforceBudget(Session* current)
      SSSJ_REQUIRES(current->mu) SSSJ_EXCLUDES(mu_);

  Options options_;
  std::shared_ptr<ThreadPool> pool_;  // null when options_.num_threads <= 1

  mutable Mutex mu_;  // guards the registry maps and next_id_
  uint64_t next_id_ SSSJ_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_ SSSJ_GUARDED_BY(mu_);
  std::unordered_map<std::string, uint64_t> by_name_ SSSJ_GUARDED_BY(mu_);

  // Budget bookkeeping. The clock orders sessions for LRU eviction; the
  // counters feed ServiceStats. All atomic (and mutable where const
  // methods touch them) — no lock protects them.
  mutable std::atomic<uint64_t> activity_clock_{1};
  std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> budget_rejections_{0};

  // One pump thread services every async session's queue. Created lazily
  // (under mu_) by the first async CreateSession; declared last so its
  // destructor joins the thread before the sessions it applies into are
  // torn down.
  std::unique_ptr<IngestPump> ingest_pump_;
};

}  // namespace sssj

#endif  // SSSJ_CORE_JOIN_SERVICE_H_
