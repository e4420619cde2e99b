// Cluster wire protocol — length-prefixed, versioned binary frames
// between clients, the supervisor/router and its worker processes.
//
// Framing (all integers little-endian, doubles as IEEE-754 bit images):
//
//   frame     := u32 payload_len | u8 frame_type | payload[payload_len]
//
// A connection opens with a Hello exchange (magic + protocol version) so
// a stale peer fails fast with a named reason instead of misparsing
// frames. Every payload decoder is bounds-checked span parsing in the
// style of the checkpoint/codec hardening: declared lengths are capped
// before any allocation, truncation at any byte yields a clean error,
// and unknown frame types are refused — the whole surface is driven by
// fuzz/fuzz_wire.cc against adversarial bytes.
//
// Request frames (supervisor or client → worker or sssj_clusterd), all
// but kHello and kShutdown carrying the session name. One dispatcher
// (cluster/serve.h) answers them for every host; only a worker accepts
// kRestore and kMigrateOut:
//
//   type            payload                          reply extras
//   kHello          magic u32, version u16           version echoed in blob
//   kCreateSession  name, WireConfig                 —
//   kPush           name, ts f64, vector             pairs emitted by it
//   kPushBatch      name, count u32, (ts, vector)*   pairs + per-item rejects
//   kFlush          name                             pairs drained
//   kRestore        name, WireConfig, blob           — (create + load bytes)
//   kMigrateOut     name                             SSSJENG3 bytes in blob;
//                                                    session destroyed
//   kCloseSession   name                             pairs from final flush
//   kStats          name                             SessionWireStats in blob
//   kShutdown       —                                — (serve loop ends after)
//
// The single response frame type kReply carries a Status, the pairs the
// request caused the engine to emit (bit-exact doubles — the cluster's
// bitwise-equivalence pins hang on this), a batch's BatchPushResult
// rejects, and an opaque blob (checkpoint bytes, encoded stats). Moving
// session state always reuses the engine's portable SSSJENG3 checkpoint
// verbatim: a migration is a save→transfer→load of bytes this protocol
// never looks inside, and a crash-restore loads the supervisor's
// zero-item seed the same way before the journal replays.
#ifndef SSSJ_CLUSTER_WIRE_H_
#define SSSJ_CLUSTER_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/result.h"
#include "core/status.h"
#include "core/stream_item.h"

namespace sssj {
namespace cluster {

// Protocol identity. Bump kWireVersion on any frame/payload change; the
// Hello exchange turns a mismatch into a named refusal.
inline constexpr uint32_t kWireMagic = 0x50575353;  // "SSWP" little-endian
inline constexpr uint16_t kWireVersion = 2;

// Hard caps on untrusted declared sizes: nothing a hostile peer declares
// may drive an allocation past these before the bytes actually arrive.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB
inline constexpr uint32_t kMaxWireString = 1u << 20;     // names, messages
inline constexpr uint32_t kMaxWireNnz = 1u << 22;        // coords per vector
inline constexpr uint32_t kMaxWireBatch = 1u << 20;      // items per batch
inline constexpr uint32_t kMaxWirePairs = 1u << 24;      // pairs per reply

enum class FrameType : uint8_t {
  kHello = 1,
  kCreateSession = 2,
  kPush = 3,
  kPushBatch = 4,
  kFlush = 5,
  kRestore = 6,
  kMigrateOut = 7,
  kCloseSession = 8,
  kStats = 9,
  kShutdown = 10,
  kReply = 11,
};

// "kPush", ... for diagnostics.
const char* ToString(FrameType type);

// Frame header: 5 bytes on the wire.
inline constexpr size_t kFrameHeaderSize = 5;

struct FrameHeader {
  FrameType type = FrameType::kHello;
  uint32_t payload_len = 0;
};

// Validates the 5 header bytes: known type, payload_len <= cap. On
// failure *error names the defect and the header is unusable.
bool DecodeFrameHeader(const uint8_t* data, size_t size, FrameHeader* out,
                       std::string* error);

// The 5 header bytes of a frame of `payload_len` bytes, written to out.
void EncodeFrameHeader(FrameType type, uint32_t payload_len, uint8_t* out);

// payload_len | type prefix + payload, appended to *out.
void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out);

// ---- bounds-checked primitives ----

// Fixed wire sizes of the two arrays a push round trip carries: a
// coordinate is u32 dim | f64 value, a pair is ResultPair's six 8-byte
// fields in declaration order.
inline constexpr size_t kWireCoordBytes = 12;
inline constexpr size_t kWirePairBytes = 48;

// Append-only payload builder. All Put* are infallible (the caller caps
// sizes before encoding); buffer() is the finished payload.
class WireWriter {
 public:
  WireWriter() = default;
  // Writes into `buffer`'s storage, cleared first: a caller that encodes
  // one payload after another keeps one allocation.
  explicit WireWriter(std::string buffer) : buf_(std::move(buffer)) {
    buf_.clear();
  }

  // Grows the buffer once for `bytes` more; the encoders size their
  // payload before writing it.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  // u32 length + raw bytes.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  // nnz, then the coordinates as one block of kWireCoordBytes records.
  void PutVector(const SparseVector& vec);
  void PutStatus(const Status& status);
  // Count, then the pairs as one block of kWirePairBytes records.
  void PutPairs(const std::vector<ResultPair>& pairs);

  const std::string& buffer() const { return buf_; }
  std::string&& Take() { return std::move(buf_); }

 private:
  void PutRaw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

// Span reader. Every Get* returns false (and poisons the reader) on
// truncation or a domain violation; decode functions translate that into
// a Status naming the frame. Never reads past [data, data+size).
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::string& payload)
      : WireReader(reinterpret_cast<const uint8_t*>(payload.data()),
                   payload.size()) {}

  bool GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU16(uint16_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetF64(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  // Rejects declared lengths beyond the remaining bytes or `cap`.
  bool GetString(std::string* s, uint32_t cap = kMaxWireString);
  // Rejects non-finite values, non-positive values, unsorted/duplicate
  // dims, and nnz beyond cap — the same domain the checkpoint loader
  // enforces, so a hostile frame cannot smuggle an invalid vector into
  // the engine. One bounds check covers the whole coordinate block, and
  // one pass validates it.
  bool GetVector(SparseVector* vec);
  bool GetStatus(Status* status);
  // Rejects a count beyond kMaxWirePairs or beyond the bytes present
  // before it sizes *pairs.
  bool GetPairs(std::vector<ResultPair>* pairs);

  bool failed() const { return failed_; }
  bool AtEnd() const { return pos_ == size_ && !failed_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  bool GetRaw(void* p, size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// ---- payload structs ----

// The deterministic engine-config subset that travels with a session.
// Execution knobs (threads, kernels, tiering, ingestion) stay host-local:
// the worker resolves them, so two placements of one session always
// produce bit-identical output.
struct WireConfig {
  Framework framework = Framework::kStreaming;
  IndexScheme index = IndexScheme::kL2;
  double theta = 0.7;
  double lambda = 0.01;
  bool normalize_inputs = true;

  // The engine config a worker builds from this: the fields above, every
  // other knob at its default.
  EngineConfig ToEngineConfig() const;
  static WireConfig FromEngineConfig(const EngineConfig& config);
};

struct HelloPayload {
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
};

// OK when the peer's Hello carries this build's magic and version, else
// kFailedPrecondition naming the mismatch.
Status CheckHello(const HelloPayload& peer);

struct CreateSessionRequest {
  std::string name;
  WireConfig config;
};

struct PushRequest {
  std::string name;
  Timestamp ts = 0.0;
  SparseVector vec;
};

struct PushBatchRequest {
  std::string name;
  // Each item's ts and vec travel; ids do not (decoded items carry id 0):
  // the engine assigns them, exactly like PushBatch on a local engine.
  Stream items;
};

// Flush / MigrateOut / CloseSession / Stats all carry just the session
// name.
struct NameRequest {
  std::string name;
};

struct RestoreRequest {
  std::string name;
  WireConfig config;
  std::string checkpoint;  // SSSJENG3 bytes, opaque to the protocol
};

// Worker → supervisor. `pairs` preserves the engine's emission order and
// exact double bits; `rejects` are BatchPushResult's own (an index
// travels as u32); `blob` carries checkpoint bytes or an encoded
// SessionWireStats.
struct Reply {
  Status status;
  uint64_t accepted = 0;
  std::vector<BatchPushResult::Reject> rejects;
  std::vector<ResultPair> pairs;
  std::string blob;
};

// The per-session stat summary that crosses the wire.
struct SessionWireStats {
  uint64_t vectors_processed = 0;
  uint64_t pairs_emitted = 0;
  uint64_t memory_bytes = 0;
};

// ---- encoders (infallible given capped inputs) ----
//
// Each sizes its payload once before writing it. The overloads without
// a request struct encode the same bytes from the caller's own objects:
// a push straight from the pushed vector, a batch from the pushed
// stream, a reply into a reused buffer.

std::string EncodeHello(const HelloPayload& hello);
std::string EncodeCreateSession(const CreateSessionRequest& req);
std::string EncodePush(const PushRequest& req);
std::string EncodePush(const std::string& name, Timestamp ts,
                       const SparseVector& vec);
std::string EncodePushBatch(const PushBatchRequest& req);
std::string EncodePushBatch(const std::string& name, const Stream& items);
std::string EncodeName(const NameRequest& req);
std::string EncodeRestore(const RestoreRequest& req);
std::string EncodeReply(const Reply& reply);
void EncodeReply(const Reply& reply, std::string* out);
std::string EncodeSessionStats(const SessionWireStats& stats);

// ---- decoders (hostile-input validated; Status names every defect) ----

Status DecodeHello(const std::string& payload, HelloPayload* out);
Status DecodeCreateSession(const std::string& payload,
                           CreateSessionRequest* out);
Status DecodePush(const std::string& payload, PushRequest* out);
Status DecodePushBatch(const std::string& payload, PushBatchRequest* out);
Status DecodeName(const std::string& payload, NameRequest* out);
Status DecodeRestore(const std::string& payload, RestoreRequest* out);
Status DecodeReply(const std::string& payload, Reply* out);
Status DecodeSessionStats(const std::string& payload, SessionWireStats* out);

// Rendezvous (highest-random-weight) placement: the worker slot in
// [0, num_workers) with the largest keyed hash of (name, slot). Every
// router instance computes the same owner for the same fleet size, and
// changing the fleet by one slot moves only ~1/K of the sessions.
int RendezvousOwner(const std::string& name, int num_workers);

}  // namespace cluster
}  // namespace sssj

#endif  // SSSJ_CLUSTER_WIRE_H_
