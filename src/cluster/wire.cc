#include "cluster/wire.h"

#include <cmath>
#include <cstddef>
#include <type_traits>

namespace sssj {
namespace cluster {

// PutPairs/GetPairs move ResultPair arrays as raw blocks: the wire record
// must be the struct's own bytes (on the little-endian hosts the whole
// protocol assumes), with no padding.
static_assert(std::is_trivially_copyable_v<ResultPair> &&
                  std::is_standard_layout_v<ResultPair> &&
                  sizeof(ResultPair) == kWirePairBytes &&
                  offsetof(ResultPair, a) == 0 &&
                  offsetof(ResultPair, b) == 8 &&
                  offsetof(ResultPair, ta) == 16 &&
                  offsetof(ResultPair, tb) == 24 &&
                  offsetof(ResultPair, dot) == 32 &&
                  offsetof(ResultPair, sim) == 40,
              "ResultPair no longer matches its 48-byte wire record");

const char* ToString(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "kHello";
    case FrameType::kCreateSession:
      return "kCreateSession";
    case FrameType::kPush:
      return "kPush";
    case FrameType::kPushBatch:
      return "kPushBatch";
    case FrameType::kFlush:
      return "kFlush";
    case FrameType::kRestore:
      return "kRestore";
    case FrameType::kMigrateOut:
      return "kMigrateOut";
    case FrameType::kCloseSession:
      return "kCloseSession";
    case FrameType::kStats:
      return "kStats";
    case FrameType::kShutdown:
      return "kShutdown";
    case FrameType::kReply:
      return "kReply";
  }
  return "unknown";
}

bool DecodeFrameHeader(const uint8_t* data, size_t size, FrameHeader* out,
                       std::string* error) {
  if (size < kFrameHeaderSize) {
    if (error != nullptr) *error = "truncated frame header";
    return false;
  }
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, data, sizeof(payload_len));
  const uint8_t type_byte = data[4];
  if (type_byte < static_cast<uint8_t>(FrameType::kHello) ||
      type_byte > static_cast<uint8_t>(FrameType::kReply)) {
    if (error != nullptr) {
      *error = "unknown frame type " + std::to_string(type_byte);
    }
    return false;
  }
  if (payload_len > kMaxFramePayload) {
    if (error != nullptr) {
      *error = "declared payload length " + std::to_string(payload_len) +
               " exceeds the " + std::to_string(kMaxFramePayload) +
               "-byte frame cap";
    }
    return false;
  }
  out->type = static_cast<FrameType>(type_byte);
  out->payload_len = payload_len;
  return true;
}

void EncodeFrameHeader(FrameType type, uint32_t payload_len, uint8_t* out) {
  std::memcpy(out, &payload_len, sizeof(payload_len));
  out[4] = static_cast<uint8_t>(type);
}

void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  uint8_t header[kFrameHeaderSize];
  EncodeFrameHeader(type, static_cast<uint32_t>(payload.size()), header);
  out->append(reinterpret_cast<const char*>(header), sizeof(header));
  out->append(payload);
}

void WireWriter::PutVector(const SparseVector& vec) {
  PutU32(static_cast<uint32_t>(vec.nnz()));
  const size_t at = buf_.size();
  buf_.resize(at + vec.nnz() * kWireCoordBytes);
  char* p = buf_.data() + at;
  for (const Coord& c : vec) {
    std::memcpy(p, &c.dim, sizeof(c.dim));
    std::memcpy(p + sizeof(c.dim), &c.value, sizeof(c.value));
    p += kWireCoordBytes;
  }
}

void WireWriter::PutStatus(const Status& status) {
  PutU8(static_cast<uint8_t>(status.code()));
  PutString(status.message());
}

void WireWriter::PutPairs(const std::vector<ResultPair>& pairs) {
  PutU32(static_cast<uint32_t>(pairs.size()));
  PutRaw(pairs.data(), pairs.size() * kWirePairBytes);
}

bool WireReader::GetString(std::string* s, uint32_t cap) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (len > cap || size_ - pos_ < len) {
    failed_ = true;
    return false;
  }
  s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return true;
}

bool WireReader::GetVector(SparseVector* vec) {
  uint32_t nnz = 0;
  if (!GetU32(&nnz)) return false;
  // The whole coordinate block must actually be present before any
  // allocation.
  const size_t bytes = static_cast<size_t>(nnz) * kWireCoordBytes;
  if (nnz > kMaxWireNnz || size_ - pos_ < bytes) {
    failed_ = true;
    return false;
  }
  std::vector<Coord> coords(nnz);
  const uint8_t* p = data_ + pos_;
  for (uint32_t i = 0; i < nnz; ++i, p += kWireCoordBytes) {
    Coord& c = coords[i];
    std::memcpy(&c.dim, p, sizeof(c.dim));
    std::memcpy(&c.value, p + sizeof(c.dim), sizeof(c.value));
    if (!std::isfinite(c.value) || !(c.value > 0.0) ||
        (i > 0 && c.dim <= coords[i - 1].dim)) {
      failed_ = true;
      return false;
    }
  }
  pos_ += bytes;
  // Validated sorted/positive/finite above: adopt the coordinates as
  // they are, with stats recomputed.
  *vec = SparseVector::FromSortedCoords(std::move(coords));
  return true;
}

bool WireReader::GetStatus(Status* status) {
  uint8_t code = 0;
  std::string message;
  if (!GetU8(&code) || !GetString(&message)) return false;
  if (code > static_cast<uint8_t>(StatusCode::kInternal)) {
    failed_ = true;
    return false;
  }
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

bool WireReader::GetPairs(std::vector<ResultPair>* pairs) {
  uint32_t count = 0;
  if (!GetU32(&count)) return false;
  const size_t bytes = static_cast<size_t>(count) * kWirePairBytes;
  if (count > kMaxWirePairs || size_ - pos_ < bytes) {
    failed_ = true;
    return false;
  }
  pairs->resize(count);
  if (count > 0) std::memcpy(pairs->data(), data_ + pos_, bytes);
  pos_ += bytes;
  return true;
}

EngineConfig WireConfig::ToEngineConfig() const {
  EngineConfig config;
  config.framework = framework;
  config.index = index;
  config.theta = theta;
  config.lambda = lambda;
  config.normalize_inputs = normalize_inputs;
  return config;
}

WireConfig WireConfig::FromEngineConfig(const EngineConfig& config) {
  WireConfig wire;
  wire.framework = config.framework;
  wire.index = config.index;
  wire.theta = config.theta;
  wire.lambda = config.lambda;
  wire.normalize_inputs = config.normalize_inputs;
  return wire;
}

namespace {

void PutConfig(const WireConfig& config, WireWriter* w) {
  w->PutU8(config.framework == Framework::kMiniBatch ? 0 : 1);
  w->PutU8(static_cast<uint8_t>(config.index));
  w->PutF64(config.theta);
  w->PutF64(config.lambda);
  w->PutU8(config.normalize_inputs ? 1 : 0);
}

bool GetConfig(WireReader* r, WireConfig* config) {
  uint8_t framework = 0;
  uint8_t scheme = 0;
  uint8_t normalize = 0;
  if (!r->GetU8(&framework) || !r->GetU8(&scheme) ||
      !r->GetF64(&config->theta) || !r->GetF64(&config->lambda) ||
      !r->GetU8(&normalize)) {
    return false;
  }
  if (framework > 1 || scheme > static_cast<uint8_t>(IndexScheme::kL2) ||
      normalize > 1) {
    return false;
  }
  if (!std::isfinite(config->theta) || !(config->theta > 0.0) ||
      config->theta > 1.0 || !std::isfinite(config->lambda) ||
      config->lambda < 0.0) {
    return false;
  }
  config->framework =
      framework == 0 ? Framework::kMiniBatch : Framework::kStreaming;
  config->index = static_cast<IndexScheme>(scheme);
  config->normalize_inputs = normalize != 0;
  return true;
}

// Exact encoded sizes, so each encoder allocates its payload once.
constexpr size_t kConfigBytes = 19;  // 3 x u8 + 2 x f64

size_t StringBytes(const std::string& s) { return 4 + s.size(); }

size_t VectorBytes(const SparseVector& vec) {
  return 4 + vec.nnz() * kWireCoordBytes;
}

size_t StatusBytes(const Status& status) {
  return 1 + StringBytes(status.message());
}

Status Malformed(const char* what) {
  return Status::DataLoss(std::string("malformed ") + what + " payload");
}

// Every decoder requires the payload to be fully consumed: trailing bytes
// mean the two ends disagree about the format — fail loudly now, not
// at some later frame boundary.
Status FinishDecode(const WireReader& reader, const char* what) {
  if (!reader.AtEnd()) return Malformed(what);
  return Status::Ok();
}

}  // namespace

Status CheckHello(const HelloPayload& peer) {
  if (peer.magic != kWireMagic) {
    return Status::FailedPrecondition(
        "wire magic mismatch: peer sent " + std::to_string(peer.magic) +
        ", expected " + std::to_string(kWireMagic));
  }
  if (peer.version != kWireVersion) {
    return Status::FailedPrecondition(
        "wire protocol version mismatch: peer speaks version " +
        std::to_string(peer.version) + ", expected " +
        std::to_string(kWireVersion));
  }
  return Status::Ok();
}

std::string EncodeHello(const HelloPayload& hello) {
  WireWriter w;
  w.PutU32(hello.magic);
  w.PutU16(hello.version);
  return w.Take();
}

Status DecodeHello(const std::string& payload, HelloPayload* out) {
  WireReader r(payload);
  if (!r.GetU32(&out->magic) || !r.GetU16(&out->version)) {
    return Malformed("kHello");
  }
  return FinishDecode(r, "kHello");
}

std::string EncodeCreateSession(const CreateSessionRequest& req) {
  WireWriter w;
  w.Reserve(StringBytes(req.name) + kConfigBytes);
  w.PutString(req.name);
  PutConfig(req.config, &w);
  return w.Take();
}

Status DecodeCreateSession(const std::string& payload,
                           CreateSessionRequest* out) {
  WireReader r(payload);
  if (!r.GetString(&out->name) || out->name.empty() ||
      !GetConfig(&r, &out->config)) {
    return Malformed("kCreateSession");
  }
  return FinishDecode(r, "kCreateSession");
}

std::string EncodePush(const PushRequest& req) {
  return EncodePush(req.name, req.ts, req.vec);
}

std::string EncodePush(const std::string& name, Timestamp ts,
                       const SparseVector& vec) {
  WireWriter w;
  w.Reserve(StringBytes(name) + 8 + VectorBytes(vec));
  w.PutString(name);
  w.PutF64(ts);
  w.PutVector(vec);
  return w.Take();
}

Status DecodePush(const std::string& payload, PushRequest* out) {
  WireReader r(payload);
  if (!r.GetString(&out->name) || out->name.empty() || !r.GetF64(&out->ts) ||
      !r.GetVector(&out->vec)) {
    return Malformed("kPush");
  }
  return FinishDecode(r, "kPush");
}

std::string EncodePushBatch(const PushBatchRequest& req) {
  return EncodePushBatch(req.name, req.items);
}

std::string EncodePushBatch(const std::string& name, const Stream& items) {
  size_t bytes = StringBytes(name) + 4;
  for (const StreamItem& item : items) bytes += 8 + VectorBytes(item.vec);
  WireWriter w;
  w.Reserve(bytes);
  w.PutString(name);
  w.PutU32(static_cast<uint32_t>(items.size()));
  for (const StreamItem& item : items) {
    w.PutF64(item.ts);
    w.PutVector(item.vec);
  }
  return w.Take();
}

Status DecodePushBatch(const std::string& payload, PushBatchRequest* out) {
  WireReader r(payload);
  uint32_t count = 0;
  if (!r.GetString(&out->name) || out->name.empty() || !r.GetU32(&count)) {
    return Malformed("kPushBatch");
  }
  // Each item is at least 12 bytes (ts + empty-vector nnz); the declared
  // count must be coverable by the bytes present before any reserve.
  if (count > kMaxWireBatch || r.remaining() < static_cast<size_t>(count) * 12) {
    return Malformed("kPushBatch");
  }
  out->items.clear();
  out->items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StreamItem& item = out->items.emplace_back();
    if (!r.GetF64(&item.ts) || !r.GetVector(&item.vec)) {
      return Malformed("kPushBatch");
    }
  }
  return FinishDecode(r, "kPushBatch");
}

std::string EncodeName(const NameRequest& req) {
  WireWriter w;
  w.Reserve(StringBytes(req.name));
  w.PutString(req.name);
  return w.Take();
}

Status DecodeName(const std::string& payload, NameRequest* out) {
  WireReader r(payload);
  if (!r.GetString(&out->name) || out->name.empty()) {
    return Malformed("name");
  }
  return FinishDecode(r, "name");
}

std::string EncodeRestore(const RestoreRequest& req) {
  WireWriter w;
  w.Reserve(StringBytes(req.name) + kConfigBytes +
            StringBytes(req.checkpoint));
  w.PutString(req.name);
  PutConfig(req.config, &w);
  w.PutString(req.checkpoint);
  return w.Take();
}

Status DecodeRestore(const std::string& payload, RestoreRequest* out) {
  WireReader r(payload);
  if (!r.GetString(&out->name) || out->name.empty() ||
      !GetConfig(&r, &out->config) ||
      !r.GetString(&out->checkpoint, kMaxFramePayload)) {
    return Malformed("kRestore");
  }
  return FinishDecode(r, "kRestore");
}

std::string EncodeReply(const Reply& reply) {
  std::string out;
  EncodeReply(reply, &out);
  return out;
}

void EncodeReply(const Reply& reply, std::string* out) {
  size_t bytes = StatusBytes(reply.status) + 8 + 4 + 4 +
                 reply.pairs.size() * kWirePairBytes + StringBytes(reply.blob);
  for (const BatchPushResult::Reject& reject : reply.rejects) {
    bytes += 4 + StatusBytes(reject.status);
  }
  WireWriter w(std::move(*out));
  w.Reserve(bytes);
  w.PutStatus(reply.status);
  w.PutU64(reply.accepted);
  w.PutU32(static_cast<uint32_t>(reply.rejects.size()));
  for (const BatchPushResult::Reject& reject : reply.rejects) {
    w.PutU32(static_cast<uint32_t>(reject.index));
    w.PutStatus(reject.status);
  }
  w.PutPairs(reply.pairs);
  w.PutString(reply.blob);
  *out = w.Take();
}

Status DecodeReply(const std::string& payload, Reply* out) {
  WireReader r(payload);
  uint32_t reject_count = 0;
  if (!r.GetStatus(&out->status) || !r.GetU64(&out->accepted) ||
      !r.GetU32(&reject_count)) {
    return Malformed("kReply");
  }
  // A reject is at least 9 bytes (index + status code + empty message).
  if (reject_count > kMaxWireBatch ||
      r.remaining() < static_cast<size_t>(reject_count) * 9) {
    return Malformed("kReply");
  }
  out->rejects.clear();
  out->rejects.reserve(reject_count);
  for (uint32_t i = 0; i < reject_count; ++i) {
    uint32_t index = 0;
    Status status;
    if (!r.GetU32(&index) || !r.GetStatus(&status)) return Malformed("kReply");
    out->rejects.push_back({index, std::move(status)});
  }
  if (!r.GetPairs(&out->pairs) ||
      !r.GetString(&out->blob, kMaxFramePayload)) {
    return Malformed("kReply");
  }
  return FinishDecode(r, "kReply");
}

std::string EncodeSessionStats(const SessionWireStats& stats) {
  WireWriter w;
  w.Reserve(24);
  w.PutU64(stats.vectors_processed);
  w.PutU64(stats.pairs_emitted);
  w.PutU64(stats.memory_bytes);
  return w.Take();
}

Status DecodeSessionStats(const std::string& payload, SessionWireStats* out) {
  WireReader r(payload);
  if (!r.GetU64(&out->vectors_processed) || !r.GetU64(&out->pairs_emitted) ||
      !r.GetU64(&out->memory_bytes)) {
    return Malformed("stats blob");
  }
  return FinishDecode(r, "stats blob");
}

namespace {

// splitmix64 — deterministic across platforms, good avalanche for the
// rendezvous weights.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, then mixed per slot
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

int RendezvousOwner(const std::string& name, int num_workers) {
  if (num_workers <= 1) return 0;
  const uint64_t name_hash = HashName(name);
  int best = 0;
  uint64_t best_weight = 0;
  for (int w = 0; w < num_workers; ++w) {
    const uint64_t weight = Mix64(name_hash ^ Mix64(static_cast<uint64_t>(w)));
    if (w == 0 || weight > best_weight) {
      best = w;
      best_weight = weight;
    }
  }
  return best;
}

}  // namespace cluster
}  // namespace sssj
