#include "index/stream_l2_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

namespace sssj {

namespace {

// Checkpoint format v2: columnar posting records behind a magic + version
// + scheme-tag header. v1 ("SSSJCKP1") stored row-major AoS postings and
// is deliberately not readable — the stored layout changed.
constexpr char kCheckpointMagic[8] = {'S', 'S', 'S', 'J', 'C', 'K', 'P', '2'};
constexpr uint32_t kCheckpointVersion = 2;
// On-disk tag for the index scheme that wrote the checkpoint (decoupled
// from the engine's IndexScheme enum, whose numeric values are not a
// serialization contract).
constexpr uint8_t kSchemeTagL2 = 2;

template <typename T>
void PutRaw(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetRaw(std::istream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(T));
  return is.good();
}

// Reads `n` elements of a stored column, growing the buffer in bounded
// chunks so a corrupt length field cannot trigger a huge upfront
// allocation — a truncated stream fails after at most one chunk.
template <typename T>
bool GetColumn(std::istream& is, size_t n, std::vector<T>* out) {
  constexpr size_t kChunk = size_t{1} << 16;
  out->clear();
  while (out->size() < n) {
    const size_t take = std::min(kChunk, n - out->size());
    const size_t old = out->size();
    out->resize(old + take);
    is.read(reinterpret_cast<char*>(out->data() + old),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!is.good()) return false;
  }
  return true;
}

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

void StreamL2Index::ProcessArrival(const StreamItem& x, ResultSink* sink) {
  if (decay_.kind() != DecayFunction::Kind::kExponential) {
    ProcessUnderDecayFunction(x, sink);
    return;
  }
  // The local closure gives this instantiation internal linkage: the
  // compiler then treats it as a function called once and inlines the
  // scans, and the lookups they make, into it.
  const ExponentialDecay exponential{decay_.lambda()};
  ProcessUnder([exponential](Timestamp dt) { return exponential(dt); }, x,
               sink);
}

void StreamL2Index::Clear() {
  lists_.Clear();
  residuals_.Clear();
  live_entries_ = 0;
}

bool StreamL2Index::Serialize(std::ostream& os) const {
  if (decay_.kind() != DecayFunction::Kind::kExponential) return false;
  os.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutRaw(os, kCheckpointVersion);
  PutRaw(os, kSchemeTagL2);
  PutRaw(os, theta_);
  PutRaw(os, decay_.lambda());
  PutRaw(os, static_cast<uint64_t>(live_entries_));

  PutRaw(os, static_cast<uint64_t>(lists_.size()));
  // Column staging: frozen blocks must be decompressed before writing, so
  // the columns are materialized per list and written whole. The on-disk
  // record stays exact fp64 regardless of the in-memory value tier (a
  // quantized list serializes its already-quantized values), keeping the
  // SSSJCKP2 format unchanged.
  FrozenColumns scratch;
  std::vector<VectorId> ids;
  std::vector<double> values;
  std::vector<double> prefix_norms;
  std::vector<Timestamp> tss;
  for (const auto& [dim, list] : lists_) {
    PutRaw(os, dim);
    const size_t len = list.size();
    PutRaw(os, static_cast<uint64_t>(len));
    ids.clear();
    values.clear();
    prefix_norms.clear();
    tss.clear();
    list.ForSpansOldestFirst(0, len, &scratch, [&](const PostingSpan& sp) {
      ids.insert(ids.end(), sp.id, sp.id + sp.len);
      values.insert(values.end(), sp.value, sp.value + sp.len);
      prefix_norms.insert(prefix_norms.end(), sp.prefix_norm,
                          sp.prefix_norm + sp.len);
      tss.insert(tss.end(), sp.ts, sp.ts + sp.len);
    });
    os.write(reinterpret_cast<const char*>(ids.data()),
             static_cast<std::streamsize>(len * sizeof(VectorId)));
    os.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(len * sizeof(double)));
    os.write(reinterpret_cast<const char*>(prefix_norms.data()),
             static_cast<std::streamsize>(len * sizeof(double)));
    os.write(reinterpret_cast<const char*>(tss.data()),
             static_cast<std::streamsize>(len * sizeof(Timestamp)));
  }

  PutRaw(os, static_cast<uint64_t>(residuals_.size()));
  // LinkedHashMap iterates in insertion (= time) order; preserving it is
  // required for the O(1) expiry on restore.
  residuals_.ForEachInOrder([&os](VectorId id, const ResidualRecord& rec) {
    PutRaw(os, id);
    PutRaw(os, rec.ts);
    PutRaw(os, rec.q);
    PutRaw(os, rec.vm);
    PutRaw(os, rec.sum);
    PutRaw(os, rec.nnz);
    PutRaw(os, static_cast<uint64_t>(rec.prefix.nnz()));
    for (const Coord& c : rec.prefix) {
      PutRaw(os, c.dim);
      PutRaw(os, c.value);
    }
  });
  return os.good();
}

bool StreamL2Index::Deserialize(std::istream& is, std::string* error) {
  Clear();
  if (decay_.kind() != DecayFunction::Kind::kExponential) {
    SetError(error, "checkpoints store exponential-decay indexes only");
    return false;
  }
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is.good()) {
    SetError(error, "truncated checkpoint (missing header)");
    return false;
  }
  if (std::memcmp(magic, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    if (std::memcmp(magic, kCheckpointMagic, 7) == 0) {
      SetError(error, std::string("unsupported checkpoint format '") +
                          std::string(magic, 8) + "' (expected 'SSSJCKP2'; "
                          "stale checkpoint from an older build?)");
    } else {
      SetError(error, "not a sssj checkpoint (bad magic)");
    }
    return false;
  }
  uint32_t version;
  uint8_t scheme;
  if (!GetRaw(is, &version) || !GetRaw(is, &scheme)) {
    SetError(error, "truncated checkpoint (missing header)");
    return false;
  }
  if (version != kCheckpointVersion) {
    SetError(error, "unsupported checkpoint version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kCheckpointVersion) + ")");
    return false;
  }
  if (scheme != kSchemeTagL2) {
    SetError(error, "checkpoint was written by a different index scheme "
                    "(tag " + std::to_string(scheme) + ", expected L2)");
    return false;
  }
  double theta, lambda;
  uint64_t live;
  if (!GetRaw(is, &theta) || !GetRaw(is, &lambda) || !GetRaw(is, &live)) {
    SetError(error, "truncated checkpoint (missing parameters)");
    return false;
  }
  if (theta != theta_ || lambda != decay_.lambda()) {
    SetError(error, "checkpoint parameter mismatch: saved theta=" +
                        std::to_string(theta) + " lambda=" +
                        std::to_string(lambda) + ", engine has theta=" +
                        std::to_string(theta_) + " lambda=" +
                        std::to_string(decay_.lambda()));
    return false;
  }

  uint64_t num_lists;
  if (!GetRaw(is, &num_lists)) {
    SetError(error, "truncated checkpoint (missing posting lists)");
    return false;
  }
  std::vector<VectorId> ids;
  std::vector<double> values;
  std::vector<double> prefix_norms;
  std::vector<Timestamp> tss;
  for (uint64_t l = 0; l < num_lists; ++l) {
    DimId dim;
    uint64_t len;
    if (!GetRaw(is, &dim) || !GetRaw(is, &len)) {
      Clear();
      SetError(error, "truncated checkpoint (posting list header)");
      return false;
    }
    const size_t n = static_cast<size_t>(len);
    if (!GetColumn(is, n, &ids) || !GetColumn(is, n, &values) ||
        !GetColumn(is, n, &prefix_norms) || !GetColumn(is, n, &tss)) {
      Clear();
      SetError(error, "truncated checkpoint (posting columns)");
      return false;
    }
    lists_.FindOrCreate(dim);  // empty lists round-trip too
    for (size_t i = 0; i < n; ++i) {
      lists_.Append(dim, ids[i], values[i], prefix_norms[i], tss[i], tiered_);
    }
  }

  uint64_t num_residuals;
  if (!GetRaw(is, &num_residuals)) {
    Clear();
    SetError(error, "truncated checkpoint (missing residuals)");
    return false;
  }
  for (uint64_t r = 0; r < num_residuals; ++r) {
    VectorId id;
    ResidualRecord rec;
    uint64_t prefix_len;
    if (!GetRaw(is, &id) || !GetRaw(is, &rec.ts) || !GetRaw(is, &rec.q) ||
        !GetRaw(is, &rec.vm) || !GetRaw(is, &rec.sum) ||
        !GetRaw(is, &rec.nnz) || !GetRaw(is, &prefix_len)) {
      Clear();
      SetError(error, "truncated checkpoint (residual record)");
      return false;
    }
    std::vector<Coord> coords;
    coords.reserve(static_cast<size_t>(std::min<uint64_t>(prefix_len, 1u << 20)));
    for (uint64_t k = 0; k < prefix_len; ++k) {
      Coord c;
      if (!GetRaw(is, &c.dim) || !GetRaw(is, &c.value)) {
        Clear();
        SetError(error, "truncated checkpoint (residual prefix)");
        return false;
      }
      coords.push_back(c);
    }
    rec.prefix = SparseVector::FromCoords(std::move(coords));
    residuals_.Insert(id, std::move(rec));
  }
  live_entries_ = static_cast<size_t>(live);
  return true;
}

}  // namespace sssj
