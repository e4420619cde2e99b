// Residual direct index R, the Q array, and per-vector metadata (§4, §6.2).
//
// For every (partially) indexed vector y the filtering framework needs:
//   * the un-indexed prefix y' (for the exact dot in candidate
//     verification),
//   * Q[y] = pscore — the upper bound on dot(z, y') for any z, stored at
//     index-construction time (Algorithm 2 line 15),
//   * the full-vector statistics |y|, vm_y, Σ_y used by the AP size and
//     dot-product bounds, and needed again during L2AP re-indexing.
//
// The paper implements R and Q with a linked hash-map so that entries can
// be expired in time order with amortized O(1) cost (§6.2); we do the same.
//
// For the streaming L2AP index the store also maintains a small inverted
// index over the *prefix* dimensions, so that a max-vector update in
// dimension j can locate exactly the residuals that may need re-indexing
// (§5.3 "we can keep an inverted index of R to avoid scanning every
// vector"). Entries in that inverted index are cleaned lazily, except
// that a dim whose every id expired is dropped with its newest record.
//
// Records are read-only outside the store: every change goes through a
// store method, which keeps ApproxBytes() as a running total.
#ifndef SSSJ_INDEX_RESIDUAL_STORE_H_
#define SSSJ_INDEX_RESIDUAL_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/sparse_vector.h"
#include "core/types.h"
#include "util/linked_hash_map.h"

namespace sssj {

struct ResidualRecord {
  SparseVector prefix;  // y' — un-indexed prefix (may be empty)
  double q = 0.0;       // Q[y]
  Timestamp ts = 0.0;   // arrival time of y
  // Full-vector stats (not prefix stats):
  double vm = 0.0;   // vm_y
  double sum = 0.0;  // Σ_y
  uint32_t nnz = 0;  // |y|
};

class ResidualStore {
 public:
  // `track_prefix_dims` enables the prefix inverted index (STR-L2AP only).
  explicit ResidualStore(bool track_prefix_dims = false)
      : track_prefix_dims_(track_prefix_dims) {}

  // Inserts a record (replacing any record under `id`); `id`s must
  // arrive in non-decreasing `rec.ts` order.
  void Insert(VectorId id, ResidualRecord rec);

  const ResidualRecord* Find(VectorId id) const { return map_.find(id); }

  // Re-indexing (STR-L2AP): keeps the first `keep` coordinates of id's
  // prefix y' — the rest moved into the posting lists — and sets
  // Q[y] = q. keep == y'.nnz() refreshes Q alone. Only dims still in the
  // new prefix stay discoverable; ForEachWithPrefixDim drops the stale
  // inverted-index entries lazily. No-op for an unknown id.
  void UpdatePrefix(VectorId id, size_t keep, double q);

  // Drops all records with ts < cutoff (amortized O(1) per drop, plus a
  // lookup per prefix coordinate when prefix dims are tracked).
  void ExpireOlderThan(Timestamp cutoff);

  // Iterates over the ids whose stored prefix (still) contains `dim`,
  // compacting stale entries along the way. Fn: void(VectorId,
  // const ResidualRecord&). Requires track_prefix_dims.
  template <typename Fn>
  void ForEachWithPrefixDim(DimId dim, Fn&& fn) {
    auto it = prefix_dims_.find(dim);
    if (it == prefix_dims_.end()) return;
    std::vector<VectorId>& ids = it->second;
    size_t w = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      const ResidualRecord* rec = map_.find(ids[i]);
      if (rec == nullptr || rec->prefix.ValueAt(dim) == 0.0) continue;  // stale
      ids[w++] = ids[i];
      fn(ids[i], *rec);
    }
    ids.resize(w);  // keeps the capacity, so the byte total is unchanged
    if (ids.empty()) {
      bytes_ -= PrefixDimBytes(ids);
      prefix_dims_.erase(it);
    }
  }

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear();

  // Approximate resident bytes (records + stored prefix coordinates +
  // prefix-dim inverted index), kept as a running total by the mutators
  // above: O(1).
  size_t ApproxBytes() const { return bytes_; }
  // Test oracle: the same number by walking every record and prefix dim.
  size_t RecountApproxBytes() const;

  // Iterates records in insertion (time) order. Fn: void(VectorId,
  // const ResidualRecord&). Used by the live-item rebuild
  // (index/live_items.cc), which reads each record's prefix.
  template <typename Fn>
  void ForEachInOrder(Fn&& fn) const {
    for (const auto& [id, rec] : map_) fn(id, rec);
  }

 private:
  void RegisterPrefixDims(VectorId id, const SparseVector& prefix);
  // Drops the prefix-dim entries of an expiring record's dims that list
  // no newer id.
  void DropExpiredPrefixDims(VectorId id, const SparseVector& prefix);

  // What one record / one prefix-dim entry adds to ApproxBytes().
  static size_t RecordBytes(const ResidualRecord& rec) {
    return sizeof(VectorId) + sizeof(ResidualRecord) +
           rec.prefix.nnz() * sizeof(Coord);
  }
  static size_t PrefixDimBytes(const std::vector<VectorId>& ids) {
    return sizeof(DimId) + ids.capacity() * sizeof(VectorId);
  }

  LinkedHashMap<VectorId, ResidualRecord> map_;
  std::unordered_map<DimId, std::vector<VectorId>> prefix_dims_;
  bool track_prefix_dims_;
  size_t bytes_ = 0;  // ApproxBytes()
};

}  // namespace sssj

#endif  // SSSJ_INDEX_RESIDUAL_STORE_H_
