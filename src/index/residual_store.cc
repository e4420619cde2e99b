#include "index/residual_store.h"

namespace sssj {

void ResidualStore::Insert(VectorId id, ResidualRecord rec) {
  if (const ResidualRecord* old = map_.find(id)) bytes_ -= RecordBytes(*old);
  bytes_ += RecordBytes(rec);
  const ResidualRecord& stored = map_.insert(id, std::move(rec));
  if (track_prefix_dims_) RegisterPrefixDims(id, stored.prefix);
}

void ResidualStore::UpdatePrefix(VectorId id, size_t keep, double q) {
  ResidualRecord* rec = map_.find(id);
  if (rec == nullptr) return;
  if (keep < rec->prefix.nnz()) {
    bytes_ -= (rec->prefix.nnz() - keep) * sizeof(Coord);
    rec->prefix = rec->prefix.Prefix(keep);
  }
  rec->q = q;
}

void ResidualStore::ExpireOlderThan(Timestamp cutoff) {
  while (!map_.empty() && map_.front().second.ts < cutoff) {
    const auto& [id, rec] = map_.front();
    bytes_ -= RecordBytes(rec);
    if (track_prefix_dims_) DropExpiredPrefixDims(id, rec.prefix);
    map_.pop_front();
  }
}

void ResidualStore::DropExpiredPrefixDims(VectorId id,
                                          const SparseVector& prefix) {
  // Ids join a dim's entry in insertion order, and records expire in
  // that order, so an entry whose newest id is expiring lists only
  // expired ids. Other stale ids are cleaned lazily, when the dim is
  // next visited (ForEachWithPrefixDim).
  for (const Coord& c : prefix) {
    auto it = prefix_dims_.find(c.dim);
    if (it != prefix_dims_.end() && it->second.back() <= id) {
      bytes_ -= PrefixDimBytes(it->second);
      prefix_dims_.erase(it);
    }
  }
}

void ResidualStore::Clear() {
  map_.clear();
  prefix_dims_.clear();
  bytes_ = 0;
}

size_t ResidualStore::RecountApproxBytes() const {
  size_t bytes = 0;
  for (const auto& [id, rec] : map_) bytes += RecordBytes(rec);
  for (const auto& [dim, ids] : prefix_dims_) bytes += PrefixDimBytes(ids);
  return bytes;
}

void ResidualStore::RegisterPrefixDims(VectorId id,
                                       const SparseVector& prefix) {
  for (const Coord& c : prefix) {
    auto [it, inserted] = prefix_dims_.try_emplace(c.dim);
    std::vector<VectorId>& ids = it->second;
    const size_t before = inserted ? 0 : PrefixDimBytes(ids);
    ids.push_back(id);
    bytes_ += PrefixDimBytes(ids) - before;
  }
}

}  // namespace sssj
