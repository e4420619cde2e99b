// StreamIndex::CollectLiveItems for every STR index: the in-horizon items
// rebuilt from the index itself, with one read-only scan.
//
// Why nothing is lost: an item inside the time horizon is still held whole
// by the index. STR-INV posts every coordinate. The L2 family posts the
// suffix its bound admits (b2 for STR-L2, min(b1, √bt) for STR-L2AP, whose
// re-indexing only moves coordinates from the prefix to the lists) and
// keeps the prefix in the residual store. Both bounds reach θ by a unit
// vector's last coordinate, with BoundAtLeast's slack absorbing the
// rounding of its norm, so every live L2-family item has a residual record.
// Lists are truncated lazily and still hold expired postings; the scan
// skips them by OutsideHorizon, the test the indexes expire by, and skips
// a whole list unread when its newest posting (the table slot's ts) is
// outside the horizon.
//
// Kept out of the index .cc files on purpose: their scans inline the list
// lookups they make, and extra call sites in the same file measurably slow
// the dense-stream scan.
#include <algorithm>
#include <vector>

#include "index/posting_list.h"
#include "index/residual_store.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"

namespace sssj {

namespace {

struct LiveCoord {
  VectorId id;
  Timestamp ts;
  Coord coord;
};

// Gathers every in-horizon posting of `lists` plus every in-horizon
// residual prefix (null for STR-INV), groups the coordinates by id, and
// appends one item per id in id order.
void CollectFromIndex(const PostingMap& lists, const ResidualStore* residuals,
                      Timestamp newest, double tau, Stream* out) {
  std::vector<LiveCoord> coords;
  FrozenColumns scratch;  // thaws one frozen block at a time
  lists.ForEachList([&](DimId dim, Timestamp list_newest,
                        const PostingList& list) {
    if (OutsideHorizon(list_newest, newest, tau)) return;  // dead list
    list.ForSpansOldestFirst(
        0, list.size(), &scratch, [&](const PostingSpan& sp) {
          for (size_t k = 0; k < sp.len; ++k) {
            if (OutsideHorizon(sp.ts[k], newest, tau)) continue;
            coords.push_back({sp.id[k], sp.ts[k], Coord{dim, sp.value[k]}});
          }
        });
  });
  if (residuals != nullptr) {
    residuals->ForEachInOrder([&](VectorId id, const ResidualRecord& rec) {
      if (OutsideHorizon(rec.ts, newest, tau)) return;
      for (const Coord& c : rec.prefix) coords.push_back({id, rec.ts, c});
    });
  }
  std::sort(coords.begin(), coords.end(),
            [](const LiveCoord& a, const LiveCoord& b) {
              return a.id != b.id ? a.id < b.id : a.coord.dim < b.coord.dim;
            });
  for (size_t begin = 0, end = 0; begin < coords.size(); begin = end) {
    std::vector<Coord> item_coords;
    for (end = begin; end < coords.size() && coords[end].id == coords[begin].id;
         ++end) {
      item_coords.push_back(coords[end].coord);
    }
    StreamItem item;
    item.id = coords[begin].id;
    item.ts = coords[begin].ts;
    item.vec = SparseVector::FromCoords(std::move(item_coords));
    out->push_back(std::move(item));
  }
}

}  // namespace

void StreamInvIndex::CollectLiveItems(Timestamp newest, Stream* out) const {
  CollectFromIndex(lists_, nullptr, newest, tau_, out);
}

void StreamL2Index::CollectLiveItems(Timestamp newest, Stream* out) const {
  CollectFromIndex(lists_, &residuals_, newest, tau_, out);
}

void StreamL2apIndex::CollectLiveItems(Timestamp newest, Stream* out) const {
  CollectFromIndex(lists_, &residuals_, newest, params_.tau, out);
}

}  // namespace sssj
