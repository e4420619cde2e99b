// A timestamped vector in the input stream.
#ifndef SSSJ_CORE_STREAM_ITEM_H_
#define SSSJ_CORE_STREAM_ITEM_H_

#include <cstddef>
#include <vector>

#include "core/sparse_vector.h"
#include "core/types.h"

namespace sssj {

struct StreamItem {
  VectorId id = 0;
  Timestamp ts = 0.0;
  SparseVector vec;
};

// A finite prefix of a stream, time-ordered (non-decreasing ts). Used by
// tests, generators, and the mini-batch window buffers.
using Stream = std::vector<StreamItem>;

// Resident bytes of one buffered item (the header plus its coordinates),
// as the cores that buffer items count them in MemoryBytes().
inline size_t StreamItemBytes(const StreamItem& item) {
  return sizeof(StreamItem) + item.vec.nnz() * sizeof(Coord);
}

// True iff timestamps are non-decreasing and ids strictly increasing.
inline bool IsTimeOrdered(const Stream& s) {
  for (size_t i = 1; i < s.size(); ++i) {
    if (s[i].ts < s[i - 1].ts) return false;
    if (s[i].id <= s[i - 1].id) return false;
  }
  return true;
}

}  // namespace sssj

#endif  // SSSJ_CORE_STREAM_ITEM_H_
