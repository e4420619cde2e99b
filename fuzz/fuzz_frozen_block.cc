// Fuzz target for util/frozen_block.h: Freeze → Thaw round-trips over
// fuzz-derived posting columns, compressed and raw, one- and two-run
// (wrapped circular tail) sources. Invariants:
//
//   * Freeze/Thaw never crash or read out of bounds for any column
//     contents (including NaN / infinity / denormal doubles);
//   * all four columns round-trip bit-exactly in both forms;
//   * CountOlderThan agrees with a linear scan whenever the block
//     reports time_sorted().
//
// Input: one config byte, then 32 bytes per entry (id, value,
// prefix_norm, ts). Config bit 2 selects the compressed form, bit 3 a
// two-run split at n/2; bits 0-1 and 4-7 are unused.
#undef NDEBUG
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/frozen_block.h"

using sssj::FrozenBlock;
using sssj::FrozenColumns;
using sssj::FrozenSourceRun;
using sssj::Timestamp;
using sssj::VectorId;

namespace {

constexpr size_t kMaxEntries = 4096;

struct Columns {
  std::vector<VectorId> id;
  std::vector<double> value;
  std::vector<double> prefix_norm;
  std::vector<Timestamp> ts;
};

// Leading entries with ts < cutoff, stopping at the first >= — the
// definition CountOlderThan implements for time-sorted blocks.
size_t LeadingOlderThan(const std::vector<Timestamp>& ts, Timestamp cutoff) {
  size_t n = 0;
  while (n < ts.size() && ts[n] < cutoff) ++n;
  return n;
}

void CheckOneConfig(const Columns& cols, size_t split, bool compress) {
  const size_t n = cols.id.size();
  FrozenSourceRun runs[2];
  runs[0] = {cols.id.data(), cols.value.data(), cols.prefix_norm.data(),
             cols.ts.data(), split};
  runs[1] = {cols.id.data() + split, cols.value.data() + split,
             cols.prefix_norm.data() + split, cols.ts.data() + split,
             n - split};
  const size_t nruns = (split == 0 || split == n) ? 1 : 2;
  const FrozenSourceRun* first = (split == 0) ? &runs[1] : &runs[0];

  const FrozenBlock block = FrozenBlock::Freeze(first, nruns, compress);
  assert(block.count() == n);

  FrozenColumns out;
  block.Thaw(&out);
  assert(out.id.size() == n && out.ts.size() == n);
  assert(std::memcmp(out.id.data(), cols.id.data(), n * sizeof(VectorId)) ==
         0);
  assert(std::memcmp(out.ts.data(), cols.ts.data(), n * sizeof(Timestamp)) ==
         0);
  assert(std::memcmp(out.value.data(), cols.value.data(),
                     n * sizeof(double)) == 0);
  assert(std::memcmp(out.prefix_norm.data(), cols.prefix_norm.data(),
                     n * sizeof(double)) == 0);

  // Thaw again skipping the value column — id/ts must be unaffected.
  FrozenColumns skipped;
  block.Thaw(&skipped, /*fill_elided_prefix_norm=*/false,
             /*skip_value=*/true);
  assert(std::memcmp(skipped.id.data(), cols.id.data(),
                     n * sizeof(VectorId)) == 0);
  assert(std::memcmp(skipped.ts.data(), cols.ts.data(),
                     n * sizeof(Timestamp)) == 0);

  bool any_nan = false;
  for (const Timestamp t : cols.ts) any_nan |= std::isnan(t);
  if (!any_nan && n != 0) {
    Timestamp lo = cols.ts[0], hi = cols.ts[0];
    for (const Timestamp t : cols.ts) {
      if (t < lo) lo = t;
      if (t > hi) hi = t;
    }
    assert(block.min_ts() == lo && block.max_ts() == hi);
  }

  // NaN timestamps never reach the index (Push rejects them as time
  // regressions), and they make time_sorted()/CountOlderThan semantics
  // vacuous (NaN comparisons are all false) — so the reference model is
  // only meaningful on NaN-free columns.
  if (block.time_sorted() && !any_nan) {
    const Timestamp probes[] = {block.min_ts(), block.max_ts(),
                                cols.ts[n / 2],
                                std::nextafter(block.max_ts(),
                                               std::numeric_limits<
                                                   Timestamp>::infinity())};
    for (const Timestamp cutoff : probes) {
      assert(block.CountOlderThan(cutoff) ==
             LeadingOlderThan(cols.ts, cutoff));
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 1) return 0;
  const uint8_t cfg = data[0];
  ++data;
  --size;

  // 32 bytes per entry: id, value, prefix_norm, ts.
  const size_t n = std::min(size / 32, kMaxEntries);
  if (n == 0) return 0;  // empty blocks are never frozen by the index
  Columns cols;
  cols.id.resize(n);
  cols.value.resize(n);
  cols.prefix_norm.resize(n);
  cols.ts.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* rec = data + i * 32;
    std::memcpy(&cols.id[i], rec, 8);
    std::memcpy(&cols.value[i], rec + 8, 8);
    std::memcpy(&cols.prefix_norm[i], rec + 16, 8);
    std::memcpy(&cols.ts[i], rec + 24, 8);
  }

  const bool compress = (cfg & 4) != 0;
  const size_t split = (cfg & 8) != 0 ? n / 2 : n;
  CheckOneConfig(cols, split, compress);
  return 0;
}
