// Posting list backed by a structure-of-arrays column store (paper §6.2
// implements posting lists as circular byte buffers; here each field is
// its own circular column so scans only stream the columns they read).
//
// Entries are appended in arrival order. For the INV and L2 schemes the
// lists therefore stay sorted by timestamp, which enables two
// optimizations used by the hot scan loops:
//   * the expiry boundary is found by binary search on the `ts` column
//     (LowerBoundTs) instead of per-entry checks, and everything older is
//     truncated in O(log n + shrink);
//   * candidate generation walks raw per-column pointers (Spans), reading
//     only `id`/`ts` densely and touching `value`/`prefix_norm` lazily.
// The L2AP scheme loses the sorted property (re-indexing appends old
// items) and must scan forward, compacting expired entries in place
// (CompactExpired works column-wise and never assumes time order).
//
// Tiered storage (ROADMAP item 2): when enabled via TieredStorageOptions
// a list is two tiers — a cold prefix of immutable FrozenBlocks
// (util/frozen_block.h) followed by the hot mutable circular tail.
// Logical indices still run 0 (oldest, possibly frozen) to size();
// MaybeFreeze migrates the oldest tail entries into blocks using the
// hot/cold classifier (dormancy by appends-since-last-scan, scan rate
// by an EWMA of arrivals between scans): scan-cold lists freeze
// compressed, scan-hot lists freeze raw zero-copy blocks whose columns
// the ForSpans* walks serve directly — only compressed blocks are
// decompressed, one at a time, into caller-owned FrozenColumns scratch.
// Expiry drops whole frozen blocks by their max-ts header; only the
// boundary block's ts stream is ever decoded. Both block forms read back
// bit-identical doubles, so freezing never changes engine output.
#ifndef SSSJ_INDEX_POSTING_LIST_H_
#define SSSJ_INDEX_POSTING_LIST_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "util/columnar_buffer.h"
#include "util/frozen_block.h"

namespace sssj {

// One posting: vector reference, coordinate value, prefix magnitude
// ||y'_j|| (the L2AP/L2 addition; unused by INV), and arrival timestamp.
// The batch indexes store rows of this struct directly; PostingList
// decomposes it into four parallel columns.
struct PostingEntry {
  VectorId id = 0;
  double value = 0.0;
  double prefix_norm = 0.0;
  Timestamp ts = 0.0;
};

// A physically contiguous run of postings: one raw pointer per column,
// all indexed by the same [0, len) offset. `begin` is the logical index
// (from the oldest entry) of the run's first posting. Pointers are
// invalidated by any mutation of the list; pointers into frozen-block
// scratch are additionally invalidated by the next block's decompression
// (consume each span before the walk moves on).
struct PostingSpan {
  const VectorId* id = nullptr;
  const double* value = nullptr;
  const double* prefix_norm = nullptr;
  const Timestamp* ts = nullptr;
  size_t begin = 0;
  size_t len = 0;
};

class PostingList {
 public:
  size_t size() const { return frozen_live_ + store_.size(); }
  bool empty() const { return frozen_live_ == 0 && store_.empty(); }

  // Per-column element access, logical index from the front (oldest).
  // Indices inside the frozen range decompress the containing block per
  // call — a test convenience, not a hot path.
  VectorId id(size_t i) const {
    return i < frozen_live_ ? FrozenGet(i).id
                            : store_.Get<0>(i - frozen_live_);
  }
  double value(size_t i) const {
    return i < frozen_live_ ? FrozenGet(i).value
                            : store_.Get<1>(i - frozen_live_);
  }
  double prefix_norm(size_t i) const {
    return i < frozen_live_ ? FrozenGet(i).prefix_norm
                            : store_.Get<2>(i - frozen_live_);
  }
  Timestamp ts(size_t i) const {
    return i < frozen_live_ ? FrozenGet(i).ts
                            : store_.Get<3>(i - frozen_live_);
  }

  // Materializes one posting as a row (a test convenience;
  // hot loops should use the span walks instead).
  PostingEntry Get(size_t i) const {
    if (i < frozen_live_) return FrozenGet(i);
    const size_t t = i - frozen_live_;
    return PostingEntry{store_.Get<0>(t), store_.Get<1>(t), store_.Get<2>(t),
                        store_.Get<3>(t)};
  }

  // Every mutator that can change memory_bytes() takes an optional
  // `footprint`: a running total that includes this list's
  // memory_bytes(), which the mutator keeps current in time proportional
  // to its own work (PostingMap passes its total). Null skips the upkeep.
  void Append(VectorId id, double value, double prefix_norm, Timestamp ts,
              size_t* footprint = nullptr) {
    const size_t before = store_.capacity_bytes();
    store_.PushBack(id, value, prefix_norm, ts);
    ++appends_since_scan_;
    if (footprint != nullptr) *footprint += store_.capacity_bytes() - before;
  }
  void Append(const PostingEntry& e) {
    Append(e.id, e.value, e.prefix_norm, e.ts);
  }

  // ---- hot/cold classifier + freezing ----

  // Marks the list as scan-active (resets the dormancy counter) and,
  // when the index passes its arrival counter as `tick`, feeds the
  // scan-rate classifier: an EWMA of arrivals elapsed between
  // consecutive scans of this list.
  void NoteScanned(uint64_t tick = 0) {
    appends_since_scan_ = 0;
    if (tick != 0) {
      if (last_scan_tick_ != 0 && tick > last_scan_tick_) {
        const uint64_t gap = tick - last_scan_tick_;
        const uint64_t ew = (3ull * scan_gap_ewma_ + gap) / 4;
        scan_gap_ewma_ = ew > UINT32_MAX ? UINT32_MAX
                                         : static_cast<uint32_t>(ew);
      }
      last_scan_tick_ = tick;
    }
  }

  // Migrates the oldest tail entries into frozen blocks once the mutable
  // tail outgrew dormant_tail_entries by a freeze quantum. Every list
  // keeps the small tail and freezes in quanta, amending the newest
  // block until it fills: raw blocks scan zero-copy, so even a scan-hot
  // list loses nothing by freezing early — it just sheds the circular
  // buffer's power-of-two slack. The classifier only picks the block
  // form:
  //
  //   scan-cold — the list is dormant (many appends, no scans) or its
  //   scan rate is low enough that decompressing it on the rare scan is
  //   cheap (size <= scan_gap * cold_scan_budget, see
  //   TieredStorageOptions). Freezes compressed blocks.
  //
  //   scan-hot — everything else. Freezes raw zero-copy blocks: scans
  //   read them directly (no thaw).
  //
  // No-op unless opts.enabled. Both forms read back the exact doubles,
  // so freeze timing is unobservable in engine output.
  void MaybeFreeze(const TieredStorageOptions& opts,
                   size_t* footprint = nullptr) {
    if (!opts.enabled || opts.block_entries == 0) return;
    const bool compress =
        appends_since_scan_ >= opts.dormant_after_appends ||
        (scan_gap_ewma_ != 0 &&
         size() <= static_cast<uint64_t>(scan_gap_ewma_) *
                       opts.cold_scan_budget);
    size_t quantum = opts.cold_freeze_quantum != 0 ? opts.cold_freeze_quantum
                                                   : opts.block_entries;
    // Each amend rewrites the whole newest block, so a small quantum on a
    // frequently appended list is churn. For raw blocks — the scan-hot
    // head lists, which also absorb most appends — batch at least a
    // quarter block per amend: the extra mutable-tail slack lives on only
    // those few lists, while the memcpy traffic drops by
    // block/(4*quantum).
    if (!compress && quantum < opts.block_entries / 4) {
      quantum = opts.block_entries / 4;
    }
    const size_t keep = opts.dormant_tail_entries;
    if (store_.size() >= keep + quantum) {
      FootprintScope scope(this, footprint);
      FreezeQuantum(store_.size() - keep, opts.block_entries, compress,
                    &scope);
    }
  }

  size_t frozen_blocks() const { return frozen_.size(); }
  size_t frozen_live_entries() const { return frozen_live_; }

  // ---- iteration ----

  // Block-cursor walks over the logical range [begin, end): fn(span) is
  // invoked once per physically contiguous run — newest-to-oldest or
  // oldest-to-newest — covering the hot tail's (≤2) segments directly
  // and each intersecting frozen block decompressed into `scratch`.
  // Entries inside every span always appear oldest→newest; the *order of
  // spans* carries the direction, exactly like the two-segment walks the
  // untiered list produced — so per-candidate FP accumulation order, and
  // with it the determinism contract, is unchanged. Span pointers into
  // `scratch` die when the next block is thawed: consume each span
  // before returning from fn. Do not mutate the list from the callback.
  template <typename Fn>
  void ForSpansNewestFirst(size_t begin, size_t end, FrozenColumns* scratch,
                           Fn&& fn) const {
    const size_t fl = frozen_live_;
    if (end > fl) {  // hot tail first (newest)
      PostingSpan spans[2];
      const size_t n =
          TailSpans(begin > fl ? begin - fl : 0, end - fl, spans);
      for (size_t s = n; s-- > 0;) fn(spans[s]);
    }
    if (begin < fl) {
      const size_t fend = end < fl ? end : fl;
      size_t block_end = fl;
      for (size_t b = frozen_.size(); b-- > 0 && block_end > begin;) {
        const size_t skip = b == 0 ? first_skip_ : 0;
        const size_t live = frozen_[b].count() - skip;
        const size_t block_start = block_end - live;
        if (block_start < fend) {
          EmitFrozenSpan(b, skip, block_start,
                         begin > block_start ? begin - block_start : 0,
                         fend < block_end ? fend - block_start : live,
                         scratch, fn);
        }
        block_end = block_start;
      }
    }
  }

  template <typename Fn>
  void ForSpansOldestFirst(size_t begin, size_t end, FrozenColumns* scratch,
                           Fn&& fn) const {
    const size_t fl = frozen_live_;
    if (begin < fl) {
      const size_t fend = end < fl ? end : fl;
      size_t block_start = 0;
      size_t skip = first_skip_;
      for (size_t b = 0; b < frozen_.size() && block_start < fend; ++b) {
        const size_t live = frozen_[b].count() - skip;
        const size_t block_end = block_start + live;
        if (block_end > begin) {
          EmitFrozenSpan(b, skip, block_start,
                         begin > block_start ? begin - block_start : 0,
                         fend < block_end ? fend - block_start : live,
                         scratch, fn);
        }
        block_start = block_end;
        skip = 0;
      }
    }
    if (end > fl) {
      PostingSpan spans[2];
      const size_t n =
          TailSpans(begin > fl ? begin - fl : 0, end - fl, spans);
      for (size_t s = 0; s < n; ++s) fn(spans[s]);
    }
  }

  // Applies fn(span, k) to every posting of the logical range [begin,
  // end), walking newest → oldest (the scan order of the time-sorted
  // schemes) or oldest → newest (L2AP's forward scan). The callback
  // indexes the span's columns itself, so it reads only the columns it
  // needs. Do not mutate the list from the callback.
  template <typename Fn>
  void ForEachNewestFirst(size_t begin, size_t end, FrozenColumns* scratch,
                          Fn&& fn) const {
    ForSpansNewestFirst(begin, end, scratch, [&fn](const PostingSpan& sp) {
      for (size_t k = sp.len; k-- > 0;) fn(sp, k);
    });
  }
  template <typename Fn>
  void ForEachOldestFirst(size_t begin, size_t end, FrozenColumns* scratch,
                          Fn&& fn) const {
    ForSpansOldestFirst(begin, end, scratch, [&fn](const PostingSpan& sp) {
      for (size_t k = 0; k < sp.len; ++k) fn(sp, k);
    });
  }

  // Maps the logical range [begin, end) — which must lie entirely in the
  // hot tail (begin >= frozen_live_entries(); trivially true for
  // untiered lists) — onto at most two contiguous per-column pointer
  // runs. Returns the number of spans written. Ranges that may reach the
  // frozen tier must use the ForSpans* walks instead.
  size_t Spans(size_t begin, size_t end, PostingSpan out[2]) const {
    assert(begin >= frozen_live_);
    return TailSpans(begin - frozen_live_, end - frozen_live_, out);
  }

  // ---- expiry ----

  // First logical index with ts >= cutoff — the number of expired entries
  // — found by binary search. Valid ONLY while the list is time-sorted
  // (INV/L2; never re-indexed), where ts is non-decreasing front to back.
  // The oldest entry is probed first so the common no-expiry case costs a
  // single predictable branch instead of a full search. Frozen blocks are
  // skipped whole by their max-ts header; only the boundary block's ts
  // stream is decoded.
  size_t LowerBoundTs(Timestamp cutoff) const {
    if (frozen_live_ == 0) {
      if (store_.empty() || store_.Get<3>(0) >= cutoff) return 0;
      return LowerBoundTsSlow(cutoff);
    }
    return LowerBoundTsTiered(cutoff);
  }

  // Drops the `n` oldest entries (expiry truncation, time-sorted lists
  // only). Returns n for convenience. Wholly expired frozen blocks are
  // dropped without touching their bytes; a partially expired boundary
  // block just advances the list's skip offset.
  size_t TruncateFront(size_t n, size_t* footprint = nullptr);

  // Removes every entry with ts < cutoff, preserving order (forward
  // compaction, used by L2AP whose lists are not time-sorted). Returns
  // the number of removed entries. Frozen blocks whose max_ts is older
  // than the cutoff are dropped whole; straddling blocks are thawed
  // (into `scratch` when given), filtered, and re-frozen in their own
  // form.
  size_t CompactExpired(Timestamp cutoff, FrozenColumns* scratch = nullptr,
                        size_t* footprint = nullptr);

  void Clear() {
    store_.Clear();
    frozen_.clear();
    first_skip_ = 0;
    frozen_live_ = 0;
    appends_since_scan_ = 0;
    scan_gap_ewma_ = 0;
    last_scan_tick_ = 0;
  }

  // True per-column footprint of the mutable tail's backing store, in
  // bytes (the pre-tiering meaning, kept for the buffer-level tests).
  size_t capacity_bytes() const { return store_.capacity_bytes(); }

  // Full allocated footprint: the list object itself (classifier state,
  // buffer headers), mutable-tail capacity, compressed frozen blocks, and
  // per-block bookkeeping — strictly larger than capacity_bytes(), never
  // payload-only. A walk over the frozen blocks: indexes keep the sum
  // over their lists as a running total instead (the mutators'
  // `footprint`), and this is the oracle that total is tested against.
  size_t memory_bytes() const {
    size_t bytes = FixedBytes();
    for (const FrozenBlock& blk : frozen_) bytes += PayloadBytes(blk);
    return bytes;
  }

 private:
  using ColumnStore = ColumnarBuffer<VectorId, double, double, Timestamp>;

  // The O(1) part of memory_bytes(): object, tail capacity, block slots.
  size_t FixedBytes() const {
    return sizeof(PostingList) + store_.capacity_bytes() +
           frozen_.capacity() * sizeof(FrozenBlock);
  }
  // A frozen block's allocation beyond its slot in frozen_.
  static size_t PayloadBytes(const FrozenBlock& blk) {
    return blk.memory_bytes() - sizeof(FrozenBlock);
  }

  // Keeps a caller's running footprint in step with one mutation without
  // re-walking the frozen blocks: the O(1) part is diffed when the scope
  // ends, and the mutation reports each block it adds or drops. Unsigned
  // wrap-around turns a shrink into a subtraction. A null total makes
  // every call a no-op.
  class FootprintScope {
   public:
    FootprintScope(const PostingList* list, size_t* total)
        : list_(list), total_(total),
          fixed_(total != nullptr ? list->FixedBytes() : 0) {}
    ~FootprintScope() {
      if (total_ != nullptr) *total_ += list_->FixedBytes() - fixed_;
    }
    FootprintScope(const FootprintScope&) = delete;
    FootprintScope& operator=(const FootprintScope&) = delete;

    void Add(const FrozenBlock& blk) {
      if (total_ != nullptr) *total_ += PayloadBytes(blk);
    }
    void Drop(const FrozenBlock& blk) {
      if (total_ != nullptr) *total_ -= PayloadBytes(blk);
    }

   private:
    const PostingList* list_;
    size_t* total_;
    size_t fixed_;
  };

  size_t LowerBoundTsSlow(Timestamp cutoff) const;  // tail-relative
  size_t LowerBoundTsTiered(Timestamp cutoff) const;
  PostingEntry FrozenGet(size_t i) const;
  void FreezeFront(size_t n, bool compress, FootprintScope* scope);
  // Rewrites the front block without its consumed (first_skip_) prefix,
  // reclaiming the dead bytes. Requires a non-empty frozen_ and
  // first_skip_ > 0.
  void CompactFrontBlock(FootprintScope* scope);
  void FreezeQuantum(size_t n, size_t block_entries, bool compress,
                     FootprintScope* scope);
  size_t CompactExpiredTail(Timestamp cutoff);

  // Tail-relative span mapping; out[s].begin is reported in full logical
  // coordinates (offset by the frozen live count).
  size_t TailSpans(size_t begin, size_t end, PostingSpan out[2]) const {
    ColumnStore::Segment segs[2];
    const size_t n = store_.Segments(begin, end, segs);
    for (size_t s = 0; s < n; ++s) {
      out[s].id = store_.ColumnData<0>() + segs[s].phys;
      out[s].value = store_.ColumnData<1>() + segs[s].phys;
      out[s].prefix_norm = store_.ColumnData<2>() + segs[s].phys;
      out[s].ts = store_.ColumnData<3>() + segs[s].phys;
      out[s].begin = segs[s].begin + frozen_live_;
      out[s].len = segs[s].len;
    }
    return n;
  }

  // Emits block b's [lo, hi) live sub-range (block-local, after `skip`)
  // as one span at logical `block_start`. Raw blocks are served
  // zero-copy straight from their columns; compressed blocks thaw into
  // scratch first.
  template <typename Fn>
  void EmitFrozenSpan(size_t b, size_t skip, size_t block_start, size_t lo,
                      size_t hi, FrozenColumns* scratch, Fn&& fn) const {
    if (hi <= lo) return;
    const FrozenBlock& blk = frozen_[b];
    PostingSpan sp;
    if (!blk.compressed()) {
      sp.id = blk.raw_id() + skip + lo;
      sp.value = blk.raw_value() + skip + lo;
      sp.ts = blk.raw_ts() + skip + lo;
      const double* pn = blk.raw_prefix_norm();
      if (pn == nullptr) {
        // Elided all-zero column: the span contract promises readable
        // pointers, so serve the scratch's always-zero buffer (grow-only
        // — no per-scan memset).
        if (scratch->zeros.size() < hi - lo) {
          scratch->zeros.resize(hi - lo, 0.0);
        }
        sp.prefix_norm = scratch->zeros.data();
      } else {
        sp.prefix_norm = pn + skip + lo;
      }
    } else {
      // Blocks whose value column fell back to raw fp64 serve it straight
      // from the compressed buffer; only id/ts need decode.
      const double* inline_vals = blk.inline_exact_values();
      blk.Thaw(scratch, /*fill_elided_prefix_norm=*/false,
               /*skip_value=*/inline_vals != nullptr);
      sp.id = scratch->id.data() + skip + lo;
      sp.value = (inline_vals != nullptr ? inline_vals
                                         : scratch->value.data()) +
                 skip + lo;
      sp.ts = scratch->ts.data() + skip + lo;
      if (blk.has_prefix_norm()) {
        sp.prefix_norm = scratch->prefix_norm.data() + skip + lo;
      } else {
        if (scratch->zeros.size() < hi - lo) {
          scratch->zeros.resize(hi - lo, 0.0);
        }
        sp.prefix_norm = scratch->zeros.data();
      }
    }
    sp.begin = block_start + lo;
    sp.len = hi - lo;
    fn(sp);
  }

  ColumnStore store_;               // hot mutable tail
  std::vector<FrozenBlock> frozen_; // cold tier, oldest block first
  size_t first_skip_ = 0;           // expired entries at frozen_[0]'s front
  size_t frozen_live_ = 0;          // live entries across all frozen blocks
  uint32_t appends_since_scan_ = 0; // dormancy classifier state
  uint32_t scan_gap_ewma_ = 0;      // EWMA arrivals between scans (ticked)
  uint64_t last_scan_tick_ = 0;     // arrival counter at the last scan
};

// Append-only SoA posting storage for the batch (MB) indexes: the same
// four columns as PostingList without the circular machinery — a window
// index is built once, queried, and cleared, so nothing is ever removed
// from the front. The probe loops read whole contiguous columns, which is
// what lets the scoring kernels (index/kernels.h) batch the per-entry
// products.
class BatchPostingList {
 public:
  size_t size() const { return id_.size(); }
  bool empty() const { return id_.empty(); }

  void Append(VectorId id, double value, double prefix_norm, Timestamp ts) {
    id_.push_back(id);
    value_.push_back(value);
    prefix_norm_.push_back(prefix_norm);
    ts_.push_back(ts);
  }

  const VectorId* id() const { return id_.data(); }
  const double* value() const { return value_.data(); }
  const double* prefix_norm() const { return prefix_norm_.data(); }
  const Timestamp* ts() const { return ts_.data(); }

  void Clear() {
    id_.clear();
    value_.clear();
    prefix_norm_.clear();
    ts_.clear();
  }

  // True per-column footprint of the backing vectors, in bytes.
  size_t capacity_bytes() const {
    return id_.capacity() * sizeof(VectorId) +
           value_.capacity() * sizeof(double) +
           prefix_norm_.capacity() * sizeof(double) +
           ts_.capacity() * sizeof(Timestamp);
  }

 private:
  std::vector<VectorId> id_;
  std::vector<double> value_;
  std::vector<double> prefix_norm_;
  std::vector<Timestamp> ts_;
};

// Allocated footprint of an unordered_map<DimId, PostingList> posting
// container, including what the per-payload `capacity_bytes` view used
// to miss: the PostingList object headers inside the map nodes, the
// node-overhead of the chaining hash map (hash link + bucket chain
// pointer per node, approximated at two pointers), and the bucket
// array — capacity, not payload. A walk over every list: PostingMap
// keeps the same number as a running total, and this is its oracle.
template <typename Map>
size_t PostingMapMemoryBytes(const Map& lists) {
  size_t bytes = lists.bucket_count() * sizeof(void*);
  for (const auto& [dim, list] : lists) {
    // memory_bytes() already covers the PostingList object itself; add
    // only the key (with pair padding) and the node-link overhead here.
    bytes += sizeof(typename Map::value_type) - sizeof(PostingList) +
             2 * sizeof(void*);
    bytes += list.memory_bytes();
  }
  return bytes;
}

// The dim -> PostingList container of every stream index, with its
// footprint kept as a running total: each list mutation goes through
// here and hands the list the total to update, so MemoryBytes() is O(1)
// and equals the PostingMapMemoryBytes walk byte for byte. Lists are
// created on first append and never erased individually.
class PostingMap {
 public:
  using Map = std::unordered_map<DimId, PostingList>;

  PostingList* Find(DimId dim) {
    auto it = lists_.find(dim);
    return it == lists_.end() ? nullptr : &it->second;
  }

  // dim's list, created empty on first use.
  PostingList* FindOrCreate(DimId dim) {
    auto [it, inserted] = lists_.try_emplace(dim);
    if (inserted) bytes_ += kNodeBytes + it->second.memory_bytes();
    return &it->second;
  }

  // Appends one posting to dim's list, then lets the list freeze per
  // `tiered` (PostingList::MaybeFreeze).
  void Append(DimId dim, VectorId id, double value, double prefix_norm,
              Timestamp ts, const TieredStorageOptions& tiered) {
    PostingList* list = FindOrCreate(dim);
    list->Append(id, value, prefix_norm, ts, &bytes_);
    list->MaybeFreeze(tiered, &bytes_);
  }

  // Expiry on a list of this map (from Find), with the total attached.
  size_t TruncateFront(PostingList* list, size_t n) {
    return list->TruncateFront(n, &bytes_);
  }
  size_t CompactExpired(PostingList* list, Timestamp cutoff,
                        FrozenColumns* scratch) {
    return list->CompactExpired(cutoff, scratch, &bytes_);
  }

  void Clear() {
    lists_.clear();
    bytes_ = 0;
  }

  size_t size() const { return lists_.size(); }
  Map::const_iterator begin() const { return lists_.begin(); }
  Map::const_iterator end() const { return lists_.end(); }

  // The bucket array is sized by the map itself, so it is read here
  // rather than tracked; everything else is the running total.
  size_t MemoryBytes() const {
    return lists_.bucket_count() * sizeof(void*) + bytes_;
  }
  // Test oracle: the same number by walking every list.
  size_t RecountMemoryBytes() const { return PostingMapMemoryBytes(lists_); }

 private:
  // Per-node overhead the walk adds on top of each list's memory_bytes().
  static constexpr size_t kNodeBytes =
      sizeof(Map::value_type) - sizeof(PostingList) + 2 * sizeof(void*);

  Map lists_;
  size_t bytes_ = 0;  // node overhead + memory_bytes() over every list
};

}  // namespace sssj

#endif  // SSSJ_INDEX_POSTING_LIST_H_
