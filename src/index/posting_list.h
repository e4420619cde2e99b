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
//
// A list's header is 32 bytes: the 24-byte column buffer and one pointer
// to its tiering state (frozen blocks, skip and live counts, classifier),
// which only a list that ran MaybeFreeze with tiering enabled allocates.
// An untiered list holds the pointer null and never reads it.
#ifndef SSSJ_INDEX_POSTING_LIST_H_
#define SSSJ_INDEX_POSTING_LIST_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
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

// A tiered list's cold tier and classifier state (PostingList::tier_).
struct TierState {
  std::vector<FrozenBlock> frozen;  // cold tier, oldest block first
  size_t first_skip = 0;            // expired entries at frozen[0]'s front
  size_t frozen_live = 0;           // live entries across all frozen blocks
  uint32_t appends_since_scan = 0;  // dormancy classifier state
  uint32_t scan_gap_ewma = 0;       // EWMA arrivals between scans (ticked)
  uint64_t last_scan_tick = 0;      // arrival counter at the last scan
};

class PostingList {
 public:
  size_t size() const { return frozen_live() + store_.size(); }
  bool empty() const { return size() == 0; }

  // Per-column element access, logical index from the front (oldest).
  // Indices inside the frozen range decompress the containing block per
  // call — a test convenience, not a hot path.
  VectorId id(size_t i) const {
    const size_t fl = frozen_live();
    return i < fl ? FrozenGet(i).id : store_.Get<0>(i - fl);
  }
  double value(size_t i) const {
    const size_t fl = frozen_live();
    return i < fl ? FrozenGet(i).value : store_.Get<1>(i - fl);
  }
  double prefix_norm(size_t i) const {
    const size_t fl = frozen_live();
    return i < fl ? FrozenGet(i).prefix_norm : store_.Get<2>(i - fl);
  }
  Timestamp ts(size_t i) const {
    const size_t fl = frozen_live();
    return i < fl ? FrozenGet(i).ts : store_.Get<3>(i - fl);
  }

  // Materializes one posting as a row (a test convenience;
  // hot loops should use the span walks instead).
  PostingEntry Get(size_t i) const {
    const size_t fl = frozen_live();
    if (i < fl) return FrozenGet(i);
    const size_t t = i - fl;
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
    if (tier_ != nullptr) ++tier_->appends_since_scan;
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
    if (tier_ == nullptr) return;  // the classifier only feeds freezing
    Tier& t = *tier_;
    t.appends_since_scan = 0;
    if (tick != 0) {
      if (t.last_scan_tick != 0 && tick > t.last_scan_tick) {
        const uint64_t gap = tick - t.last_scan_tick;
        const uint64_t ew = (3ull * t.scan_gap_ewma + gap) / 4;
        t.scan_gap_ewma = ew > UINT32_MAX ? UINT32_MAX
                                          : static_cast<uint32_t>(ew);
      }
      t.last_scan_tick = tick;
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
  // so freeze timing is unobservable in engine output. The first call
  // allocates the tiering state; a list runs it after each append, so
  // every append the list has taken counts as one since its last scan.
  void MaybeFreeze(const TieredStorageOptions& opts,
                   size_t* footprint = nullptr) {
    if (!opts.enabled || opts.block_entries == 0) return;
    if (tier_ == nullptr) {
      tier_ = std::make_unique<Tier>();
      tier_->appends_since_scan = static_cast<uint32_t>(store_.size());
      if (footprint != nullptr) *footprint += sizeof(Tier);
    }
    const Tier& t = *tier_;
    const bool compress =
        t.appends_since_scan >= opts.dormant_after_appends ||
        (t.scan_gap_ewma != 0 &&
         size() <= static_cast<uint64_t>(t.scan_gap_ewma) *
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

  size_t frozen_blocks() const {
    return tier_ != nullptr ? tier_->frozen.size() : 0;
  }
  size_t frozen_live_entries() const { return frozen_live(); }

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
    const size_t fl = frozen_live();
    if (end > fl) {  // hot tail first (newest)
      PostingSpan spans[2];
      const size_t n =
          TailSpans(begin > fl ? begin - fl : 0, end - fl, spans);
      for (size_t s = n; s-- > 0;) fn(spans[s]);
    }
    if (begin < fl) {
      const std::vector<FrozenBlock>& frozen = tier_->frozen;
      const size_t fend = end < fl ? end : fl;
      size_t block_end = fl;
      for (size_t b = frozen.size(); b-- > 0 && block_end > begin;) {
        const size_t skip = b == 0 ? tier_->first_skip : 0;
        const size_t live = frozen[b].count() - skip;
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
    const size_t fl = frozen_live();
    if (begin < fl) {
      const std::vector<FrozenBlock>& frozen = tier_->frozen;
      const size_t fend = end < fl ? end : fl;
      size_t block_start = 0;
      size_t skip = tier_->first_skip;
      for (size_t b = 0; b < frozen.size() && block_start < fend; ++b) {
        const size_t live = frozen[b].count() - skip;
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
    const size_t fl = frozen_live();
    assert(begin >= fl);
    return TailSpans(begin - fl, end - fl, out);
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
    if (frozen_live() == 0) {
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
    tier_.reset();
  }

  // The storage an erased list leaves for the next one to adopt: its
  // column block if it is at the initial capacity, and its tiering state,
  // emptied. Either may be null.
  struct Spare {
    ColumnarBuffer<VectorId, double, double, Timestamp>::Block block;
    std::unique_ptr<TierState> tier;

    bool empty() const { return block == nullptr && tier == nullptr; }
    size_t bytes() const;
  };

  // Empties the list, moving what it can reuse into `spare` and freeing
  // the rest (larger blocks, frozen blocks). The list then owns nothing.
  void Release(Spare* spare);
  // Gives an empty list that owns nothing the storage of `spare`.
  void Adopt(Spare&& spare);

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
    if (tier_ != nullptr) {
      for (const FrozenBlock& blk : tier_->frozen) bytes += PayloadBytes(blk);
    }
    return bytes;
  }

 private:
  using ColumnStore = ColumnarBuffer<VectorId, double, double, Timestamp>;
  using Tier = TierState;

  size_t frozen_live() const {
    return tier_ != nullptr ? tier_->frozen_live : 0;
  }

  // The O(1) part of memory_bytes(): object, tail capacity, tiering state
  // and its block slots.
  size_t FixedBytes() const {
    size_t bytes = sizeof(PostingList) + store_.capacity_bytes();
    if (tier_ != nullptr) {
      bytes += sizeof(Tier) + tier_->frozen.capacity() * sizeof(FrozenBlock);
    }
    return bytes;
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
      out[s].begin = segs[s].begin + frozen_live();
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
    const FrozenBlock& blk = tier_->frozen[b];
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

  ColumnStore store_;            // hot mutable tail
  std::unique_ptr<Tier> tier_;   // null until the list first freezes
};

inline size_t PostingList::Spare::bytes() const {
  return (block != nullptr ? ColumnStore::kInitialCapacityBytes : 0) +
         (tier != nullptr ? sizeof(TierState) : 0);
}

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

// The dim -> PostingList table of every stream index. Open addressing
// with linear probing over 16-byte slots, each holding a dim, the index
// of its list in a dense array, and the newest ts among the list's
// postings: a running max, since L2AP re-indexing appends postings with
// old timestamps. Lists are created on first append.
//
// The slot ts lets an index drop a list without reading it.
// EraseListsOlderThan(cutoff) erases every list whose newest posting is
// older than `cutoff`. An index passes a cutoff at or below its own
// expiry cutoff (stream_index.h, DeadListCutoff), so an erased list held
// only postings that every later scan would skip, and erasing it changes
// no pair and no checkpoint. Each list has one entry in a FIFO of
// (dim, ts) checks, armed at its creation: a check whose ts falls below
// the cutoff either erases the list or re-arms it at the list's newest
// ts, so the work is O(1) per list per horizon, not a table sweep.
// An erased list's column block (at the initial capacity) and tiering
// state go to a pool of at most kMaxSpares spares that the next created
// list adopts, so steady-state creation and erasure allocate nothing.
//
// The footprint is a running total: each list mutation goes through here
// and hands the list the total to update, the table, arrays and FIFO are
// read from their capacities, so MemoryBytes() is O(1) and equals the
// RecountMemoryBytes() walk byte for byte.
class PostingMap {
 public:
  // Spares kept for reuse; an erased list beyond this frees its storage.
  static constexpr size_t kMaxSpares = 256;

  PostingList* Find(DimId dim) {
    const size_t pos = FindSlot(dim);
    return pos == kNoSlot ? nullptr : &lists_[slots_[pos].list];
  }

  // Appends one posting to dim's list (created on first use), then lets
  // the list freeze per `tiered` (PostingList::MaybeFreeze).
  void Append(DimId dim, VectorId id, double value, double prefix_norm,
              Timestamp ts, const TieredStorageOptions& tiered) {
    Slot& slot = FindOrCreate(dim, ts);
    if (ts > slot.newest) slot.newest = ts;
    PostingList& list = lists_[slot.list];
    list.Append(id, value, prefix_norm, ts, &payload_bytes_);
    list.MaybeFreeze(tiered, &payload_bytes_);
  }

  // Expiry on a list of this map (from Find), with the total attached.
  size_t TruncateFront(PostingList* list, size_t n) {
    return list->TruncateFront(n, &payload_bytes_);
  }
  size_t CompactExpired(PostingList* list, Timestamp cutoff,
                        FrozenColumns* scratch) {
    return list->CompactExpired(cutoff, scratch, &payload_bytes_);
  }

  // Erases every list whose newest posting is older than `cutoff`, at the
  // latest once every list created or re-armed before it has been checked.
  // Returns the postings the erased lists held. Cutoffs must not
  // decrease from call to call.
  size_t EraseListsOlderThan(Timestamp cutoff);

  void Clear();

  size_t size() const { return live_; }

  // fn(dim, newest ts, list) for every list, in table order.
  template <typename Fn>
  void ForEachList(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.list != kEmpty) fn(slot.dim, slot.newest, lists_[slot.list]);
    }
  }

  // Lists erased, and lists created on a spare, since construction or
  // the last Clear.
  uint64_t lists_erased() const { return erased_; }
  uint64_t lists_recycled() const { return recycled_; }
  size_t spares() const { return spares_.size(); }

  size_t MemoryBytes() const { return FixedBytes() + payload_bytes_; }
  // Test oracle: the same number by walking every list and spare.
  size_t RecountMemoryBytes() const;

 private:
  struct Slot {
    DimId dim = 0;
    uint32_t list = kEmpty;  // index into lists_; kEmpty marks a free slot
    Timestamp newest = 0.0;
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kNoSlot = SIZE_MAX;

  size_t Home(DimId dim) const {
    return static_cast<size_t>((dim * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  // dim's slot, or kNoSlot.
  size_t FindSlot(DimId dim) const {
    if (live_ == 0) return kNoSlot;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(dim);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.list == kEmpty) return kNoSlot;
      if (slot.dim == dim) return i;
    }
  }
  Slot& FindOrCreate(DimId dim, Timestamp ts);
  // Erases the list in slot `pos`; returns the postings it held.
  size_t EraseSlot(size_t pos);
  void Rehash(size_t capacity);
  // Table, header array, free-index stack, spare vector and FIFO.
  size_t FixedBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           lists_.capacity() * sizeof(PostingList) +
           free_.capacity() * sizeof(uint32_t) +
           spares_.capacity() * sizeof(PostingList::Spare) +
           checks_.capacity_bytes();
  }

  std::vector<Slot> slots_;         // power-of-two size, or empty
  int shift_ = 64;                  // 64 - log2(slots_.size())
  std::vector<PostingList> lists_;  // dense; indices in free_ are unused
  std::vector<uint32_t> free_;      // unused indices of lists_
  std::vector<PostingList::Spare> spares_;
  ColumnarBuffer<DimId, Timestamp> checks_;  // FIFO: one (dim, ts) per list
  size_t live_ = 0;                 // lists in the table
  // What the lists own beyond their headers, plus the spares' storage.
  size_t payload_bytes_ = 0;
  uint64_t erased_ = 0;
  uint64_t recycled_ = 0;
};

}  // namespace sssj

#endif  // SSSJ_INDEX_POSTING_LIST_H_
