#include "index/posting_list.h"

namespace sssj {

size_t PostingList::LowerBoundTsSlow(Timestamp cutoff) const {
  size_t lo = 1;  // caller already probed the front entry
  size_t hi = store_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (store_.Get<3>(mid) < cutoff) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t PostingList::LowerBoundTsTiered(Timestamp cutoff) const {
  // Time-sorted list: blocks are in time order, so the boundary lives in
  // the first block whose max_ts survives the cutoff. Whole expired
  // blocks are counted by header alone.
  size_t expired = 0;
  size_t skip = first_skip_;
  for (const FrozenBlock& blk : frozen_) {
    const size_t live = blk.count() - skip;
    if (blk.max_ts() < cutoff) {
      expired += live;
      skip = 0;
      continue;
    }
    const size_t older = blk.CountOlderThan(cutoff);
    return expired + (older > skip ? older - skip : 0);
  }
  // Every frozen entry expired; the boundary is in the tail.
  if (store_.empty() || store_.Get<3>(0) >= cutoff) return expired;
  return expired + LowerBoundTsSlow(cutoff);
}

size_t PostingList::TruncateFront(size_t n, size_t* footprint) {
  FootprintScope scope(this, footprint);
  size_t left = n;
  size_t drop = 0;
  size_t skip = first_skip_;
  while (left > 0 && drop < frozen_.size()) {
    const size_t live = frozen_[drop].count() - skip;
    if (left >= live) {
      left -= live;
      frozen_live_ -= live;
      scope.Drop(frozen_[drop]);
      ++drop;
      skip = 0;
    } else {
      skip += left;
      frozen_live_ -= left;
      left = 0;
    }
  }
  if (drop > 0) {
    frozen_.erase(frozen_.begin(),
                  frozen_.begin() + static_cast<ptrdiff_t>(drop));
  }
  first_skip_ = frozen_.empty() ? 0 : skip;
  if (left > 0) store_.TruncateFront(left);
  // Consumed entries inside the straddling front block are dead bytes
  // until the block is rewritten. Rewrite once the block is half dead:
  // the live suffix shrinks geometrically across rewrites, so the cost
  // amortizes to O(1) per consumed entry, and no list ever retains more
  // dead frozen entries than live ones in its front block.
  if (first_skip_ > 0 && first_skip_ * 2 >= frozen_.front().count()) {
    CompactFrontBlock(&scope);
  }
  return n;
}

void PostingList::CompactFrontBlock(FootprintScope* scope) {
  FrozenBlock& blk = frozen_.front();
  scope->Drop(blk);
  FrozenColumns cols;
  blk.Thaw(&cols);
  FrozenSourceRun run;
  run.id = cols.id.data() + first_skip_;
  run.value = cols.value.data() + first_skip_;
  run.prefix_norm = cols.prefix_norm.data() + first_skip_;
  run.ts = cols.ts.data() + first_skip_;
  run.len = blk.count() - first_skip_;
  blk = FrozenBlock::Freeze(&run, 1, blk.compressed());
  scope->Add(blk);
  first_skip_ = 0;
}

size_t PostingList::CompactExpiredTail(Timestamp cutoff) {
  const size_t n = store_.size();
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    if (store_.Get<3>(i) >= cutoff) {
      if (w != i) store_.MoveElement(w, i);
      ++w;
    }
  }
  const size_t removed = n - w;
  store_.TruncateBack(removed);
  return removed;
}

size_t PostingList::CompactExpired(Timestamp cutoff, FrozenColumns* scratch,
                                   size_t* footprint) {
  FootprintScope scope(this, footprint);
  size_t removed = 0;
  if (!frozen_.empty()) {
    FrozenColumns local;
    FrozenColumns* cols = scratch != nullptr ? scratch : &local;
    std::vector<FrozenBlock> kept;
    kept.reserve(frozen_.size());
    size_t skip = first_skip_;
    for (FrozenBlock& blk : frozen_) {
      const size_t live = blk.count() - skip;
      if (skip == 0 && blk.min_ts() >= cutoff) {
        kept.push_back(std::move(blk));  // fully live
      } else if (blk.max_ts() < cutoff) {
        removed += live;  // fully expired: drop without touching bytes
        scope.Drop(blk);
      } else {
        // Straddling block (or a fully-live one carrying a skip): thaw,
        // filter survivors in order, re-freeze in the block's own
        // physical form.
        blk.Thaw(cols);
        size_t w = skip;
        for (size_t i = skip; i < blk.count(); ++i) {
          if (cols->ts[i] >= cutoff) {
            cols->id[w] = cols->id[i];
            cols->value[w] = cols->value[i];
            cols->prefix_norm[w] = cols->prefix_norm[i];
            cols->ts[w] = cols->ts[i];
            ++w;
          }
        }
        const size_t survivors = w - skip;
        removed += live - survivors;
        scope.Drop(blk);
        if (survivors > 0) {
          FrozenSourceRun run;
          run.id = cols->id.data() + skip;
          run.value = cols->value.data() + skip;
          run.prefix_norm = cols->prefix_norm.data() + skip;
          run.ts = cols->ts.data() + skip;
          run.len = survivors;
          kept.push_back(FrozenBlock::Freeze(&run, 1, blk.compressed()));
          scope.Add(kept.back());
        }
      }
      skip = 0;
    }
    frozen_ = std::move(kept);
    first_skip_ = 0;
    frozen_live_ -= removed;
  }
  return removed + CompactExpiredTail(cutoff);
}

PostingEntry PostingList::FrozenGet(size_t i) const {
  size_t skip = first_skip_;
  size_t start = 0;
  for (const FrozenBlock& blk : frozen_) {
    const size_t live = blk.count() - skip;
    if (i < start + live) {
      FrozenColumns cols;
      blk.Thaw(&cols);
      const size_t k = skip + (i - start);
      return PostingEntry{cols.id[k], cols.value[k], cols.prefix_norm[k],
                          cols.ts[k]};
    }
    start += live;
    skip = 0;
  }
  assert(false && "frozen index out of range");
  return PostingEntry{};
}

void PostingList::FreezeQuantum(size_t n, size_t block_entries,
                                bool compress, FootprintScope* scope) {
  // Amend path: extend the newest block with the oldest tail entries
  // (thaw + concatenate + re-freeze) until it holds block_entries, then
  // start fresh blocks. Keeps the freeze quantum small without a header
  // per tiny block; re-freezing at the caller's `compress` choice also
  // migrates the boundary block's form when a list's scan rate flips.
  // The thaw scratch is local — this runs once per cold_freeze_quantum
  // appends, and for raw blocks the thaw is a memcpy.
  while (n > 0) {
    FrozenBlock* last = frozen_.empty() ? nullptr : &frozen_.back();
    // When the newest block is also the front block, its consumed prefix
    // (first_skip_) is dead — the re-freeze below rewrites the block
    // anyway, so dropping the prefix is free compaction.
    const size_t drop = frozen_.size() == 1 ? first_skip_ : 0;
    const bool amend =
        last != nullptr && last->count() - drop < block_entries;
    if (!amend) {
      const size_t take = n < block_entries ? n : block_entries;
      FreezeFront(take, compress, scope);
      n -= take;
      continue;
    }
    const size_t old = last->count() - drop;
    const size_t room = block_entries - old;
    const size_t take = n < room ? n : room;
    FrozenColumns cols;
    last->Thaw(&cols);
    cols.id.resize(drop + old + take);
    cols.value.resize(drop + old + take);
    cols.prefix_norm.resize(drop + old + take);
    cols.ts.resize(drop + old + take);
    for (size_t i = 0; i < take; ++i) {
      cols.id[drop + old + i] = store_.Get<0>(i);
      cols.value[drop + old + i] = store_.Get<1>(i);
      cols.prefix_norm[drop + old + i] = store_.Get<2>(i);
      cols.ts[drop + old + i] = store_.Get<3>(i);
    }
    FrozenSourceRun run;
    run.id = cols.id.data() + drop;
    run.value = cols.value.data() + drop;
    run.prefix_norm = cols.prefix_norm.data() + drop;
    run.ts = cols.ts.data() + drop;
    run.len = old + take;
    scope->Drop(*last);
    *last = FrozenBlock::Freeze(&run, 1, compress);
    scope->Add(*last);
    if (drop > 0) first_skip_ = 0;
    frozen_live_ += take;
    store_.TruncateFront(take);
    n -= take;
  }
}

void PostingList::FreezeFront(size_t n, bool compress,
                              FootprintScope* scope) {
  ColumnStore::Segment segs[2];
  const size_t nsegs = store_.Segments(0, n, segs);
  FrozenSourceRun runs[2];
  for (size_t s = 0; s < nsegs; ++s) {
    runs[s].id = store_.ColumnData<0>() + segs[s].phys;
    runs[s].value = store_.ColumnData<1>() + segs[s].phys;
    runs[s].prefix_norm = store_.ColumnData<2>() + segs[s].phys;
    runs[s].ts = store_.ColumnData<3>() + segs[s].phys;
    runs[s].len = segs[s].len;
  }
  frozen_.push_back(FrozenBlock::Freeze(runs, nsegs, compress));
  scope->Add(frozen_.back());
  frozen_live_ += n;
  store_.TruncateFront(n);
}

}  // namespace sssj
