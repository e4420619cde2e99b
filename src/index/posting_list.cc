#include "index/posting_list.h"

#include <utility>

namespace sssj {

static_assert(sizeof(void*) != 8 || sizeof(PostingList) == 32,
              "a list header is the 24-byte buffer plus the tier pointer");

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
  size_t skip = tier_->first_skip;
  for (const FrozenBlock& blk : tier_->frozen) {
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
  if (tier_ == nullptr) {
    store_.TruncateFront(n);
    return n;
  }
  Tier& t = *tier_;
  size_t left = n;
  size_t drop = 0;
  size_t skip = t.first_skip;
  while (left > 0 && drop < t.frozen.size()) {
    const size_t live = t.frozen[drop].count() - skip;
    if (left >= live) {
      left -= live;
      t.frozen_live -= live;
      scope.Drop(t.frozen[drop]);
      ++drop;
      skip = 0;
    } else {
      skip += left;
      t.frozen_live -= left;
      left = 0;
    }
  }
  if (drop > 0) {
    t.frozen.erase(t.frozen.begin(),
                   t.frozen.begin() + static_cast<ptrdiff_t>(drop));
  }
  t.first_skip = t.frozen.empty() ? 0 : skip;
  if (left > 0) store_.TruncateFront(left);
  // Consumed entries inside the straddling front block are dead bytes
  // until the block is rewritten. Rewrite once the block is half dead:
  // the live suffix shrinks geometrically across rewrites, so the cost
  // amortizes to O(1) per consumed entry, and no list ever retains more
  // dead frozen entries than live ones in its front block.
  if (t.first_skip > 0 && t.first_skip * 2 >= t.frozen.front().count()) {
    CompactFrontBlock(&scope);
  }
  return n;
}

void PostingList::CompactFrontBlock(FootprintScope* scope) {
  Tier& t = *tier_;
  FrozenBlock& blk = t.frozen.front();
  scope->Drop(blk);
  FrozenColumns cols;
  blk.Thaw(&cols);
  FrozenSourceRun run;
  run.id = cols.id.data() + t.first_skip;
  run.value = cols.value.data() + t.first_skip;
  run.prefix_norm = cols.prefix_norm.data() + t.first_skip;
  run.ts = cols.ts.data() + t.first_skip;
  run.len = blk.count() - t.first_skip;
  blk = FrozenBlock::Freeze(&run, 1, blk.compressed());
  scope->Add(blk);
  t.first_skip = 0;
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
  if (tier_ != nullptr && !tier_->frozen.empty()) {
    Tier& t = *tier_;
    FrozenColumns local;
    FrozenColumns* cols = scratch != nullptr ? scratch : &local;
    std::vector<FrozenBlock> kept;
    kept.reserve(t.frozen.size());
    size_t skip = t.first_skip;
    for (FrozenBlock& blk : t.frozen) {
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
    t.frozen = std::move(kept);
    t.first_skip = 0;
    t.frozen_live -= removed;
  }
  return removed + CompactExpiredTail(cutoff);
}

PostingEntry PostingList::FrozenGet(size_t i) const {
  size_t skip = tier_->first_skip;
  size_t start = 0;
  for (const FrozenBlock& blk : tier_->frozen) {
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
  Tier& t = *tier_;
  while (n > 0) {
    FrozenBlock* last = t.frozen.empty() ? nullptr : &t.frozen.back();
    // When the newest block is also the front block, its consumed prefix
    // (first_skip) is dead — the re-freeze below rewrites the block
    // anyway, so dropping the prefix is free compaction.
    const size_t drop = t.frozen.size() == 1 ? t.first_skip : 0;
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
    if (drop > 0) t.first_skip = 0;
    t.frozen_live += take;
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
  tier_->frozen.push_back(FrozenBlock::Freeze(runs, nsegs, compress));
  scope->Add(tier_->frozen.back());
  tier_->frozen_live += n;
  store_.TruncateFront(n);
}

void PostingList::Release(Spare* spare) {
  spare->block = store_.ReleaseBlock();
  spare->tier = std::move(tier_);
  if (spare->tier != nullptr) *spare->tier = TierState{};
}

void PostingList::Adopt(Spare&& spare) {
  assert(store_.capacity() == 0 && tier_ == nullptr);
  if (spare.block != nullptr) store_.AdoptBlock(std::move(spare.block));
  tier_ = std::move(spare.tier);
}

PostingMap::Slot& PostingMap::FindOrCreate(DimId dim, Timestamp ts) {
  size_t pos = kNoSlot;
  if (!slots_.empty()) {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(dim);
    for (; slots_[i].list != kEmpty; i = (i + 1) & mask) {
      if (slots_[i].dim == dim) return slots_[i];
    }
    // Keep the table at most half full.
    if ((live_ + 1) * 2 <= slots_.size()) pos = i;
  }
  if (pos == kNoSlot) {
    Rehash(slots_.empty() ? 16 : slots_.size() * 2);
    const size_t mask = slots_.size() - 1;
    for (pos = Home(dim); slots_[pos].list != kEmpty; pos = (pos + 1) & mask) {
    }
  }
  uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<uint32_t>(lists_.size());
    lists_.emplace_back();
  }
  if (!spares_.empty()) {
    // The spare's bytes move from the pool to the list: the total holds.
    lists_[index].Adopt(std::move(spares_.back()));
    spares_.pop_back();
    ++recycled_;
  }
  slots_[pos] = Slot{dim, index, ts};
  checks_.PushBack(dim, ts);
  ++live_;
  return slots_[pos];
}

size_t PostingMap::EraseSlot(size_t pos) {
  const uint32_t index = slots_[pos].list;
  PostingList& list = lists_[index];
  const size_t postings = list.size();
  payload_bytes_ -= list.memory_bytes() - sizeof(PostingList);
  PostingList::Spare spare;
  list.Release(&spare);
  if (!spare.empty() && spares_.size() < kMaxSpares) {
    payload_bytes_ += spare.bytes();
    spares_.push_back(std::move(spare));
  }
  free_.push_back(index);
  // Backward-shift deletion: pull each later slot of the probe run into
  // the hole unless the hole lies before that slot's home.
  const size_t mask = slots_.size() - 1;
  size_t hole = pos;
  for (size_t j = (pos + 1) & mask; slots_[j].list != kEmpty;
       j = (j + 1) & mask) {
    if (((j - Home(slots_[j].dim)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --live_;
  ++erased_;
  return postings;
}

void PostingMap::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - __builtin_ctzll(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.list == kEmpty) continue;
    size_t i = Home(slot.dim);
    while (slots_[i].list != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

size_t PostingMap::EraseListsOlderThan(Timestamp cutoff) {
  size_t postings = 0;
  while (!checks_.empty() && checks_.Get<1>(0) < cutoff) {
    const DimId dim = checks_.Get<0>(0);
    checks_.TruncateFront(1);
    const size_t pos = FindSlot(dim);  // every check has its list
    if (slots_[pos].newest < cutoff) {
      postings += EraseSlot(pos);
    } else {
      checks_.PushBack(dim, slots_[pos].newest);
    }
  }
  return postings;
}

void PostingMap::Clear() { *this = PostingMap(); }

size_t PostingMap::RecountMemoryBytes() const {
  size_t bytes = FixedBytes();
  for (const PostingList& list : lists_) {
    bytes += list.memory_bytes() - sizeof(PostingList);
  }
  for (const PostingList::Spare& spare : spares_) bytes += spare.bytes();
  return bytes;
}

}  // namespace sssj
