// Memory-footprint accounting: the signal behind the paper's observation
// that STR fails by memory while MB fails by time (§7).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "index/posting_list.h"
#include "index/residual_store.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_index.h"
#include "index/stream_l2ap_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::Item;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::RawVec;
using ::sssj::testing::UnitVec;

TEST(MemoryTest, EmptyIndexReportsNoEntries) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  StreamL2Index index(params);
  EXPECT_EQ(index.live_posting_entries(), 0u);
}

TEST(MemoryTest, FootprintGrowsWithArrivals) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.0001, &params));  // huge horizon
  StreamL2Index index(params);
  CollectorSink sink;
  size_t prev = index.MemoryBytes();
  for (int i = 0; i < 200; ++i) {
    index.ProcessArrival(
        Item(i, i * 0.1,
             UnitVec({{static_cast<DimId>(i % 40), 1.0},
                      {static_cast<DimId>(40 + i % 17), 1.0}})),
        &sink);
  }
  EXPECT_GT(index.MemoryBytes(), prev);
  EXPECT_GT(index.live_posting_entries(), 100u);
}

TEST(MemoryTest, TimeFilteringBoundsFootprint) {
  // With a short horizon and a repetitive stream, memory must plateau:
  // the circular buffers shrink as old entries are truncated.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.5, &params));  // τ ≈ 1.39
  StreamL2Index index(params);
  CollectorSink sink;
  SparseVector v = UnitVec({{0, 1.0}, {1, 1.0}, {2, 1.0}});
  size_t at_1k = 0;
  for (int i = 0; i < 2000; ++i) {
    index.ProcessArrival(Item(i, i * 1.0, v), &sink);
    if (i == 999) at_1k = index.MemoryBytes();
  }
  // No more than modest growth in the second thousand arrivals.
  EXPECT_LE(index.MemoryBytes(), at_1k * 2);
  EXPECT_LE(index.live_posting_entries(), 12u);
}

TEST(MemoryTest, AllStreamIndexesReportBytes) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.01, &params));
  StreamInvIndex inv(params);
  StreamL2Index l2(params);
  StreamL2apIndex l2ap(params);
  CollectorSink sink;
  SparseVector v = UnitVec({{0, 1.0}, {1, 2.0}});
  for (StreamIndex* idx :
       std::vector<StreamIndex*>{&inv, &l2, &l2ap}) {
    idx->ProcessArrival(Item(0, 0.0, v), &sink);
    EXPECT_GT(idx->MemoryBytes(), 0u) << idx->name();
  }
}

TEST(MemoryTest, PeakEntriesTrackedAcrossPruning) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 1.0, &params));  // τ ≈ 0.69
  StreamInvIndex index(params);
  CollectorSink sink;
  SparseVector v = UnitVec({{0, 1.0}, {1, 1.0}});
  // Burst at t≈0 builds up entries, then a sparse tail prunes them.
  for (int i = 0; i < 50; ++i) {
    index.ProcessArrival(Item(i, i * 0.01, v), &sink);
  }
  const uint64_t peak = index.stats().peak_index_entries;
  EXPECT_GE(peak, 50u);
  for (int i = 0; i < 20; ++i) {
    index.ProcessArrival(Item(50 + i, 10.0 + i * 5.0, v), &sink);
  }
  EXPECT_LT(index.live_posting_entries(), 10u);
  EXPECT_EQ(index.stats().peak_index_entries, peak);  // peak is sticky
}

// ---- accounting pins: MemoryBytes must not undercount ----

TEST(MemoryTest, PostingListCountsAllocatedCapacityNotJustSize) {
  // The circular buffer grows by doubling, so after one append the
  // allocation is far larger than the payload. Reporting payload only
  // (the old bug) hides most of the resident footprint.
  PostingList list;
  list.Append(1, 0.5, 1.0, 0.0);
  const size_t one_entry_payload =
      sizeof(VectorId) + 2 * sizeof(double) + sizeof(Timestamp);
  EXPECT_GE(list.capacity_bytes(), one_entry_payload);
  // memory_bytes = allocated columns + per-list bookkeeping, so it must
  // strictly exceed the raw allocation.
  EXPECT_GT(list.memory_bytes(), list.capacity_bytes());
  EXPECT_GE(list.memory_bytes(), sizeof(PostingList));
}

TEST(MemoryTest, PostingMapCountsSlotsHeadersAndSpares) {
  // 200 one-posting lists cost more than their column blocks: the table
  // (kept at most half full) and the list headers are resident too. Once
  // erased, each list leaves its block to the spare pool, and the next
  // 200 lists take them back: the footprint returns to the same bytes.
  PostingMap map;
  const TieredStorageOptions untiered;
  for (DimId d = 0; d < 200; ++d) map.Append(d, d, 1.0, 1.0, 0.0, untiered);
  ASSERT_EQ(map.size(), 200u);
  size_t lists_only = 0;
  map.ForEachList([&](DimId, Timestamp, const PostingList& list) {
    lists_only += list.capacity_bytes();
  });
  const size_t full = map.MemoryBytes();
  EXPECT_EQ(full, map.RecountMemoryBytes());
  EXPECT_GE(full - lists_only, 2 * 200 * 16 + 200 * sizeof(PostingList));

  EXPECT_EQ(map.EraseListsOlderThan(1.0), 200u);  // returns the postings
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.lists_erased(), 200u);
  EXPECT_EQ(map.spares(), 200u);
  EXPECT_EQ(map.MemoryBytes(), map.RecountMemoryBytes());
  EXPECT_EQ(map.Find(7), nullptr);

  for (DimId d = 200; d < 400; ++d) map.Append(d, d, 1.0, 1.0, 2.0, untiered);
  EXPECT_EQ(map.lists_recycled(), 200u);
  EXPECT_EQ(map.spares(), 0u);
  EXPECT_EQ(map.MemoryBytes(), map.RecountMemoryBytes());
  ASSERT_NE(map.Find(399), nullptr);
  EXPECT_EQ(map.Find(399)->size(), 1u);

  // A second cycle reuses the same slots, headers and spares.
  const size_t steady = map.MemoryBytes();
  EXPECT_EQ(map.EraseListsOlderThan(3.0), 200u);
  for (DimId d = 400; d < 600; ++d) map.Append(d, d, 1.0, 1.0, 4.0, untiered);
  EXPECT_EQ(map.lists_recycled(), 400u);
  EXPECT_EQ(map.MemoryBytes(), steady);
  EXPECT_EQ(map.MemoryBytes(), map.RecountMemoryBytes());
}

TEST(MemoryTest, FrozenColdListUsesFarLessMemoryThanFlat) {
  // A long dormant list (appends, never scanned) should compress its cold
  // prefix: delta+varint ids/ts shrink regular streams by well over 2x
  // versus the flat SoA columns.
  TieredStorageOptions tiered;
  tiered.enabled = true;
  tiered.block_entries = 128;
  tiered.dormant_tail_entries = 32;
  tiered.dormant_after_appends = 8;

  PostingList flat;
  PostingList cold;
  for (uint64_t i = 0; i < 8192; ++i) {
    const double ts = static_cast<double>(i) * 0.25;
    flat.Append(i, 0.5, 1.0, ts);
    cold.Append(i, 0.5, 1.0, ts);
    cold.MaybeFreeze(tiered);
  }
  ASSERT_GT(cold.frozen_blocks(), 0u);
  EXPECT_EQ(cold.size(), flat.size());
  EXPECT_GE(flat.memory_bytes(), 2 * cold.memory_bytes())
      << "flat=" << flat.memory_bytes() << " cold=" << cold.memory_bytes();
}

TEST(MemoryTest, TieredEngineIndexReportsSmallerFootprintOnColdStream) {
  // End-to-end version of the pin above: same stream, same scheme, long
  // horizon — the tiered index must report materially fewer bytes.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.0001, &params));
  TieredStorageOptions tiered;
  tiered.enabled = true;
  tiered.block_entries = 64;
  tiered.dormant_tail_entries = 16;
  tiered.dormant_after_appends = 4;
  StreamInvIndex flat(params);
  StreamInvIndex cold(params, /*use_simd=*/false, tiered);
  CollectorSink sink;
  for (int i = 0; i < 4000; ++i) {
    SparseVector v = UnitVec({{static_cast<DimId>(i % 5), 1.0},
                              {static_cast<DimId>(5 + i % 3), 1.0}});
    flat.ProcessArrival(Item(i, i * 0.1, v), &sink);
    cold.ProcessArrival(Item(i, i * 0.1, v), &sink);
  }
  EXPECT_LT(cold.MemoryBytes(), flat.MemoryBytes());
}

// ---- running totals == walk: the oracle for O(1) MemoryBytes() ----
//
// MemoryBytes() is kept as running totals at every mutation site; the
// walk (RecountMemoryBytes) stays only as the test oracle. These pins
// compare the two byte for byte after every state change, for every
// index and core, untiered and tiered (both frozen block forms).

enum class Storage { kUntiered, kTieredExact, kTieredRaw };

const char* StorageName(Storage storage) {
  switch (storage) {
    case Storage::kUntiered:
      return "Untiered";
    case Storage::kTieredExact:
      return "TieredExact";
    case Storage::kTieredRaw:
      return "TieredRaw";
  }
  return "?";
}

// Small blocks and tails so the test streams freeze, amend, expire and
// compact frozen blocks many times over. TieredExact lists go dormant
// after 4 unscanned appends and mostly freeze compressed; TieredRaw lists
// never meet either compress rule, so every block they freeze is raw.
TieredStorageOptions StorageOptions(Storage storage) {
  TieredStorageOptions tiered;
  if (storage == Storage::kUntiered) return tiered;
  tiered.enabled = true;
  tiered.block_entries = 8;
  tiered.dormant_tail_entries = 2;
  tiered.dormant_after_appends = 4;
  tiered.cold_freeze_quantum = 2;
  if (storage == Storage::kTieredRaw) {
    tiered.dormant_after_appends = UINT32_MAX;
    tiered.cold_scan_budget = 0;
  }
  return tiered;
}

// Few dims and a horizon of ~14 time units over a ~90-unit stream: lists
// grow long enough to freeze, entries expire throughout, and the random
// coordinate values keep raising L2AP's max vector (re-indexing).
constexpr double kTheta = 0.5;
constexpr double kLambda = 0.05;

// Then the dims move on: after kOracleFirstPhase items the stream jumps
// past the dead-list lag and continues on 12 new dims, so an STR index
// erases every list of the first phase. Every 4th first-phase item also
// carries a dim of its own, whose one-posting list leaves its block to
// the spare pool, and the second phase's lists are built on them.
constexpr size_t kOracleFirstPhase = 240;

Stream OracleStream(uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = kOracleFirstPhase;
  spec.dims = 12;
  spec.min_nnz = 2;
  spec.max_nnz = 7;
  spec.max_gap = 0.5;
  spec.seed = seed;
  Stream stream;
  for (StreamItem item : RandomStream(spec)) {
    std::vector<Coord> coords(item.vec.begin(), item.vec.end());
    if (item.id % 4 == 0) {
      coords.push_back(Coord{static_cast<DimId>(100 + item.id), 0.3});
    }
    stream.push_back(Item(item.id, item.ts, UnitVec(std::move(coords))));
  }
  DecayParams params;
  EXPECT_TRUE(DecayParams::Make(kTheta, kLambda, &params));
  const Timestamp jump =
      stream.back().ts + (1.0 + kDeadListLagHorizons) * params.tau + 1.0;
  spec.n = 2 * kOracleFirstPhase;
  spec.seed = seed + 1;
  for (StreamItem item : RandomStream(spec)) {
    std::vector<Coord> coords(item.vec.begin(), item.vec.end());
    for (Coord& c : coords) c.dim += spec.dims;
    stream.push_back(Item(stream.size(), jump + item.ts,
                          SparseVector::FromCoords(std::move(coords))));
  }
  return stream;
}

TEST(MemoryOracleTest, ResidualStoreTotalMatchesWalk) {
  ResidualStore store(/*track_prefix_dims=*/true);
  auto check = [&](const char* step) {
    ASSERT_EQ(store.ApproxBytes(), store.RecountApproxBytes()) << step;
  };
  check("empty");
  for (VectorId id = 0; id < 40; ++id) {
    store.Insert(id, ResidualRecord{RawVec({{static_cast<DimId>(id % 5), 1.0},
                                            {static_cast<DimId>(7 + id % 3), 2.0},
                                            {20, 0.5}}),
                                    0.1, static_cast<double>(id)});
    check("insert");
  }
  store.Insert(39, ResidualRecord{RawVec({{1, 1.0}}), 0.2, 39.0});
  check("replace");
  store.UpdatePrefix(30, /*keep=*/1, /*q=*/0.3);
  check("shrink prefix");
  store.UpdatePrefix(31, /*keep=*/3, /*q=*/0.4);
  check("refresh q");
  store.ExpireOlderThan(20.0);
  check("expire");
  for (DimId dim : {0u, 1u, 7u, 20u}) {
    store.ForEachWithPrefixDim(dim, [](VectorId, const ResidualRecord&) {});
    check("prefix-dim cleanup");
  }
  store.ExpireOlderThan(100.0);
  for (DimId dim = 0; dim < 21; ++dim) {
    store.ForEachWithPrefixDim(dim, [](VectorId, const ResidualRecord&) {});
  }
  check("inverted index drained");
  EXPECT_EQ(store.ApproxBytes(), 0u);
  store.Insert(50, ResidualRecord{RawVec({{2, 1.0}}), 0.1, 50.0});
  store.Clear();
  check("clear");
  EXPECT_EQ(store.ApproxBytes(), 0u);
}

TEST(MemoryOracleTest, PostingMapTotalMatchesWalkThroughFreezeAndExpiry) {
  // Drives every list mutator directly: appends that grow the circular
  // tail, freezes (new blocks and amends), front truncation that drops
  // whole blocks and compacts a half-dead front block, forward
  // compaction over straddling blocks, and the erasure of lists whose
  // dims stop recurring (each step also gets a one-off dim), with their
  // storage recycled into the lists created after them.
  const TieredStorageOptions tiered = StorageOptions(Storage::kTieredExact);
  PostingMap sorted;    // time-sorted lists: TruncateFront expiry
  PostingMap unsorted;  // out-of-order lists: CompactExpired expiry
  FrozenColumns scratch;
  size_t max_blocks = 0;
  auto check = [&](uint64_t step) {
    ASSERT_EQ(sorted.MemoryBytes(), sorted.RecountMemoryBytes()) << step;
    ASSERT_EQ(unsorted.MemoryBytes(), unsorted.RecountMemoryBytes()) << step;
  };
  for (uint64_t i = 1; i <= 2000; ++i) {
    const DimId dim = static_cast<DimId>(i % 3);
    const DimId once = static_cast<DimId>(100 + i);
    const double ts = static_cast<double>(i);
    sorted.Append(dim, i, 0.25 + 0.001 * static_cast<double>(i % 97), 0.5,
                  ts, tiered);
    sorted.Append(once, i, 0.5, 0.5, ts, tiered);
    // Every 7th posting carries an old timestamp, as L2AP re-indexing
    // appends do.
    unsorted.Append(dim, i, 0.5, 0.25, i % 7 == 0 ? ts - 150.0 : ts, tiered);
    unsorted.Append(once, i, 0.5, 0.25, i % 7 == 0 ? ts - 150.0 : ts,
                    tiered);
    check(i);
    if (i % 11 == 0) {
      PostingList* list = sorted.Find(dim);
      sorted.TruncateFront(list, list->LowerBoundTs(ts - 120.0));
      max_blocks = std::max(max_blocks, list->frozen_blocks());
      check(i);
    }
    if (i % 13 == 0) {
      unsorted.CompactExpired(unsorted.Find(dim), ts - 100.0, &scratch);
      check(i);
    }
    if (i % 5 == 0) {
      sorted.EraseListsOlderThan(ts - 200.0);
      unsorted.EraseListsOlderThan(ts - 200.0);
      check(i);
    }
  }
  EXPECT_GT(max_blocks, 1u) << "the stream never froze";
  for (PostingMap* map : {&sorted, &unsorted}) {
    // The one-off lists older than the cutoff are gone; the three
    // recurring ones and the recent one-off ones remain.
    EXPECT_GT(map->lists_erased(), 1500u);
    EXPECT_GT(map->lists_recycled(), 1500u);
    EXPECT_LT(map->size(), 300u);
    EXPECT_NE(map->Find(0), nullptr);
    EXPECT_EQ(map->Find(150), nullptr);
  }
  sorted.Clear();
  unsorted.Clear();
  check(0);
  EXPECT_EQ(sorted.MemoryBytes(), 0u);
}

// Every StreamIndex, built against one storage mode.
struct IndexVariant {
  const char* name;
  std::function<std::unique_ptr<StreamIndex>(const DecayParams&,
                                             const TieredStorageOptions&)>
      make;
};

std::vector<IndexVariant> IndexVariants() {
  return {
      {"INV",
       [](const DecayParams& p, const TieredStorageOptions& t) {
         return std::make_unique<StreamInvIndex>(p, false, t);
       }},
      {"L2",
       [](const DecayParams& p, const TieredStorageOptions& t) {
         return std::make_unique<StreamL2Index>(p, L2IndexOptions{}, false,
                                                t);
       }},
      {"L2AP",
       [](const DecayParams& p, const TieredStorageOptions& t) {
         return std::make_unique<StreamL2apIndex>(p, 0.0, true, false, t);
       }},
      {"AP",
       [](const DecayParams& p, const TieredStorageOptions& t) {
         return std::make_unique<StreamL2apIndex>(p, 0.0, false, false, t);
       }},
      {"INV(gen)",
       [](const DecayParams& p, const TieredStorageOptions& t) {
         return std::make_unique<StreamInvIndex>(
             p.theta, DecayFunction::Exponential(p.lambda), t);
       }},
      {"L2(gen)",
       [](const DecayParams& p, const TieredStorageOptions& t) {
         return std::make_unique<StreamL2Index>(
             p.theta, DecayFunction::Polynomial(2.0, 2.0), t);
       }},
  };
}

class IndexMemoryOracleTest : public ::testing::TestWithParam<Storage> {};

TEST_P(IndexMemoryOracleTest, CounterEqualsWalkAfterEveryArrival) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(kTheta, kLambda, &params));
  const TieredStorageOptions tiered = StorageOptions(GetParam());
  const Stream stream = OracleStream(17);
  for (const IndexVariant& variant : IndexVariants()) {
    SCOPED_TRACE(variant.name);
    std::unique_ptr<StreamIndex> index = variant.make(params, tiered);
    CountingSink sink;
    ASSERT_EQ(index->MemoryBytes(), index->RecountMemoryBytes());
    for (const StreamItem& item : stream) {
      index->ProcessArrival(item, &sink);
      ASSERT_EQ(index->MemoryBytes(), index->RecountMemoryBytes())
          << "after item " << item.id;
    }
    // The stream exercised the paths the totals must follow.
    EXPECT_GT(index->stats().entries_pruned, 0u);
    EXPECT_GT(sink.count(), 0u);
    EXPECT_GT(index->posting_lists().lists_erased(), 0u);
    EXPECT_GT(index->posting_lists().lists_recycled(), 0u);
    if (std::string(variant.name) == "L2AP" ||
        std::string(variant.name) == "AP") {
      EXPECT_GT(index->stats().reindexed_coords, 0u);
    }
    index->Clear();
    EXPECT_EQ(index->MemoryBytes(), index->RecountMemoryBytes());
  }
}

// A stream whose dims never recur: item i arrives at ts i with three dims
// of its own. A list dies one horizon after its only posting, so once the
// first lists pass the dead-list lag each arrival erases about as many
// lists as it creates, and no index keeps growing.
class NeverRecurringDimsTest : public ::testing::TestWithParam<Storage> {};

TEST_P(NeverRecurringDimsTest, FootprintStopsGrowing) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(kTheta, kLambda, &params));
  const TieredStorageOptions tiered = StorageOptions(GetParam());
  for (const IndexVariant& variant : IndexVariants()) {
    SCOPED_TRACE(variant.name);
    std::unique_ptr<StreamIndex> index = variant.make(params, tiered);
    CountingSink sink;
    size_t bytes_at_half = 0;
    size_t entries_at_half = 0;
    for (uint32_t i = 0; i < 4000; ++i) {
      const DimId d = 3 * i;
      index->ProcessArrival(
          Item(i, i, UnitVec({{d, 1.0}, {d + 1, 2.0}, {d + 2, 3.0}})), &sink);
      if (i + 1 == 2000) {
        bytes_at_half = index->MemoryBytes();
        entries_at_half = index->live_posting_entries();
      }
    }
    EXPECT_LE(index->MemoryBytes(), bytes_at_half);
    EXPECT_LE(index->live_posting_entries(), entries_at_half);
    EXPECT_EQ(index->MemoryBytes(), index->RecountMemoryBytes());
    EXPECT_GT(index->posting_lists().lists_recycled(), 3000u);
    EXPECT_EQ(sink.count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storages, NeverRecurringDimsTest,
    ::testing::Values(Storage::kUntiered, Storage::kTieredExact,
                      Storage::kTieredRaw),
    [](const ::testing::TestParamInfo<Storage>& info) {
      return std::string(StorageName(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    Storages, IndexMemoryOracleTest,
    ::testing::Values(Storage::kUntiered, Storage::kTieredExact,
                      Storage::kTieredRaw),
    [](const ::testing::TestParamInfo<Storage>& info) {
      return std::string(StorageName(info.param));
    });

// Engine level: every framework x scheme, through the whole engine
// surface — push, batch, flush, evict + reload (save to a file, fresh
// stand-in engine, load), in-place checkpoint restore and live scheme
// migration. The StrL2Threads rows run STR-L2 (which ignores num_threads)
// and then migrate to MB, whose window closes fan out across that many
// threads.
struct EngineVariant {
  const char* name;
  Framework framework;
  IndexScheme scheme;
  size_t threads;
};

const EngineVariant kEngineVariants[] = {
    {"StrInv", Framework::kStreaming, IndexScheme::kInv, 1},
    {"StrL2", Framework::kStreaming, IndexScheme::kL2, 1},
    {"StrL2ap", Framework::kStreaming, IndexScheme::kL2ap, 1},
    {"StrL2Threads2", Framework::kStreaming, IndexScheme::kL2, 2},
    {"StrL2Threads4", Framework::kStreaming, IndexScheme::kL2, 4},
    {"MbInv", Framework::kMiniBatch, IndexScheme::kInv, 1},
    {"MbAp", Framework::kMiniBatch, IndexScheme::kAp, 1},
    {"MbL2ap", Framework::kMiniBatch, IndexScheme::kL2ap, 1},
    {"MbL2", Framework::kMiniBatch, IndexScheme::kL2, 2},
};

class EngineMemoryOracleTest
    : public ::testing::TestWithParam<std::tuple<size_t, Storage>> {};

TEST_P(EngineMemoryOracleTest, CounterEqualsWalkThroughEngineSurface) {
  const EngineVariant& variant = kEngineVariants[std::get<0>(GetParam())];
  EngineConfig cfg;
  cfg.framework = variant.framework;
  cfg.index = variant.scheme;
  cfg.num_threads = variant.threads;
  cfg.theta = kTheta;
  cfg.lambda = kLambda;
  cfg.tiered = StorageOptions(std::get<1>(GetParam()));

  CountingSink sink;
  auto made = SssjEngine::Make(cfg, &sink);
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<SssjEngine> engine = *std::move(made);
  auto check = [&](const std::string& step) {
    ASSERT_EQ(engine->MemoryBytes(), engine->RecountMemoryBytes()) << step;
  };

  const Stream stream = OracleStream(29);
  const size_t third = stream.size() / 3;
  ASSERT_EQ(third, kOracleFirstPhase);
  for (size_t i = 0; i < third; ++i) {
    ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
    check("push " + std::to_string(i));
  }
  const uint64_t first_phase_postings = engine->stats().entries_indexed;
  for (size_t i = third; i < 2 * third; i += 16) {
    const size_t end = std::min(i + 16, 2 * third);
    const Stream batch(stream.begin() + static_cast<ptrdiff_t>(i),
                       stream.begin() + static_cast<ptrdiff_t>(end));
    EXPECT_EQ(engine->PushBatch(batch).accepted, batch.size());
    check("batch at " + std::to_string(i));
  }
  if (variant.framework == Framework::kStreaming) {
    // No scan reads the first phase's dims again, so only erasing their
    // lists can prune the postings still in them at the jump.
    EXPECT_GE(engine->stats().entries_pruned, first_phase_postings);
  }

  // Evict + reload, exactly as JoinService does it: checkpoint to a file,
  // swap in a fresh stand-in engine, later load the file into it.
  const std::string path = ::testing::TempDir() + "memory_oracle_" +
                           variant.name + "_" +
                           StorageName(std::get<1>(GetParam())) + ".ckpt";
  ASSERT_TRUE(engine->SaveCheckpoint(path).ok());
  check("save");
  made = SssjEngine::Make(cfg, &sink);
  ASSERT_TRUE(made.ok());
  engine = *std::move(made);
  check("stand-in");
  ASSERT_TRUE(engine->LoadCheckpoint(path).ok());
  check("reload");
  std::remove(path.c_str());

  // In-place restore over live state.
  std::stringstream blob;
  ASSERT_TRUE(engine->SaveCheckpoint(blob).ok());
  ASSERT_TRUE(engine->LoadCheckpoint(blob).ok());
  check("in-place restore");

  const Framework other_framework = variant.framework == Framework::kStreaming
                                        ? Framework::kMiniBatch
                                        : Framework::kStreaming;
  ASSERT_TRUE(engine->SwitchScheme(other_framework, IndexScheme::kL2ap).ok());
  check("switch away");
  for (size_t i = 2 * third; i < stream.size(); ++i) {
    ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
    check("push " + std::to_string(i));
  }
  ASSERT_TRUE(engine->SwitchScheme(variant.framework, variant.scheme).ok());
  check("switch back");
  engine->Flush();
  check("flush");
  EXPECT_GT(sink.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineMemoryOracleTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kEngineVariants)),
                       ::testing::Values(Storage::kUntiered,
                                         Storage::kTieredExact,
                                         Storage::kTieredRaw)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, Storage>>& info) {
      return std::string(kEngineVariants[std::get<0>(info.param)].name) +
             StorageName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sssj
