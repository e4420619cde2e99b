#include "index/candidate_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "util/random.h"

namespace sssj {

// CandidateMap's friend: moves the generation counter to the edge of its
// wrap-around without 2^32 Resets.
class CandidateMapPeer {
 public:
  static void SetGeneration(CandidateMap* m, uint32_t generation) {
    m->generation_ = generation;
  }
};

namespace {

TEST(CandidateMapTest, FreshSlotIsZero) {
  CandidateMap m;
  m.Reset();
  CandidateMap::Slot* s = m.FindOrCreate(42);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->score, 0.0);
  EXPECT_EQ(s->id, 42u);
}

TEST(CandidateMapTest, AccumulationPersistsWithinGeneration) {
  CandidateMap m;
  m.Reset();
  m.FindOrCreate(1)->score += 0.25;
  m.FindOrCreate(1)->score += 0.5;
  EXPECT_DOUBLE_EQ(m.FindOrCreate(1)->score, 0.75);
}

TEST(CandidateMapTest, ResetInvalidatesAllSlots) {
  CandidateMap m;
  m.Reset();
  m.FindOrCreate(1)->score = 1.0;
  m.FindOrCreate(2)->score = 2.0;
  m.Reset();
  EXPECT_EQ(m.FindOrCreate(1)->score, 0.0);
  EXPECT_EQ(m.FindOrCreate(2)->score, 0.0);
}

TEST(CandidateMapTest, PrunedSentinelExcludedFromLiveIteration) {
  CandidateMap m;
  m.Reset();
  m.FindOrCreate(1)->score = 0.5;
  m.FindOrCreate(2)->score = CandidateMap::kPruned;
  m.FindOrCreate(3)->score = 0.7;
  std::map<VectorId, double> seen;
  m.ForEachLive([&](VectorId id, double score, Timestamp) {
    seen[id] = score;
  });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[1], 0.5);
  EXPECT_DOUBLE_EQ(seen[3], 0.7);
}

TEST(CandidateMapTest, TimestampCarriedThrough) {
  CandidateMap m;
  m.Reset();
  CandidateMap::Slot* s = m.FindOrCreate(9);
  s->ts = 123.5;
  s->score = 1.0;
  m.ForEachLive([&](VectorId id, double, Timestamp ts) {
    EXPECT_EQ(id, 9u);
    EXPECT_DOUBLE_EQ(ts, 123.5);
  });
}

TEST(CandidateMapTest, GrowsBeyondInitialCapacity) {
  CandidateMap m(16);
  m.Reset();
  for (VectorId id = 0; id < 10000; ++id) {
    m.FindOrCreate(id)->score = static_cast<double>(id) + 1.0;
  }
  // All still retrievable after growth.
  for (VectorId id = 0; id < 10000; ++id) {
    ASSERT_DOUBLE_EQ(m.FindOrCreate(id)->score, static_cast<double>(id) + 1.0);
  }
  size_t live = 0;
  m.ForEachLive([&](VectorId, double, Timestamp) { ++live; });
  EXPECT_EQ(live, 10000u);
}

TEST(CandidateMapTest, AdmittedCounter) {
  CandidateMap m;
  m.Reset();
  m.NoteAdmitted();
  m.NoteAdmitted();
  EXPECT_EQ(m.admitted(), 2u);
  m.Reset();
  EXPECT_EQ(m.admitted(), 0u);
}

TEST(CandidateMapTest, ManyGenerationsStayIsolated) {
  CandidateMap m(32);
  Rng rng(5);
  for (int gen = 0; gen < 500; ++gen) {
    m.Reset();
    std::map<VectorId, double> oracle;
    const int k = 1 + static_cast<int>(rng.NextBelow(50));
    for (int i = 0; i < k; ++i) {
      const VectorId id = rng.NextBelow(1000);
      const double add = rng.NextDouble();
      m.FindOrCreate(id)->score += add;
      oracle[id] += add;
    }
    std::map<VectorId, double> got;
    m.ForEachLive(
        [&](VectorId id, double score, Timestamp) { got[id] = score; });
    ASSERT_EQ(got.size(), oracle.size());
    for (const auto& [id, score] : oracle) {
      ASSERT_NEAR(got[id], score, 1e-12);
    }
  }
}

// Verification emits pairs in ForEachLive order, so that order is part
// of the output: the order in which slots were first touched since Reset,
// kept across Grow, with re-touches and pruned slots not disturbing it.
TEST(CandidateMapTest, ForEachLiveVisitsInFirstTouchOrderAcrossGrow) {
  CandidateMap m(16);
  m.Reset();
  Rng rng(21);
  std::vector<VectorId> first_touch;
  std::set<VectorId> seen;
  std::set<VectorId> pruned;
  for (int i = 0; i < 3000; ++i) {
    const VectorId id = rng.NextBelow(2000);
    CandidateMap::Slot* slot = m.FindOrCreate(id);
    if (seen.insert(id).second) {
      first_touch.push_back(id);
      if (rng.NextBelow(5) == 0) {
        slot->score = CandidateMap::kPruned;
        pruned.insert(id);
      }
    }
    if (pruned.count(id) == 0) slot->score += 0.5;
  }
  EXPECT_GT(m.capacity(), 16u) << "the map never grew";
  std::vector<VectorId> expected;
  for (VectorId id : first_touch) {
    if (pruned.count(id) == 0) expected.push_back(id);
  }
  std::vector<VectorId> visited;
  m.ForEachLive([&](VectorId id, double, Timestamp) { visited.push_back(id); });
  EXPECT_EQ(visited, expected);
}

// Ids equal modulo the slot count are the hash's worst case (an identity
// hash would send each run to one probe chain): consecutive runs offset
// by exactly the capacity, and multiples of it, inserted again at every
// capacity the map grows through.
TEST(CandidateMapTest, IdsAliasingModuloCapacityStayCorrectThroughGrowth) {
  CandidateMap m(16);
  m.Reset();
  std::vector<VectorId> ids;
  for (int round = 0; round < 4; ++round) {
    const VectorId cap = m.capacity();
    for (VectorId run = 0; run < 8; ++run) {
      for (VectorId j = 0; j < 16; ++j) ids.push_back(run * cap + j + 1);
    }
    for (VectorId k = 1; k <= 64; ++k) ids.push_back(k * cap);
    for (VectorId id : ids) {
      CandidateMap::Slot* slot = m.FindOrCreate(id);
      ASSERT_EQ(slot->id, id);
      if (slot->score == 0.0) slot->score = static_cast<double>(id);
    }
  }
  EXPECT_GT(m.capacity(), 256u) << "the map never grew";
  const std::set<VectorId> distinct(ids.begin(), ids.end());
  for (VectorId id : distinct) {
    ASSERT_EQ(m.FindOrCreate(id)->score, static_cast<double>(id)) << id;
  }
  EXPECT_EQ(m.touched_count(), distinct.size());
  size_t live = 0;
  m.ForEachLive([&](VectorId id, double score, Timestamp) {
    EXPECT_EQ(score, static_cast<double>(id));
    ++live;
  });
  EXPECT_EQ(live, distinct.size());
}

// The generate scans cache each candidate's decay in its slot; a value
// left over from an earlier arrival would be read as this arrival's.
TEST(CandidateMapTest, DecayUnsetOnFirstTouchOfEveryGeneration) {
  CandidateMap m(16);
  for (int gen = 0; gen < 50; ++gen) {
    m.Reset();
    for (VectorId id = 0; id < 40; ++id) {  // grows in the first generation
      CandidateMap::Slot* slot = m.FindOrCreate(id * 7);
      ASSERT_EQ(slot->decay, CandidateMap::kNoDecay) << gen << " " << id;
      slot->decay = 0.5;
    }
    for (VectorId id = 0; id < 40; ++id) {
      ASSERT_EQ(m.FindOrCreate(id * 7)->decay, 0.5);  // kept within one
    }
  }
}

TEST(CandidateMapTest, DecayUnsetAfterGenerationWrapAround) {
  CandidateMap m;
  CandidateMap::Slot* slot = m.FindOrCreate(7);  // stamped generation 1
  slot->score = 0.5;
  slot->decay = 0.25;
  CandidateMapPeer::SetGeneration(&m, UINT32_MAX);
  m.Reset();  // wraps: hard clear, counting restarts at generation 1
  // Without the hard clear, 7's old slot would read as current.
  slot = m.FindOrCreate(7);
  EXPECT_EQ(slot->score, 0.0);
  EXPECT_EQ(slot->decay, CandidateMap::kNoDecay);
  EXPECT_EQ(m.touched_count(), 1u);
}

}  // namespace
}  // namespace sssj
