// Accumulator array C[ι(y)] used during candidate generation (Algorithms 3
// and 7). Open-addressing hash map with generation stamps so that Reset()
// is O(1) and no memory churn happens per query.
//
// Semantics required for correctness (see DESIGN.md §4):
//  * score 0            — not (yet) a candidate; admitted only while the
//                         remscore bound still reaches θ.
//  * score > 0          — live candidate (coordinate values are strictly
//                         positive, so any accumulation is > 0).
//  * score = kPruned    — candidate killed by the l2bound check. A pruned
//                         candidate must never be readmitted: readmission
//                         would restart accumulation from zero, undercount
//                         the indexed dot product, and cause false
//                         negatives. The l2bound proof (Cauchy–Schwarz)
//                         shows a pruned pair is definitively dissimilar,
//                         so dropping it outright is safe.
#ifndef SSSJ_INDEX_CANDIDATE_MAP_H_
#define SSSJ_INDEX_CANDIDATE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace sssj {

class CandidateMap {
 public:
  static constexpr double kPruned = -1.0;
  // Slot::decay before the scan has evaluated it (a decay is never < 0).
  static constexpr double kNoDecay = -1.0;

  struct Slot {
    VectorId id = kInvalidVectorId;
    double score = 0.0;
    Timestamp ts = 0.0;  // candidate's arrival time (filled on admission)
    // e^{−λΔt} between the query and this candidate, cached by the scan
    // on the slot's first non-pruned touch of the generation.
    double decay = kNoDecay;
    uint32_t generation = 0;
  };

  explicit CandidateMap(size_t initial_capacity = 1024);

  // Invalidates all slots in O(1).
  void Reset();

  // Returns the slot for `id`, creating a fresh slot (score 0, kNoDecay)
  // on first access in this generation. Never returns nullptr; grows as
  // needed.
  Slot* FindOrCreate(VectorId id);

  // Number of distinct ids admitted (score ever made positive) since Reset.
  size_t admitted() const { return admitted_; }
  void NoteAdmitted() { ++admitted_; }

  // Iterates over live candidates (score > 0) of the current generation,
  // in the order their slots were first touched since Reset.
  template <typename Fn>  // Fn(VectorId, double score, Timestamp ts)
  void ForEachLive(Fn&& fn) const {
    for (uint32_t idx : touched_) {
      const Slot& s = slots_[idx];
      if (s.generation == generation_ && s.score > 0.0) {
        fn(s.id, s.score, s.ts);
      }
    }
  }

  size_t touched_count() const { return touched_.size(); }
  size_t capacity() const { return slots_.size(); }

 private:
  friend class CandidateMapPeer;  // tests: sets the generation counter

  void Grow();
  // Home slot of `id`: Fibonacci hashing, one multiply by 2^64/φ keeping
  // the product's top log2(capacity) bits. The top bits mix every bit of
  // the id; the low bits would see only the id's low bits, so ids equal
  // modulo the capacity would all land in one probe run.
  size_t Home(VectorId id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> touched_;  // slot indices used in this generation
  unsigned shift_ = 0;             // 64 − log2(slots_.size())
  uint32_t generation_ = 1;
  size_t admitted_ = 0;
};

}  // namespace sssj

#endif  // SSSJ_INDEX_CANDIDATE_MAP_H_
