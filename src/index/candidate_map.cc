#include "index/candidate_map.h"

namespace sssj {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t c = 16;
  while (c < n) c <<= 1;
  return c;
}

unsigned HashShift(size_t pow2) {
  unsigned shift = 64;
  while (pow2 > 1) {
    pow2 >>= 1;
    --shift;
  }
  return shift;
}
}  // namespace

CandidateMap::CandidateMap(size_t initial_capacity)
    : slots_(RoundUpPow2(initial_capacity)),
      shift_(HashShift(slots_.size())) {}

void CandidateMap::Reset() {
  ++generation_;
  touched_.clear();
  admitted_ = 0;
  if (generation_ == 0) {  // wrapped: hard-clear all stamps
    for (Slot& s : slots_) s.generation = 0;
    generation_ = 1;
  }
}

CandidateMap::Slot* CandidateMap::FindOrCreate(VectorId id) {
  if (touched_.size() * 4 >= slots_.size() * 3) Grow();
  size_t i = Home(id);
  while (true) {
    Slot& s = slots_[i];
    if (s.generation != generation_) {
      s.id = id;
      s.score = 0.0;
      s.ts = 0.0;
      s.decay = kNoDecay;
      s.generation = generation_;
      touched_.push_back(static_cast<uint32_t>(i));
      return &s;
    }
    if (s.id == id) return &s;
    i = (i + 1) & (slots_.size() - 1);
  }
}

void CandidateMap::Grow() {
  std::vector<Slot> old = std::move(slots_);
  std::vector<uint32_t> old_touched = std::move(touched_);
  slots_.assign(old.size() * 2, Slot{});
  shift_ = HashShift(slots_.size());
  touched_.clear();
  touched_.reserve(old_touched.size());
  for (uint32_t idx : old_touched) {
    const Slot& s = old[idx];
    if (s.generation != generation_) continue;
    size_t i = Home(s.id);
    while (slots_[i].generation == generation_) {
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = s;
    touched_.push_back(static_cast<uint32_t>(i));
  }
}

}  // namespace sssj
