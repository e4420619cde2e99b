#include "core/sparse_vector.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace sssj {

SparseVector SparseVector::FromCoords(std::vector<Coord> coords) {
  std::sort(coords.begin(), coords.end(),
            [](const Coord& a, const Coord& b) { return a.dim < b.dim; });
  // Merge duplicates, drop non-positive / non-finite entries.
  std::vector<Coord> merged;
  merged.reserve(coords.size());
  for (const Coord& c : coords) {
    if (!std::isfinite(c.value) || c.value <= 0.0) continue;
    if (!merged.empty() && merged.back().dim == c.dim) {
      merged.back().value += c.value;
    } else {
      merged.push_back(c);
    }
  }
  return FromSortedCoords(std::move(merged));
}

SparseVector SparseVector::FromSortedCoords(std::vector<Coord> coords) {
  SparseVector v;
  v.coords_ = std::move(coords);
  v.RecomputeStats();
  return v;
}

SparseVector SparseVector::UnitFromCoords(std::vector<Coord> coords) {
  SparseVector v = FromCoords(std::move(coords));
  v.Normalize();
  return v;
}

bool SparseVector::IsUnit() const {
  return !empty() && std::abs(norm_ - 1.0) < 1e-9;
}

SparseVector& SparseVector::Normalize() {
  if (empty() || norm_ == 0.0) return *this;
  if (std::abs(norm_ - 1.0) < 1e-12) {
    // Already unit (e.g. a vector re-read from disk): dividing by a norm
    // one ulp away from 1 would perturb every value and break exact
    // round-trips without improving anything.
    norm_ = 1.0;
    return *this;
  }
  const double inv = 1.0 / norm_;
  for (Coord& c : coords_) c.value *= inv;
  RecomputeStats();
  // Snap the norm: the stats recomputation can leave norm_ a few ulps off 1.
  norm_ = 1.0;
  return *this;
}

double SparseVector::Dot(const SparseVector& other) const {
  double s = 0.0;
  auto a = coords_.begin();
  auto b = other.coords_.begin();
  while (a != coords_.end() && b != other.coords_.end()) {
    if (a->dim < b->dim) {
      ++a;
    } else if (b->dim < a->dim) {
      ++b;
    } else {
      s += a->value * b->value;
      ++a;
      ++b;
    }
  }
  return s;
}

double SparseVector::ValueAt(DimId dim) const {
  auto it = std::lower_bound(
      coords_.begin(), coords_.end(), dim,
      [](const Coord& c, DimId d) { return c.dim < d; });
  if (it != coords_.end() && it->dim == dim) return it->value;
  return 0.0;
}

SparseVector SparseVector::Prefix(size_t count) const {
  SparseVector v;
  count = std::min(count, coords_.size());
  v.coords_.assign(coords_.begin(), coords_.begin() + count);
  v.RecomputeStats();
  return v;
}

std::string SparseVector::ToString() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < coords_.size(); ++i) {
    if (i > 0) os << ", ";
    os << coords_[i].dim << ":" << coords_[i].value;
  }
  os << "}";
  return os.str();
}

void SparseVector::RecomputeStats() {
  max_value_ = 0.0;
  sum_ = 0.0;
  double sq = 0.0;
  for (const Coord& c : coords_) {
    max_value_ = std::max(max_value_, c.value);
    sum_ += c.value;
    sq += c.value * c.value;
  }
  norm_ = std::sqrt(sq);
}

}  // namespace sssj
