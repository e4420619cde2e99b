// Immutable sparse vector with cached per-vector statistics.
//
// All similarity-join algorithms in the paper operate on unit-normalized
// sparse vectors with strictly positive weights, whose coordinates are
// processed "in a predefined order" (we use ascending dimension id for
// indexing and the reverse for candidate generation, matching Algorithms
// 2 and 3). The cached statistics are exactly the per-vector quantities the
// filtering framework needs:
//   vm(x)  — maximum coordinate value            (paper: vm_x)
//   sum(x) — sum of coordinate values            (paper: Σ_x)
//   nnz(x) — number of non-zero coordinates      (paper: |x|)
//   norm(x)— Euclidean norm (1 after Normalize)  (paper: ||x||)
#ifndef SSSJ_CORE_SPARSE_VECTOR_H_
#define SSSJ_CORE_SPARSE_VECTOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/types.h"

namespace sssj {

class SparseVector {
 public:
  SparseVector() = default;

  // Builds a vector from arbitrary (dim, value) pairs: sorts by dimension,
  // merges duplicate dimensions by summing, and drops non-finite or
  // non-positive values. The result is NOT normalized.
  static SparseVector FromCoords(std::vector<Coord> coords);

  // Adopts coordinates the caller has already validated: dimensions
  // strictly ascending, every value finite and > 0. The result equals
  // FromCoords on such input, without its sort and copy.
  static SparseVector FromSortedCoords(std::vector<Coord> coords);

  // FromCoords followed by Normalize().
  static SparseVector UnitFromCoords(std::vector<Coord> coords);

  bool empty() const { return coords_.empty(); }
  size_t nnz() const { return coords_.size(); }
  const Coord& coord(size_t i) const { return coords_[i]; }
  const std::vector<Coord>& coords() const { return coords_; }

  std::vector<Coord>::const_iterator begin() const { return coords_.begin(); }
  std::vector<Coord>::const_iterator end() const { return coords_.end(); }

  double max_value() const { return max_value_; }
  double sum() const { return sum_; }
  double norm() const { return norm_; }
  bool IsUnit() const;

  // Scales all values by 1/norm(); no-op for the empty vector.
  // Returns *this for chaining.
  SparseVector& Normalize();

  // Exact dot product (merge join over the two sorted coordinate lists).
  double Dot(const SparseVector& other) const;

  // Value at `dim`, 0.0 if absent. O(log nnz).
  double ValueAt(DimId dim) const;

  // The first `count` coordinates (in dimension order) as a new vector;
  // this is the paper's prefix x' = x'_p. Stats are recomputed for the
  // prefix, which is what the CV bounds (Σ_y', vm_y', |y'|) need.
  SparseVector Prefix(size_t count) const;

  // Debug representation: "{dim:value, ...}".
  std::string ToString() const;

  friend bool operator==(const SparseVector& a, const SparseVector& b) {
    return a.coords_ == b.coords_;
  }

 private:
  void RecomputeStats();

  std::vector<Coord> coords_;  // sorted by dim, values > 0
  double max_value_ = 0.0;
  double sum_ = 0.0;
  double norm_ = 0.0;
};

}  // namespace sssj

#endif  // SSSJ_CORE_SPARSE_VECTOR_H_
