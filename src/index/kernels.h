// Vectorized scoring kernels over the SoA posting columns (util/simd.h
// provides the ISA dispatch; this layer speaks the index's vocabulary:
// columns, sparse dots).
//
// Two kernels:
//   ProductColumn — q · col[k]; lane-wise IEEE multiply, bit-identical to
//                   the scalar expression, so the MB probe paths and the
//                   STR-INV scan produce bit-identical output either way.
//   SparseDot     — merge-join dot product used by verification. The SIMD
//                   variant only accelerates cursor advancement (8-wide
//                   dim compares); matched products are accumulated one by
//                   one in ascending-dimension order, so the result is
//                   bit-identical to SparseVector::Dot.
//
// Callers gate on a `use_simd` flag resolved once from
// EngineConfig::kernel; with the flag off every kernel reduces to the
// exact scalar reference code, which keeps the determinism pins
// untouched.
#ifndef SSSJ_INDEX_KERNELS_H_
#define SSSJ_INDEX_KERNELS_H_

#include <cstddef>

#include "core/sparse_vector.h"
#include "core/types.h"
#include "util/simd.h"

namespace sssj {
namespace kernels {

// Runs shorter than this stay on the per-entry scalar code: below ~2
// vector widths the buffer bookkeeping costs more than the lanes save.
inline constexpr size_t kMinSimdRun = 8;

// out[k] = q * col[k] for k in [0, n). Bit-identical to the scalar loop.
void ProductColumn(const double* col, size_t n, double q, double* out);

// dot(a, b) over the sorted coordinate lists. With use_simd false this is
// exactly SparseVector::Dot; with it true the merge cursors skip ahead
// with vector compares but the accumulation (and thus the result bits)
// is unchanged.
double SparseDot(const SparseVector& a, const SparseVector& b, bool use_simd);

}  // namespace kernels
}  // namespace sssj

#endif  // SSSJ_INDEX_KERNELS_H_
