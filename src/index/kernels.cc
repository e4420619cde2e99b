#include "index/kernels.h"

#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#define SSSJ_KERNELS_X86 1
#endif

namespace sssj {

#if defined(SSSJ_KERNELS_X86)
// The SparseDot gather walks Coord::dim at a fixed 16-byte stride
// (true on x86-64, where double is 8-byte aligned; i386 would pack
// Coord to 12 bytes and takes the scalar path instead).
static_assert(sizeof(Coord) == 16 && offsetof(Coord, dim) == 0 &&
                  offsetof(Coord, value) == 8,
              "SparseDot kernels assume the {u32 dim, pad, f64 value} "
              "Coord layout");
#endif
namespace kernels {

void ProductColumn(const double* col, size_t n, double q, double* out) {
  simd::ScaleBlock(col, n, q, out);
}

namespace {

inline double SparseDotScalar(const Coord* a, size_t na, const Coord* b,
                              size_t nb) {
  double s = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    if (a[i].dim < b[j].dim) {
      ++i;
    } else if (b[j].dim < a[i].dim) {
      ++j;
    } else {
      s += a[i].value * b[j].value;
      ++i;
      ++j;
    }
  }
  return s;
}

#if defined(SSSJ_KERNELS_X86)

// Length of the prefix of 8 sorted dims (read at the 16-byte Coord
// stride) that are strictly below `limit`.
__attribute__((target("avx2"))) inline unsigned RunBelowAvx2(
    const DimId* dims, DimId limit) {
  // Coord stride in 32-bit elements (gather scale 4).
  const __m256i idx = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i d = _mm256_xor_si256(
      _mm256_i32gather_epi32(reinterpret_cast<const int*>(dims), idx, 4),
      sign);
  const __m256i lim =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(limit)), sign);
  const __m256i lt = _mm256_cmpgt_epi32(lim, d);  // unsigned dims < limit
  const unsigned mask =
      static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(lt)));
  // Sorted input: the < prefix is contiguous from lane 0.
  return mask == 0xFFu ? 8u : static_cast<unsigned>(__builtin_ctz(~mask));
}

// Merge join with 8-wide cursor skips: when the sides disagree and a
// one-load probe shows at least a 4-run to jump (so dense interleaved
// merges stay at scalar speed), gather the next 8 dims of the trailing
// side (stride 16 B — Coord is {u32 dim, pad, f64 value}) and advance
// past the whole run that is still below the leading dim. Matches are
// found in the same ascending order as the scalar merge and accumulated
// one by one, so the sum — and the result bits — are identical.
__attribute__((target("avx2"))) double SparseDotAvx2(const Coord* a,
                                                     size_t na,
                                                     const Coord* b,
                                                     size_t nb) {
  double s = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    const DimId ad = a[i].dim;
    const DimId bd = b[j].dim;
    if (ad == bd) {
      s += a[i].value * b[j].value;
      ++i;
      ++j;
    } else if (ad < bd) {
      if (na - i >= 8 && a[i + 3].dim < bd) {
        i += RunBelowAvx2(&a[i].dim, bd);
      } else {
        ++i;
      }
    } else {
      if (nb - j >= 8 && b[j + 3].dim < ad) {
        j += RunBelowAvx2(&b[j].dim, ad);
      } else {
        ++j;
      }
    }
  }
  return s;
}

bool Avx2Available() {
  return ActiveSimdLevel() == SimdLevel::kAvx2;
}

#endif  // SSSJ_KERNELS_X86

}  // namespace

double SparseDot(const SparseVector& a, const SparseVector& b,
                 bool use_simd) {
  const Coord* ac = a.coords().data();
  const Coord* bc = b.coords().data();
  const size_t na = a.nnz();
  const size_t nb = b.nnz();
#if defined(SSSJ_KERNELS_X86)
  // The gather-based skips only pay off on skewed merges (the dense side
  // runs several entries per entry of the sparse side — the typical
  // verify shape: long query vs short residual prefix). Balanced merges
  // advance ~1 at a time, where the probe is pure overhead, so they stay
  // on the scalar merge — which is bit-identical anyway.
  const size_t lo = na < nb ? na : nb;
  const size_t hi = na < nb ? nb : na;
  if (use_simd && lo > 0 && hi >= 4 * lo && hi >= 2 * kMinSimdRun &&
      Avx2Available()) {
    return SparseDotAvx2(ac, na, bc, nb);
  }
#else
  (void)use_simd;
#endif
  return SparseDotScalar(ac, na, bc, nb);
}

}  // namespace kernels
}  // namespace sssj
