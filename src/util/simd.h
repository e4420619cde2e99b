// SIMD support layer: runtime ISA detection and the element-wise vector
// primitives the posting-scan kernels (index/kernels.h) are built on.
//
// Dispatch strategy: every primitive has one implementation per ISA
// (AVX2+FMA and SSE2 on x86-64, NEON on aarch64, plus a portable scalar
// loop), compiled unconditionally via function target attributes and
// selected at runtime from the CPU feature bits — the binary built on the
// default CI leg still runs the AVX2 kernels on AVX2 hardware, and the
// same binary falls back to SSE2/scalar elsewhere.
//
// Determinism contract (see ARCHITECTURE.md "Kernel layer"):
//   * ScaleBlock is a lane-wise IEEE-754 multiply — bit-identical to the
//     scalar expression at every ISA level.
//   * ExpBlock/DecayBlock evaluate a fixed polynomial (Cephes exp) instead
//     of libm exp. Results are deterministic for a fixed ISA level and
//     independent of how callers batch the input: element-wise, no
//     horizontal reductions, and sub-register tails are padded through
//     the same vector code path, so exp(x) has one value per ISA level
//     no matter where block boundaries fall. Values differ from std::exp
//     — and across ISA levels — by a few ulp (FMA contraction); the
//     kernel tests pin them to std::exp under a 1e-9 relative tolerance.
//     No engine path calls them: the STR-L2/L2AP scans evaluate one
//     std::exp per candidate.
#ifndef SSSJ_UTIL_SIMD_H_
#define SSSJ_UTIL_SIMD_H_

#include <cstddef>
#include <string>

namespace sssj {

// Best vector ISA the kernels can use. Ordering is meaningful: levels
// above kScalar all vectorize the exp kernel.
enum class SimdLevel { kScalar, kSse2, kAvx2, kNeon };

// Engine-facing kernel selection (EngineConfig::kernel, sssj_cli
// --kernel). kScalar is the default and the bit-exact reference path;
// kSimd opts into the vectorized kernels; kAuto resolves to kSimd when
// the CPU exposes any vector ISA and kScalar otherwise.
enum class KernelMode { kAuto, kScalar, kSimd };

const char* ToString(SimdLevel level);
const char* ToString(KernelMode mode);
// Case-insensitive parse ("auto", "scalar", "simd"). False on unknown.
bool ParseKernelMode(const std::string& s, KernelMode* out);

// The ISA detected on this CPU (cached after the first call).
SimdLevel DetectSimdLevel();

// The level the primitives currently dispatch on: DetectSimdLevel()
// unless overridden. ForceSimdLevelForTest clamps to the detected level
// (requesting kAvx2 on a non-AVX2 machine yields the detected level) so
// tests can exercise the narrower code paths; pass DetectSimdLevel() to
// restore. Not thread-safe; call only from test setup.
SimdLevel ActiveSimdLevel();
void ForceSimdLevelForTest(SimdLevel level);

// Resolves a configured mode against the detected hardware: does this
// mode select the SIMD kernel path?
bool KernelModeUsesSimd(KernelMode mode);

namespace simd {

// out[k] = exp(x[k]). Domain: finite x ≤ ~709 (overflow clamps to
// exp(709)); x < -745 underflows to exactly 0.0 (std::exp returns a
// shrinking denormal over [-745.1, -744.0], so relative agreement holds
// for x ≥ -700 and both results are < 1e-300 below that). Relative error
// vs std::exp is < 1e-12 over the engine's domain x ∈ [-708, 0].
// In-place operation (out == x) is allowed.
void ExpBlock(const double* x, size_t n, double* out);

// out[k] = exp(-lambda * (now - ts[k])) — the posting-scan decay kernel,
// fused so the argument never round-trips through memory. The argument is
// formed exactly as the scalar reference does (neg-lambda times the
// difference), so only the exp evaluation itself deviates.
void DecayBlock(const double* ts, size_t n, double now, double lambda,
                double* out);

// out[k] = q * in[k]. Lane-wise IEEE multiply: bit-identical to the
// scalar loop at every ISA level (including ±0.0 and denormals), so
// kernels built from it never perturb scores.
void ScaleBlock(const double* in, size_t n, double q, double* out);

}  // namespace simd
}  // namespace sssj

#endif  // SSSJ_UTIL_SIMD_H_
