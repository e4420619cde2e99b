// SIMD support layer: runtime ISA detection and the element-wise vector
// primitive the posting-scan kernels (index/kernels.h) are built on.
//
// Dispatch strategy: ISA-specific kernel bodies are compiled
// unconditionally via function target attributes and selected at runtime
// from the CPU feature bits — the binary built on the default CI leg
// still runs the AVX2 kernels on AVX2 hardware, and the same binary falls
// back to the scalar code elsewhere.
//
// Determinism contract (see ARCHITECTURE.md "Kernel layer"): ScaleBlock
// is a lane-wise IEEE-754 multiply, bit-identical to the scalar
// expression at every ISA level.
#ifndef SSSJ_UTIL_SIMD_H_
#define SSSJ_UTIL_SIMD_H_

#include <cstddef>
#include <string>

namespace sssj {

// Best vector ISA the kernels can use.
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

// out[k] = q * in[k]. Lane-wise IEEE multiply: bit-identical to the
// scalar loop at every ISA level (including ±0.0 and denormals), so
// kernels built from it never perturb scores.
void ScaleBlock(const double* in, size_t n, double q, double* out);

}  // namespace simd
}  // namespace sssj

#endif  // SSSJ_UTIL_SIMD_H_
