#include "util/simd.h"

#include "util/ascii.h"

// x86-64 only: SSE2 is baseline there but not on i386.
#if defined(__x86_64__)
#define SSSJ_SIMD_X86 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define SSSJ_SIMD_NEON 1
#endif

namespace sssj {
namespace {

// Active dispatch level. A function-local static gives thread-safe
// first-use initialization: with kernel=simd and num_threads > 1 the
// first callers can be concurrent MB window-close workers, and they must
// all observe the same level (mixed levels would break the bit-identical
// determinism contract on the very first window).
SimdLevel& ActiveLevelRef() {
  static SimdLevel level = DetectSimdLevel();
  return level;
}

}  // namespace

SimdLevel DetectSimdLevel() {
#if defined(SSSJ_SIMD_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kSse2;  // x86-64 baseline
#elif defined(SSSJ_SIMD_NEON)
  return SimdLevel::kNeon;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ActiveSimdLevel() { return ActiveLevelRef(); }

void ForceSimdLevelForTest(SimdLevel level) {
  const SimdLevel detected = DetectSimdLevel();
  // Never dispatch above what the CPU can execute.
  if (level == SimdLevel::kAvx2 && detected != SimdLevel::kAvx2) {
    level = detected;
  }
#if !defined(SSSJ_SIMD_X86)
  if (level == SimdLevel::kSse2) level = detected;
#endif
#if !defined(SSSJ_SIMD_NEON)
  if (level == SimdLevel::kNeon) level = SimdLevel::kScalar;
#else
  if (level == SimdLevel::kSse2 || level == SimdLevel::kAvx2) {
    level = detected;
  }
#endif
  ActiveLevelRef() = level;
}

bool KernelModeUsesSimd(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
      return false;
    case KernelMode::kSimd:
      return true;
    case KernelMode::kAuto:
      return ActiveSimdLevel() != SimdLevel::kScalar;
  }
  return false;
}

const char* ToString(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "?";
}

const char* ToString(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kSimd:
      return "simd";
  }
  return "?";
}

bool ParseKernelMode(const std::string& s, KernelMode* out) {
  const std::string l = AsciiLower(s);
  if (l == "auto") {
    *out = KernelMode::kAuto;
    return true;
  }
  if (l == "scalar") {
    *out = KernelMode::kScalar;
    return true;
  }
  if (l == "simd") {
    *out = KernelMode::kSimd;
    return true;
  }
  return false;
}

namespace simd {

void ScaleBlock(const double* in, size_t n, double q, double* out) {
  // A lane-wise IEEE multiply is bit-identical however it is batched;
  // the plain loop lets the compiler pick the widest profitable ISA.
  for (size_t k = 0; k < n; ++k) out[k] = q * in[k];
}

}  // namespace simd
}  // namespace sssj
