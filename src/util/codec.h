// Column codecs for the frozen posting blocks (index tiering, ROADMAP
// item 2): classic IR index compression adapted to the SoA posting
// columns.
//
//   * LEB128 varint for unsigned 64-bit values.
//   * ZigZag for signed deltas (small magnitudes of either sign encode
//     short).
//   * Delta + zigzag + varint for the `id` column. Ids inside one block
//     are appended in arrival order, so consecutive deltas are small and
//     positive for most streams, but the codec never assumes
//     monotonicity (L2AP re-indexing interleaves old ids).
//   * Double-delta over IEEE-754 bit patterns for the `ts` column:
//     timestamps with regular spacing have near-constant first
//     differences of their bit patterns, so the second difference is a
//     tiny zigzag varint (~1 byte/entry). Bit-pattern arithmetic is
//     always lossless — decode reproduces the exact doubles.
//
// All Get* decoders are bounds-checked against `end` and return nullptr
// on a torn buffer instead of reading past it; Decode* column helpers
// propagate that as false. Encoders append to a byte vector.
#ifndef SSSJ_UTIL_CODEC_H_
#define SSSJ_UTIL_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace sssj {
namespace codec {

// ---- varint / zigzag primitives ----

inline void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

// Decodes one varint from [p, end); returns the position past it, or
// nullptr on truncation / overlong (> 10 byte) encodings.
inline const uint8_t* GetVarint(const uint8_t* p, const uint8_t* end,
                                uint64_t* v) {
  uint64_t out = 0;
  int shift = 0;
  while (p != end && shift < 70) {
    const uint8_t byte = *p++;
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = out;
      return p;
    }
    shift += 7;
  }
  return nullptr;
}

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// ---- delta-coded u64 column (ids) ----
// Wraparound subtraction keeps arbitrary (even decreasing) sequences
// encodable; zigzag keeps small negative deltas short.

inline void EncodeDeltaU64(const uint64_t* vals, size_t n,
                           std::vector<uint8_t>* out) {
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t delta = vals[i] - prev;  // mod 2^64
    PutVarint(out, ZigZagEncode(static_cast<int64_t>(delta)));
    prev = vals[i];
  }
}

// Decodes one varint without bounds checks. The caller must guarantee at
// least kMaxVarintBytes readable bytes at `p` (decode loops peel into a
// fast region while `end - p` stays above that, then fall back to the
// checked GetVarint for the tail). The single-byte case — the common one
// for delta streams — is a branch and a load.
inline constexpr std::ptrdiff_t kMaxVarintBytes = 10;

inline const uint8_t* GetVarintUnchecked(const uint8_t* p, uint64_t* v) {
  uint64_t b = *p++;
  if (b < 0x80) {
    *v = b;
    return p;
  }
  uint64_t out = b & 0x7F;
  int shift = 7;
  do {
    b = *p++;
    out |= (b & 0x7F) << shift;
    shift += 7;
  } while ((b & 0x80) != 0 && shift < 70);
  *v = out;
  return p;
}

inline const uint8_t* DecodeDeltaU64(const uint8_t* p, const uint8_t* end,
                                     size_t n, uint64_t* out) {
  uint64_t prev = 0;
  size_t i = 0;
  while (i < n && end - p >= kMaxVarintBytes) {
    uint64_t z;
    p = GetVarintUnchecked(p, &z);
    prev += static_cast<uint64_t>(ZigZagDecode(z));  // mod 2^64
    out[i++] = prev;
  }
  for (; i < n; ++i) {
    uint64_t z;
    p = GetVarint(p, end, &z);
    if (p == nullptr) return nullptr;
    prev += static_cast<uint64_t>(ZigZagDecode(z));  // mod 2^64
    out[i] = prev;
  }
  return p;
}

// ---- double-delta coded double column (timestamps) ----
// Operates on the raw bit patterns, so round-tripping is exact for every
// double including NaNs and signed zeros.

inline uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

inline double BitsDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

inline void EncodeDoubleDelta(const double* vals, size_t n,
                              std::vector<uint8_t>* out) {
  uint64_t prev = 0;
  uint64_t prev_delta = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = DoubleBits(vals[i]);
    const uint64_t delta = bits - prev;           // mod 2^64
    const uint64_t dd = delta - prev_delta;       // mod 2^64
    PutVarint(out, ZigZagEncode(static_cast<int64_t>(dd)));
    prev = bits;
    prev_delta = delta;
  }
}

inline const uint8_t* DecodeDoubleDelta(const uint8_t* p, const uint8_t* end,
                                        size_t n, double* out) {
  uint64_t prev = 0;
  uint64_t prev_delta = 0;
  size_t i = 0;
  while (i < n && end - p >= kMaxVarintBytes) {
    uint64_t z;
    p = GetVarintUnchecked(p, &z);
    prev_delta += static_cast<uint64_t>(ZigZagDecode(z));  // mod 2^64
    prev += prev_delta;                                    // mod 2^64
    out[i++] = BitsDouble(prev);
  }
  for (; i < n; ++i) {
    uint64_t z;
    p = GetVarint(p, end, &z);
    if (p == nullptr) return nullptr;
    prev_delta += static_cast<uint64_t>(ZigZagDecode(z));  // mod 2^64
    prev += prev_delta;                                    // mod 2^64
    out[i] = BitsDouble(prev);
  }
  return p;
}

}  // namespace codec
}  // namespace sssj

#endif  // SSSJ_UTIL_CODEC_H_
