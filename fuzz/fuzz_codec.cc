// Fuzz target for util/codec.h: the varint / zigzag / delta /
// double-delta decoders that parse frozen-block bytes. Everything here
// consumes attacker-controlled bytes in the tiered-storage read path, so
// the invariants checked are:
//
//   * bounds-checked decoders never read past `end` (ASan enforces) and
//     report truncation as nullptr, never as garbage output;
//   * GetVarintUnchecked agrees byte-for-byte with GetVarint whenever
//     its precondition (kMaxVarintBytes readable) holds — the peeled
//     fast path in DecodeDeltaU64/DecodeDoubleDelta leans on exactly
//     this equivalence;
//   * encode(decode(x)) round-trips bit-exactly for both columns.
#undef NDEBUG
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/codec.h"

using namespace sssj::codec;

namespace {

void CheckVarintConsistency(const uint8_t* data, size_t size) {
  const uint8_t* end = data + size;
  uint64_t checked_value = 0;
  const uint8_t* checked_next = GetVarint(data, end, &checked_value);
  if (static_cast<std::ptrdiff_t>(size) >= kMaxVarintBytes) {
    // Precondition of the unchecked decoder holds: both must agree.
    uint64_t fast_value = 0;
    const uint8_t* fast_next = GetVarintUnchecked(data, &fast_value);
    if (checked_next != nullptr) {
      assert(fast_next == checked_next);
      assert(fast_value == checked_value);
    } else {
      // Overlong encoding: the checked decoder rejects; the unchecked one
      // must still stop within the 10-byte window it is allowed to read.
      assert(fast_next <= data + kMaxVarintBytes);
    }
  }
  if (checked_next != nullptr) {
    // Canonical re-encode: PutVarint(decoded) must reproduce the bytes
    // unless the input used an overlong-but-in-range encoding (trailing
    // 0x80 continuation with zero payload), which PutVarint never emits.
    std::vector<uint8_t> reenc;
    PutVarint(&reenc, checked_value);
    assert(reenc.size() <= static_cast<size_t>(checked_next - data));
  }
}

void CheckColumnRoundTrips(const uint8_t* data, size_t size) {
  // Column length from the first byte, bytes after it are the payload —
  // small lengths keep the harness fast while covering the peeled /
  // checked boundary (the fast path needs >= 10 readable bytes).
  if (size == 0) return;
  const size_t n = data[0] % 64;
  if (n == 0) return;  // empty columns: nothing to round-trip, and
                       // vector::data() may be null (memcmp UB)
  const uint8_t* payload = data + 1;
  const uint8_t* end = data + size;

  std::vector<uint64_t> ids(n);
  if (DecodeDeltaU64(payload, end, n, ids.data()) != nullptr) {
    std::vector<uint8_t> reenc;
    EncodeDeltaU64(ids.data(), n, &reenc);
    std::vector<uint64_t> again(n);
    const uint8_t* rt =
        DecodeDeltaU64(reenc.data(), reenc.data() + reenc.size(), n,
                       again.data());
    assert(rt == reenc.data() + reenc.size());
    assert(ids == again);
  }

  std::vector<double> ts(n);
  if (DecodeDoubleDelta(payload, end, n, ts.data()) != nullptr) {
    std::vector<uint8_t> reenc;
    EncodeDoubleDelta(ts.data(), n, &reenc);
    std::vector<double> again(n);
    const uint8_t* rt = DecodeDoubleDelta(
        reenc.data(), reenc.data() + reenc.size(), n, again.data());
    assert(rt == reenc.data() + reenc.size());
    // Bit-exact, including NaNs — compare patterns, not values.
    assert(std::memcmp(ts.data(), again.data(), n * sizeof(double)) == 0);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  CheckVarintConsistency(data, size);
  CheckColumnRoundTrips(data, size);
  return 0;
}
