// Property tests for util/codec.h (varint / zigzag / delta / double-delta)
// and the frozen-block container built on them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/codec.h"
#include "util/frozen_block.h"
#include "util/random.h"

namespace sssj {
namespace {

using codec::DecodeDeltaU64;
using codec::DecodeDoubleDelta;
using codec::EncodeDeltaU64;
using codec::EncodeDoubleDelta;
using codec::GetVarint;
using codec::PutVarint;
using codec::ZigZagDecode;
using codec::ZigZagEncode;

TEST(CodecTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 129, 16383, 16384,
                                  (1ull << 21) - 1, 1ull << 21,
                                  (1ull << 35) + 17, (1ull << 56) - 1,
                                  std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    std::vector<uint8_t> buf;
    PutVarint(&buf, v);
    EXPECT_LE(buf.size(), 10u);
    uint64_t out = 0;
    const uint8_t* p = GetVarint(buf.data(), buf.data() + buf.size(), &out);
    ASSERT_NE(p, nullptr) << v;
    EXPECT_EQ(p, buf.data() + buf.size()) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(CodecTest, VarintRoundTripRandomSequence) {
  Rng rng(7);
  std::vector<uint64_t> values;
  std::vector<uint8_t> buf;
  for (int i = 0; i < 2000; ++i) {
    // Mix magnitudes so every byte length is exercised.
    const uint64_t v = rng.NextU64() >> (rng.NextBelow(64));
    values.push_back(v);
    PutVarint(&buf, v);
  }
  const uint8_t* p = buf.data();
  const uint8_t* end = buf.data() + buf.size();
  for (uint64_t expected : values) {
    uint64_t out = 0;
    p = GetVarint(p, end, &out);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(out, expected);
  }
  EXPECT_EQ(p, end);
}

TEST(CodecTest, VarintTornBufferNeverOverreads) {
  // Decoding from every strict prefix of an encoded value must fail
  // cleanly (nullptr), not read past `end` or fabricate a value.
  std::vector<uint64_t> values = {128, 16384, (1ull << 42) + 5,
                                  std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    std::vector<uint8_t> buf;
    PutVarint(&buf, v);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      uint64_t out = 0;
      EXPECT_EQ(GetVarint(buf.data(), buf.data() + cut, &out), nullptr)
          << "value " << v << " truncated to " << cut << " bytes";
    }
  }
}

TEST(CodecTest, VarintRejectsOverlongEncoding) {
  // 11 continuation bytes can never be a valid u64 varint.
  std::vector<uint8_t> bad(11, 0x80);
  uint64_t out = 0;
  EXPECT_EQ(GetVarint(bad.data(), bad.data() + bad.size(), &out), nullptr);
}

TEST(CodecTest, ZigZagRoundTrip) {
  std::vector<int64_t> values = {0, -1, 1, -2, 2, 1234567, -1234567,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
  // Small magnitudes map to small codes (the property delta coding needs).
  EXPECT_LT(ZigZagEncode(-3), 8u);
  EXPECT_LT(ZigZagEncode(3), 8u);
}

TEST(CodecTest, DeltaU64RoundTripNonMonotone) {
  // L2AP re-indexing makes id columns non-monotone; the delta codec must
  // round-trip arbitrary sequences, including wraparound deltas.
  Rng rng(13);
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.NextU64() >> rng.NextBelow(50));
  }
  values.push_back(0);
  values.push_back(std::numeric_limits<uint64_t>::max());
  std::vector<uint8_t> buf;
  EncodeDeltaU64(values.data(), values.size(), &buf);
  std::vector<uint64_t> out(values.size());
  const uint8_t* p =
      DecodeDeltaU64(buf.data(), buf.data() + buf.size(), out.size(),
                     out.data());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p, buf.data() + buf.size());
  EXPECT_EQ(out, values);
}

TEST(CodecTest, DoubleDeltaRoundTripIsLossless) {
  // Bit-exact for arbitrary doubles: the codec works on IEEE-754 bit
  // patterns, so NaN payloads aside, any finite sequence must survive.
  Rng rng(29);
  std::vector<double> regular, random;
  for (int i = 0; i < 400; ++i) {
    regular.push_back(1000.0 + 0.25 * i);  // regularly spaced timestamps
    random.push_back((rng.NextDouble() - 0.5) * 1e12);
  }
  for (const std::vector<double>* seq : {&regular, &random}) {
    std::vector<uint8_t> buf;
    EncodeDoubleDelta(seq->data(), seq->size(), &buf);
    std::vector<double> out(seq->size());
    const uint8_t* p = DecodeDoubleDelta(buf.data(), buf.data() + buf.size(),
                                         out.size(), out.data());
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p, buf.data() + buf.size());
    for (size_t i = 0; i < seq->size(); ++i) {
      EXPECT_EQ(out[i], (*seq)[i]) << "index " << i;
    }
  }
}

TEST(CodecTest, DoubleDeltaCompressesRegularSpacing) {
  // Regularly spaced timestamps have constant first differences, so the
  // second differences are all zero: ~1 byte per entry after the seed.
  std::vector<double> ts;
  for (int i = 0; i < 1000; ++i) ts.push_back(5.0 + 0.125 * i);
  std::vector<uint8_t> buf;
  EncodeDoubleDelta(ts.data(), ts.size(), &buf);
  EXPECT_LT(buf.size(), ts.size() * 2);  // ≪ 8 bytes/entry raw
}

TEST(CodecTest, TornDeltaStreamsFailCleanly) {
  std::vector<uint64_t> ids = {10, 500, 3, 1ull << 40};
  std::vector<double> ts = {1.0, 2.5, 7.0, 7.0};
  std::vector<uint8_t> idbuf, tsbuf;
  EncodeDeltaU64(ids.data(), ids.size(), &idbuf);
  EncodeDoubleDelta(ts.data(), ts.size(), &tsbuf);
  std::vector<uint64_t> idout(ids.size());
  std::vector<double> tsout(ts.size());
  for (size_t cut = 0; cut < idbuf.size(); ++cut) {
    EXPECT_EQ(DecodeDeltaU64(idbuf.data(), idbuf.data() + cut, ids.size(),
                             idout.data()),
              nullptr)
        << cut;
  }
  for (size_t cut = 0; cut < tsbuf.size(); ++cut) {
    EXPECT_EQ(DecodeDoubleDelta(tsbuf.data(), tsbuf.data() + cut, ts.size(),
                                tsout.data()),
              nullptr)
        << cut;
  }
}

// ---- FrozenBlock ----

struct Columns {
  std::vector<VectorId> id;
  std::vector<double> value;
  std::vector<double> prefix_norm;
  std::vector<Timestamp> ts;
};

Columns RandomColumns(size_t n, uint64_t seed, bool zero_pn,
                      bool time_sorted) {
  Rng rng(seed);
  Columns c;
  Timestamp now = 100.0;
  for (size_t i = 0; i < n; ++i) {
    c.id.push_back(rng.NextU64() >> 30);
    c.value.push_back(0.01 + rng.NextDouble());
    c.prefix_norm.push_back(zero_pn ? 0.0 : rng.NextDouble());
    now = time_sorted ? now + rng.NextDouble() : 100.0 + rng.NextDouble() * 50;
    c.ts.push_back(now);
  }
  return c;
}

FrozenBlock FreezeAll(const Columns& c) {
  FrozenSourceRun run;
  run.id = c.id.data();
  run.value = c.value.data();
  run.prefix_norm = c.prefix_norm.data();
  run.ts = c.ts.data();
  run.len = c.id.size();
  return FrozenBlock::Freeze(&run, 1);
}

TEST(FrozenBlockTest, ExactTierThawIsBitIdentical) {
  const Columns c = RandomColumns(300, 3, /*zero_pn=*/false,
                                  /*time_sorted=*/true);
  const FrozenBlock blk = FreezeAll(c);
  EXPECT_EQ(blk.count(), 300u);
  EXPECT_TRUE(blk.time_sorted());
  EXPECT_EQ(blk.min_ts(), c.ts.front());
  EXPECT_EQ(blk.max_ts(), c.ts.back());
  FrozenColumns out;
  blk.Thaw(&out);
  EXPECT_EQ(out.id, c.id);
  EXPECT_EQ(out.ts, c.ts);
  for (size_t i = 0; i < c.value.size(); ++i) {
    EXPECT_EQ(out.value[i], c.value[i]);
    EXPECT_EQ(out.prefix_norm[i], c.prefix_norm[i]);
  }
}

TEST(FrozenBlockTest, TwoRunFreezeMatchesConcatenation) {
  // PostingList freezes straight from the circular buffer's ≤2 physical
  // segments; the block must behave as if the runs were contiguous.
  const Columns c = RandomColumns(97, 11, false, true);
  const size_t split = 41;
  FrozenSourceRun runs[2];
  runs[0] = {c.id.data(), c.value.data(), c.prefix_norm.data(), c.ts.data(),
             split};
  runs[1] = {c.id.data() + split, c.value.data() + split,
             c.prefix_norm.data() + split, c.ts.data() + split,
             c.id.size() - split};
  const FrozenBlock blk = FrozenBlock::Freeze(runs, 2);
  FrozenColumns out;
  blk.Thaw(&out);
  EXPECT_EQ(out.id, c.id);
  EXPECT_EQ(out.ts, c.ts);
  EXPECT_EQ(out.value, c.value);
  EXPECT_EQ(out.prefix_norm, c.prefix_norm);
}

TEST(FrozenBlockTest, AllZeroPrefixNormColumnIsElided) {
  // INV lists store prefix_norm == 0 everywhere; the block must not spend
  // bytes on it and must thaw it back as zeros.
  const Columns zero = RandomColumns(150, 23, /*zero_pn=*/true, true);
  Columns nonzero = zero;
  nonzero.prefix_norm.assign(150, 0.5);
  const FrozenBlock elided = FreezeAll(zero);
  const FrozenBlock full = FreezeAll(nonzero);
  // Elision must beat even the adaptive codec's best effort on the
  // constant column (which itself compresses to ~1 byte/entry).
  EXPECT_LT(elided.payload_bytes(), full.payload_bytes());
  EXPECT_LT(full.payload_bytes() - elided.payload_bytes(),
            150 * sizeof(double) / 2)
      << "constant prefix_norm column should double-delta, not store raw";
  FrozenColumns out;
  elided.Thaw(&out);
  for (double pn : out.prefix_norm) EXPECT_EQ(pn, 0.0);
}

// The one value encoding is exact: every double bit pattern (signed
// zeros, denormals, infinities, NaNs) thaws unchanged in both block
// forms, whether the adaptive codec stores a column raw or double-deltas
// it. A -0.0 prefix_norm column is not all zeros and must not be elided:
// an elided column thaws as +0.0.
TEST(FrozenBlockTest, EveryDoubleBitPatternRoundTripsInBothForms) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> specials = {
      -0.0, 0.0, Limits::denorm_min(), -Limits::denorm_min(), Limits::min(),
      Limits::max(), Limits::lowest(), Limits::infinity(), -Limits::infinity(),
      Limits::quiet_NaN(), -Limits::quiet_NaN(), 0.5};
  const size_t n = 48;
  // Specials in the value column over a -0.0 prefix_norm column, then a
  // constant -0.0 value column (double-delta) over the specials.
  Columns mixed;
  Columns constant;
  for (size_t i = 0; i < n; ++i) {
    for (Columns* c : {&mixed, &constant}) {
      c->id.push_back(1000 + i);
      c->ts.push_back(static_cast<Timestamp>(i));
    }
    mixed.value.push_back(specials[i % specials.size()]);
    mixed.prefix_norm.push_back(-0.0);
    constant.value.push_back(-0.0);
    constant.prefix_norm.push_back(specials[i % specials.size()]);
  }
  for (const Columns* c : {&mixed, &constant}) {
    for (bool compress : {true, false}) {
      SCOPED_TRACE(compress ? "compressed" : "raw");
      FrozenSourceRun run;
      run.id = c->id.data();
      run.value = c->value.data();
      run.prefix_norm = c->prefix_norm.data();
      run.ts = c->ts.data();
      run.len = n;
      const FrozenBlock blk = FrozenBlock::Freeze(&run, 1, compress);
      EXPECT_EQ(blk.compressed(), compress);
      EXPECT_TRUE(blk.has_prefix_norm());
      FrozenColumns out;
      blk.Thaw(&out);
      ASSERT_EQ(out.value.size(), n);
      EXPECT_EQ(out.id, c->id);
      EXPECT_EQ(out.ts, c->ts);
      EXPECT_EQ(std::memcmp(out.value.data(), c->value.data(),
                            n * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(out.prefix_norm.data(), c->prefix_norm.data(),
                            n * sizeof(double)),
                0);
    }
  }
}

TEST(FrozenBlockTest, CountOlderThanMatchesModel) {
  const Columns c = RandomColumns(64, 31, false, /*time_sorted=*/true);
  const FrozenBlock blk = FreezeAll(c);
  // Cutoffs before, exactly on, between, and after every timestamp.
  std::vector<Timestamp> cutoffs = {c.ts.front() - 1.0, c.ts.front(),
                                    c.ts.back(), c.ts.back() + 1.0};
  for (size_t i = 0; i + 1 < c.ts.size(); i += 7) {
    cutoffs.push_back(c.ts[i]);
    cutoffs.push_back((c.ts[i] + c.ts[i + 1]) / 2);
  }
  for (Timestamp cutoff : cutoffs) {
    size_t model = 0;
    while (model < c.ts.size() && c.ts[model] < cutoff) ++model;
    EXPECT_EQ(blk.CountOlderThan(cutoff), model) << "cutoff " << cutoff;
  }
}

TEST(FrozenBlockTest, UnsortedColumnsAreMarkedUnsorted) {
  const Columns c = RandomColumns(40, 37, false, /*time_sorted=*/false);
  const FrozenBlock blk = FreezeAll(c);
  EXPECT_FALSE(blk.time_sorted());
  FrozenColumns out;
  blk.Thaw(&out);
  EXPECT_EQ(out.ts, c.ts);  // still lossless, just not binary-searchable
}

TEST(FrozenBlockTest, CompressesColdRegularData) {
  // The representative cold-list shape: dense ids, regular timestamps.
  Columns c;
  for (size_t i = 0; i < 512; ++i) {
    c.id.push_back(1000 + i);
    c.value.push_back(0.25);
    c.prefix_norm.push_back(0.0);
    c.ts.push_back(50.0 + 0.5 * i);
  }
  const FrozenBlock blk = FreezeAll(c);
  const size_t raw = 512 * (sizeof(VectorId) + 2 * sizeof(double) +
                            sizeof(Timestamp));
  // id+ts compress to a few bytes each; value stays raw 8B; prefix_norm
  // is elided — comfortably under half the raw bytes.
  EXPECT_LT(blk.payload_bytes(), raw / 2);
}

// Compressed blocks whose value column stays raw fp64 serve it in place
// (inline_exact_values) as const double*, so it must be aligned however
// long the id and ts sections before it are. The first id's varint
// length (1..8 bytes) moves the section end through every residue mod 8.
TEST(FrozenBlockTest, InlineExactValuesAlignedForEveryIdTsSectionLength) {
  Columns c = RandomColumns(37, 41, false, /*time_sorted=*/true);
  for (unsigned varint_len = 1; varint_len <= 8; ++varint_len) {
    const VectorId first =
        varint_len == 1 ? 1 : VectorId{1} << (7 * (varint_len - 1) - 1);
    for (size_t i = 0; i < c.id.size(); ++i) c.id[i] = first + i;
    const FrozenBlock blk = FreezeAll(c);
    const double* values = blk.inline_exact_values();
    ASSERT_NE(values, nullptr) << "random values should stay raw fp64";
    EXPECT_EQ(reinterpret_cast<uintptr_t>(values) % alignof(double), 0u)
        << "varint length " << varint_len;
    FrozenColumns out;
    blk.Thaw(&out);
    EXPECT_EQ(out.id, c.id);
    EXPECT_EQ(out.ts, c.ts);
    EXPECT_EQ(out.value, c.value);
    EXPECT_EQ(out.prefix_norm, c.prefix_norm);
    for (size_t i = 0; i < c.value.size(); ++i) {
      EXPECT_EQ(values[i], c.value[i]) << i;
    }
  }
}

}  // namespace
}  // namespace sssj
