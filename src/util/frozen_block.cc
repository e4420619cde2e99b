#include "util/frozen_block.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/codec.h"

namespace sssj {

namespace {

void PutRawDouble(std::vector<uint8_t>* out, double d) {
  uint8_t buf[sizeof(double)];
  std::memcpy(buf, &d, sizeof(double));
  out->insert(out->end(), buf, buf + sizeof(double));
}

// Bytes of padding that bring `offset` to an 8-byte boundary. A raw fp64
// value column starts there, so scans can read it in place as doubles
// (bytes_ itself comes from operator new, aligned for any fundamental
// type).
size_t PadToDouble(size_t offset) {
  return (sizeof(double) - offset % sizeof(double)) % sizeof(double);
}

// Encodes one value-like column section (value or prefix_norm),
// adaptively: a double-delta candidate (lossless; ~1 byte/entry for
// constant or regularly spaced columns) is emitted only when it beats raw
// fp64, selected by one leading flag byte. A raw fp64 payload is
// zero-padded after the flag to an 8-byte offset within `out`.
void EncodeValueColumn(const FrozenSourceRun* runs, size_t nruns,
                       bool prefix_norm_column, std::vector<uint8_t>* out) {
  std::vector<double> col;
  for (size_t r = 0; r < nruns; ++r) {
    const double* src = prefix_norm_column ? runs[r].prefix_norm
                                           : runs[r].value;
    col.insert(col.end(), src, src + runs[r].len);
  }
  std::vector<uint8_t> dd;
  codec::EncodeDoubleDelta(col.data(), col.size(), &dd);
  if (dd.size() < col.size() * sizeof(double)) {
    out->push_back(1);  // double-delta payload
    out->insert(out->end(), dd.begin(), dd.end());
  } else {
    out->push_back(0);  // raw fp64 payload
    out->insert(out->end(), PadToDouble(out->size()), 0);
    for (double d : col) PutRawDouble(out, d);
  }
}

// Decodes the section [p, end) of the block buffer starting at `base`.
void DecodeValueColumn(const uint8_t* base, const uint8_t* p,
                       const uint8_t* end, size_t n, double* out) {
  assert(p < end);
  const uint8_t flag = *p++;
  if (flag == 0) {
    p += PadToDouble(static_cast<size_t>(p - base));
    assert(static_cast<size_t>(end - p) == n * sizeof(double));
    std::memcpy(out, p, n * sizeof(double));
  } else {
    const uint8_t* q = codec::DecodeDoubleDelta(p, end, n, out);
    assert(q == end);
    (void)q;
  }
}

}  // namespace

FrozenBlock FrozenBlock::Freeze(const FrozenSourceRun* runs, size_t nruns,
                                bool compress) {
  FrozenBlock block;
  size_t total = 0;
  for (size_t r = 0; r < nruns; ++r) total += runs[r].len;
  block.count_ = static_cast<uint32_t>(total);
  if (total == 0) return block;

  // Header fields and the prefix-norm elision probe in one pass. The
  // probe compares bit patterns: a -0.0 column must not thaw as +0.0.
  bool first = true;
  bool all_pn_zero = true;
  Timestamp prev_ts = 0.0;
  for (size_t r = 0; r < nruns; ++r) {
    for (size_t i = 0; i < runs[r].len; ++i) {
      const Timestamp t = runs[r].ts[i];
      if (first) {
        block.min_ts_ = t;
        block.max_ts_ = t;
        first = false;
      } else {
        if (t < prev_ts) block.time_sorted_ = false;
        if (t < block.min_ts_) block.min_ts_ = t;
        if (t > block.max_ts_) block.max_ts_ = t;
      }
      prev_ts = t;
      if (codec::DoubleBits(runs[r].prefix_norm[i]) != 0) {
        all_pn_zero = false;
      }
    }
  }
  block.has_prefix_norm_ = !all_pn_zero;

  if (!compress) {
    // Raw zero-copy form: exactly sized contiguous columns in one arena
    // allocation, no encoding.
    block.compressed_ = false;
    const size_t arena =
        total * ((block.has_prefix_norm_ ? 2 : 1) * sizeof(double) +
                 sizeof(VectorId) + sizeof(Timestamp));
    block.raw_ = std::make_unique<unsigned char[]>(arena);
    VectorId* id = const_cast<VectorId*>(block.raw_id());
    Timestamp* ts = const_cast<Timestamp*>(block.raw_ts());
    double* value = const_cast<double*>(block.raw_value());
    double* pn = const_cast<double*>(block.raw_prefix_norm());
    for (size_t r = 0; r < nruns; ++r) {
      const size_t len = runs[r].len;
      std::memcpy(id, runs[r].id, len * sizeof(VectorId));
      std::memcpy(ts, runs[r].ts, len * sizeof(Timestamp));
      std::memcpy(value, runs[r].value, len * sizeof(double));
      id += len;
      ts += len;
      value += len;
      if (pn != nullptr) {
        std::memcpy(pn, runs[r].prefix_norm, len * sizeof(double));
        pn += len;
      }
    }
    return block;
  }

  std::vector<uint8_t>& bytes = block.bytes_;
  {
    uint64_t prev = 0;
    for (size_t r = 0; r < nruns; ++r) {
      for (size_t i = 0; i < runs[r].len; ++i) {
        const uint64_t v = runs[r].id[i];
        codec::PutVarint(&bytes,
                         codec::ZigZagEncode(static_cast<int64_t>(v - prev)));
        prev = v;
      }
    }
  }
  block.id_end_ = static_cast<uint32_t>(bytes.size());
  {
    uint64_t prev = 0;
    uint64_t prev_delta = 0;
    for (size_t r = 0; r < nruns; ++r) {
      for (size_t i = 0; i < runs[r].len; ++i) {
        const uint64_t bits = codec::DoubleBits(runs[r].ts[i]);
        const uint64_t delta = bits - prev;
        codec::PutVarint(
            &bytes,
            codec::ZigZagEncode(static_cast<int64_t>(delta - prev_delta)));
        prev = bits;
        prev_delta = delta;
      }
    }
  }
  block.ts_end_ = static_cast<uint32_t>(bytes.size());
  EncodeValueColumn(runs, nruns, /*prefix_norm_column=*/false, &bytes);
  block.value_end_ = static_cast<uint32_t>(bytes.size());
  if (block.has_prefix_norm_) {
    EncodeValueColumn(runs, nruns, /*prefix_norm_column=*/true, &bytes);
  }
  bytes.shrink_to_fit();
  return block;
}

void FrozenBlock::Thaw(FrozenColumns* out, bool fill_elided_prefix_norm,
                       bool skip_value) const {
  const size_t n = count_;
  out->id.resize(n);
  out->value.resize(n);
  out->prefix_norm.resize(n);
  out->ts.resize(n);
  if (n == 0) return;
  if (!compressed_) {
    std::memcpy(out->id.data(), raw_id(), n * sizeof(VectorId));
    std::memcpy(out->value.data(), raw_value(), n * sizeof(double));
    std::memcpy(out->ts.data(), raw_ts(), n * sizeof(Timestamp));
    if (has_prefix_norm_) {
      std::memcpy(out->prefix_norm.data(), raw_prefix_norm(),
                  n * sizeof(double));
    } else if (fill_elided_prefix_norm) {
      std::fill(out->prefix_norm.begin(), out->prefix_norm.end(), 0.0);
    }
    return;
  }
  const uint8_t* base = bytes_.data();
  const uint8_t* p = codec::DecodeDeltaU64(base, base + id_end_, n,
                                           out->id.data());
  assert(p == base + id_end_);
  p = codec::DecodeDoubleDelta(base + id_end_, base + ts_end_, n,
                               out->ts.data());
  assert(p == base + ts_end_);
  (void)p;
  if (!skip_value) {
    DecodeValueColumn(base, base + ts_end_, base + value_end_, n,
                      out->value.data());
  }
  if (has_prefix_norm_) {
    DecodeValueColumn(base, base + value_end_, base + bytes_.size(), n,
                      out->prefix_norm.data());
  } else if (fill_elided_prefix_norm) {
    std::fill(out->prefix_norm.begin(), out->prefix_norm.end(), 0.0);
  }
}

size_t FrozenBlock::CountOlderThan(Timestamp cutoff) const {
  assert(time_sorted_);
  if (count_ == 0 || min_ts_ >= cutoff) return 0;
  if (max_ts_ < cutoff) return count_;
  if (!compressed_) {
    const Timestamp* ts = raw_ts();
    return static_cast<size_t>(std::lower_bound(ts, ts + count_, cutoff) -
                               ts);
  }
  const uint8_t* p = bytes_.data() + id_end_;
  const uint8_t* end = bytes_.data() + ts_end_;
  uint64_t prev = 0;
  uint64_t prev_delta = 0;
  for (size_t i = 0; i < count_; ++i) {
    uint64_t z = 0;
    p = codec::GetVarint(p, end, &z);
    assert(p != nullptr);
    prev_delta += static_cast<uint64_t>(codec::ZigZagDecode(z));
    prev += prev_delta;
    if (codec::BitsDouble(prev) >= cutoff) return i;
  }
  return count_;
}

}  // namespace sssj
