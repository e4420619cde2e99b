// FrozenBlock — an immutable run of posting entries, the cold tier
// under every PostingList (ROADMAP item 2). A list's hot tail stays in
// the mutable ColumnarBuffer columns; once a cold prefix grows past the
// freeze threshold it is compacted into one of these blocks. Blocks come
// in two physical forms:
//
// Compressed (scan-cold lists — decode cost amortizes over rare scans):
//   id          delta + zigzag + varint (arrival order keeps deltas
//               small; decreasing sequences from L2AP re-indexing still
//               encode, just longer)
//   ts          double-delta over IEEE-754 bit patterns (~1 byte/entry
//               for regularly spaced streams; always lossless)
//   value       adaptive: double-delta when it beats raw fp64, else the
//               raw doubles; bit-identical either way
//   prefix_norm same as value; an all-zero column (INV lists) is elided
//               entirely
//
// Raw (scan-hot lists — scanned too often to pay any decode): exactly
// the four columns, contiguous and exactly sized, always fp64. Scans
// serve spans straight out of the block (zero-copy, no thaw), so the
// only thing freezing changes for a hot list is that the circular
// buffer's power-of-two capacity slack is squeezed out — memory drops
// ~1.5-2x with zero per-scan cost. The all-zero prefix_norm elision
// applies here too.
//
// Blocks are immutable after Freeze() and all accessors are const. Scans
// decompress one block at a time into caller-owned FrozenColumns scratch
// — cold entries cost decompression only when a scan actually reaches
// them; expiry drops whole blocks by the max_ts header without touching
// the bytes.
#ifndef SSSJ_UTIL_FROZEN_BLOCK_H_
#define SSSJ_UTIL_FROZEN_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.h"

namespace sssj {

// Knobs for the tiered posting storage, carried by EngineConfig and
// plumbed into every stream index. Disabled by default: lists then
// behave exactly as before (single mutable tier).
struct TieredStorageOptions {
  bool enabled = false;
  // Entries per frozen block. Bigger blocks compress better and amortize
  // per-block headers; smaller blocks make partial-expiry rewrites and
  // boundary decompression cheaper.
  uint32_t block_entries = 128;
  // Every list keeps dormant_tail_entries mutable and freezes the rest.
  // Hot/cold classifier (the streaming-detector idiom: appends since the
  // last scan measure whether anyone is reading this list): a list with
  // >= dormant_after_appends appends since its last scan is dormant, and
  // dormant lists freeze compressed. Frozen blocks read back the exact
  // doubles, so freeze timing never affects output — it only moves
  // where the block boundaries fall.
  uint32_t dormant_tail_entries = 32;
  uint32_t dormant_after_appends = 8;
  // Scan-rate classifier (fed by the arrival tick the index passes to
  // NoteScanned). A list re-scanned every `gap` arrivals traverses
  // size()/gap entries per arrival, so a list is scan-cold — worth
  // compressing — when size() <= gap * cold_scan_budget: its amortized
  // decompression stays under cold_scan_budget entries per arrival.
  // Lists over the line are scan-hot and freeze into raw zero-copy
  // blocks instead (no decode, still drops the buffer's capacity
  // slack). In a Zipfian stream this splits exactly where it should:
  // the few long head lists that soak up most scan traffic stay raw,
  // the many tail lists that hold most of the bytes compress.
  uint32_t cold_scan_budget = 32;
  // Freeze quantum. A list freezes every cold_freeze_quantum appends,
  // amending (thaw + extend + re-encode) its newest block in place until
  // that block reaches block_entries — so the mutable tail and its
  // power-of-two slack stay tiny without paying a header per tiny
  // block. Scan-hot lists freeze at least block_entries / 4 per amend.
  uint32_t cold_freeze_quantum = 16;
};

// Decode scratch: one growable vector per posting column. Owned by the
// caller, reused across blocks and arrivals so steady-state scans
// allocate nothing.
struct FrozenColumns {
  std::vector<VectorId> id;
  std::vector<double> value;
  std::vector<double> prefix_norm;
  std::vector<Timestamp> ts;
  // Always-zero backing for spans over blocks whose prefix_norm column
  // was elided. Grow-only and never written after the zero-initializing
  // resize, so serving a span from it costs nothing in steady state.
  std::vector<double> zeros;
};

// One physically contiguous source run to freeze (the circular hot tail
// yields up to two).
struct FrozenSourceRun {
  const VectorId* id = nullptr;
  const double* value = nullptr;
  const double* prefix_norm = nullptr;
  const Timestamp* ts = nullptr;
  size_t len = 0;
};

class FrozenBlock {
 public:
  FrozenBlock() = default;

  // Freezes the concatenation of `runs[0..nruns)` into a block. With
  // `compress` false the block stores raw exactly-sized fp64 columns and
  // scans read them zero-copy; with `compress` true the columns are
  // encoded as above. Either form thaws to the exact input bits.
  static FrozenBlock Freeze(const FrozenSourceRun* runs, size_t nruns,
                            bool compress = true);

  size_t count() const { return count_; }
  Timestamp min_ts() const { return min_ts_; }
  Timestamp max_ts() const { return max_ts_; }
  // Whether ts was non-decreasing across the frozen run (INV/L2 lists);
  // false after L2AP re-indexing interleaved old timestamps.
  bool time_sorted() const { return time_sorted_; }

  // False for raw zero-copy blocks: scans read the columns below
  // directly instead of thawing.
  bool compressed() const { return compressed_; }
  // Raw-form column pointers (valid only when !compressed()), each
  // count() long, carved out of one contiguous arena allocation.
  // raw_prefix_norm() is nullptr when the column was elided (all
  // zeros).
  const VectorId* raw_id() const {
    return reinterpret_cast<const VectorId*>(raw_.get());
  }
  const Timestamp* raw_ts() const {
    return reinterpret_cast<const Timestamp*>(raw_.get()) + count_;
  }
  const double* raw_value() const {
    return reinterpret_cast<const double*>(raw_.get()) + 2 * count_;
  }
  const double* raw_prefix_norm() const {
    return has_prefix_norm_
               ? reinterpret_cast<const double*>(raw_.get()) + 3 * count_
               : nullptr;
  }

  // Payload + header, as allocated (either form).
  size_t memory_bytes() const {
    return bytes_.capacity() + RawArenaBytes() + sizeof(*this);
  }
  size_t payload_bytes() const { return bytes_.size() + RawArenaBytes(); }

  // False when the prefix_norm column was elided (all zeros at freeze
  // time); such blocks decode the column as zeros.
  bool has_prefix_norm() const { return has_prefix_norm_; }

  // When the encoder kept the value column as raw fp64 (its adaptive
  // fallback — the common case for real-valued streams), the doubles sit
  // verbatim inside the compressed byte buffer and scans can read them in
  // place instead of copying them out in Thaw. Returns that in-place
  // column, or nullptr when the column was actually encoded (double-delta
  // payload). The encoder pads the column after its flag byte to an
  // 8-byte offset, so the pointer is aligned for double.
  const double* inline_exact_values() const {
    if (compressed_ && count_ != 0 && bytes_[ts_end_] == 0) {
      const size_t start =
          (ts_end_ + sizeof(double)) & ~(sizeof(double) - 1);
      return reinterpret_cast<const double*>(bytes_.data() + start);
    }
    return nullptr;
  }

  // Decompresses every entry into `out` (overwriting, resized to
  // count()). Allocation-free once the scratch has grown to block size.
  // With `fill_elided_prefix_norm` false, an elided prefix_norm column
  // is left with unspecified contents (only resized) — for callers that
  // serve zeros from elsewhere (FrozenColumns::zeros) and would
  // otherwise pay a memset per scan. With `skip_value` true the value
  // column is likewise left unspecified — for scans that read it in
  // place via inline_exact_values().
  void Thaw(FrozenColumns* out, bool fill_elided_prefix_norm = true,
            bool skip_value = false) const;

  // Number of leading entries with ts < cutoff. Requires time_sorted();
  // walks only the ts stream, stopping at the boundary. Used to position
  // partial-block expiry without decompressing the other columns.
  size_t CountOlderThan(Timestamp cutoff) const;

 private:
  size_t RawArenaBytes() const {
    return raw_ == nullptr
               ? 0
               : count_ * ((has_prefix_norm_ ? 2 : 1) * sizeof(double) +
                           sizeof(VectorId) + sizeof(Timestamp));
  }

  uint32_t count_ = 0;
  bool has_prefix_norm_ = false;  // false: column elided (all zeros)
  bool time_sorted_ = true;
  bool compressed_ = true;
  Timestamp min_ts_ = 0.0;
  Timestamp max_ts_ = 0.0;
  // Section boundaries within bytes_: ids in [0, id_end), timestamps in
  // [id_end, ts_end), values in [ts_end, value_end), prefix norms in
  // [value_end, bytes_.size()). A value section that holds raw fp64 is
  // its flag byte, zero padding to an 8-byte offset, then the doubles.
  uint32_t id_end_ = 0;
  uint32_t ts_end_ = 0;
  uint32_t value_end_ = 0;
  std::vector<uint8_t> bytes_;  // compressed form
  // Raw zero-copy form: one allocation holding id[count], ts[count],
  // value[count], then prefix_norm[count] unless elided (all 8-byte
  // types, so the layout needs no padding).
  std::unique_ptr<unsigned char[]> raw_;
};

}  // namespace sssj

#endif  // SSSJ_UTIL_FROZEN_BLOCK_H_
