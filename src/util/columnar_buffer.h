// Structure-of-arrays circular buffer: N parallel columns sharing one
// head/size/capacity, with the same growth policy as the paper's circular
// byte buffer (§6.2: double when full, halve below 1/4 occupancy). The
// point of the columnar layout is scan bandwidth — a consumer that only
// needs the `ts` and `id` columns of a posting list streams 16 bytes per
// entry through cache instead of the full 32-byte AoS record — so the
// buffer exposes its storage as raw per-column segments (`Segments`) in
// addition to per-element accessors.
//
// All columns live in ONE contiguous allocation (column I starts at a
// computed offset), so creating or rebuilding a buffer costs a single
// allocation no matter how many columns there are — posting-list
// workloads have hundreds of thousands of short lists, and per-column
// vectors would quadruple their allocation churn.
//
// Because the storage is circular, a logical range [begin, end) maps to
// at most two physically contiguous runs per column; hot loops iterate
// those runs over raw pointers with no per-element masking.
//
// Columns are restricted to trivially copyable types: growth and
// compaction move elements with memcpy/assignment and no per-slot
// destruction is ever needed.
//
// Sizing is tuned for the short-list regime: posting-list workloads at
// laptop-scale horizons average ~4 entries per list, so a default-
// constructed buffer owns NO allocation (empty lists are free), the first
// PushBack allocates kInitialCapacity = 4 slots per column, and growth
// doubles from there. Clear() releases the block entirely.
//
// The header is 24 bytes: the block pointer and 32-bit capacity, head
// and size. Column offsets are not stored; they follow from the
// capacity. An initial-capacity block can be handed from one buffer to
// another (ReleaseBlock / AdoptBlock), so a pool of them lets short
// lists come and go without touching the allocator.
#ifndef SSSJ_UTIL_COLUMNAR_BUFFER_H_
#define SSSJ_UTIL_COLUMNAR_BUFFER_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>

namespace sssj {

template <typename... Ts>
class ColumnarBuffer {
  static_assert(sizeof...(Ts) > 0, "at least one column required");
  static_assert((std::is_trivially_copyable_v<Ts> && ...),
                "columns must be trivially copyable");

 public:
  static constexpr size_t kNumColumns = sizeof...(Ts);
  static constexpr uint32_t kInitialCapacity = 4;
  static constexpr size_t kRowBytes = (sizeof(Ts) + ... + 0);

  template <size_t I>
  using ColumnType = std::tuple_element_t<I, std::tuple<Ts...>>;

  // One physically contiguous run of a logical range. `begin` is the
  // logical index of the run's first element; `phys` its physical slot.
  struct Segment {
    size_t phys = 0;
    size_t begin = 0;
    size_t len = 0;
  };

  // A block of kInitialCapacity slots, as ReleaseBlock hands it out.
  using Block = std::unique_ptr<unsigned char[]>;

  ColumnarBuffer() = default;  // lazy: no block until the first PushBack

  ColumnarBuffer(const ColumnarBuffer& other) { CopyFrom(other); }
  ColumnarBuffer& operator=(const ColumnarBuffer& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  // Moves leave the source as a valid, empty, allocation-free buffer
  // (capacity 0; PushBack re-grows it) — a defaulted move would leave it
  // with a null block but nonzero size.
  ColumnarBuffer(ColumnarBuffer&& other) noexcept
      : block_(std::move(other.block_)),
        capacity_(other.capacity_),
        head_(other.head_),
        size_(other.size_) {
    other.ResetToEmpty();
  }
  ColumnarBuffer& operator=(ColumnarBuffer&& other) noexcept {
    if (this != &other) {
      block_ = std::move(other.block_);
      capacity_ = other.capacity_;
      head_ = other.head_;
      size_ = other.size_;
      other.ResetToEmpty();
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  // Element i of column I, counted from the front (oldest). i < size().
  template <size_t I>
  const ColumnType<I>& Get(size_t i) const {
    assert(i < size_);
    return ColumnData<I>()[Mask(head_ + i)];
  }
  template <size_t I>
  ColumnType<I>& Get(size_t i) {
    assert(i < size_);
    return MutableColumnData<I>()[Mask(head_ + i)];
  }

  // Raw backing array of column I (physical order; use Segments to map
  // logical ranges). Pointers are invalidated by PushBack, truncation and
  // Clear (any of which may rebuild the storage).
  template <size_t I>
  const ColumnType<I>* ColumnData() const {
    return reinterpret_cast<const ColumnType<I>*>(block_.get() +
                                                  ColumnOffset(I, capacity_));
  }

  void PushBack(Ts... values) {
    if (size_ == capacity_) {
      assert(capacity_ <= UINT32_MAX / 2);
      Rebuild(capacity_ == 0 ? kInitialCapacity : capacity_ * 2);
    }
    const size_t slot = Mask(head_ + size_);
    SetSlot(slot, std::index_sequence_for<Ts...>{}, values...);
    ++size_;
  }

  // Drops the `n` oldest elements. O(1) plus a possible shrink rebuild.
  void TruncateFront(size_t n) {
    assert(n <= size_);
    head_ = static_cast<uint32_t>(Mask(head_ + n));
    size_ -= static_cast<uint32_t>(n);
    MaybeShrink();
  }

  // Drops the `n` newest elements (used by in-place compaction).
  void TruncateBack(size_t n) {
    assert(n <= size_);
    size_ -= static_cast<uint32_t>(n);
    MaybeShrink();
  }

  // Copies all columns of logical element `from` into logical element
  // `to` (compaction helper; to <= from keeps survivors in order).
  void MoveElement(size_t to, size_t from) {
    assert(to < size_ && from < size_);
    const size_t dst = Mask(head_ + to);
    const size_t src = Mask(head_ + from);
    CopySlot(dst, src, std::index_sequence_for<Ts...>{});
  }

  void Clear() { ResetToEmpty(); }

  // Maps the logical range [begin, end) to its (at most two) contiguous
  // physical runs. Returns the number of runs written to `out`.
  size_t Segments(size_t begin, size_t end, Segment out[2]) const {
    assert(begin <= end && end <= size_);
    const size_t len = end - begin;
    if (len == 0) return 0;
    const size_t phys = Mask(head_ + begin);
    const size_t first = phys + len <= capacity_ ? len : capacity_ - phys;
    out[0] = Segment{phys, begin, first};
    if (first == len) return 1;
    out[1] = Segment{0, begin + first, len - first};
    return 2;
  }

  // Memory footprint of the backing store across all columns, in bytes.
  size_t capacity_bytes() const { return capacity_ * kRowBytes; }

  // What capacity_bytes() reads for a buffer holding a pooled block.
  static constexpr size_t kInitialCapacityBytes = kInitialCapacity * kRowBytes;

  // Empties the buffer. Returns its block when it has the initial
  // capacity, for AdoptBlock to reuse; frees any other block.
  Block ReleaseBlock() {
    Block out;
    if (capacity_ == kInitialCapacity) out = std::move(block_);
    ResetToEmpty();
    return out;
  }

  // Gives an empty buffer that owns no block a released one: it then
  // holds kInitialCapacity slots and no elements.
  void AdoptBlock(Block block) {
    assert(capacity_ == 0 && block != nullptr);
    block_ = std::move(block);
    capacity_ = kInitialCapacity;
    head_ = 0;
    size_ = 0;
  }

 private:
  size_t Mask(size_t i) const { return i & (capacity_ - 1); }

  template <size_t I>
  ColumnType<I>* MutableColumnData() {
    return reinterpret_cast<ColumnType<I>*>(block_.get() +
                                            ColumnOffset(I, capacity_));
  }

  template <size_t... Is>
  void SetSlot(size_t slot, std::index_sequence<Is...>, const Ts&... values) {
    ((MutableColumnData<Is>()[slot] = values), ...);
  }

  template <size_t... Is>
  void CopySlot(size_t dst, size_t src, std::index_sequence<Is...>) {
    ((MutableColumnData<Is>()[dst] = MutableColumnData<Is>()[src]), ...);
  }

  void MaybeShrink() {
    if (capacity_ > kInitialCapacity && size_ < capacity_ / 4) {
      Rebuild(capacity_ / 2);
    }
  }

  void ResetToEmpty() {
    block_.reset();
    capacity_ = 0;
    head_ = 0;
    size_ = 0;
  }

  // Byte offset of column `col` in a block of `capacity` slots; col ==
  // kNumColumns gives the block size. Constant-folds for a fixed column.
  static constexpr size_t ColumnOffset(size_t col, size_t capacity) {
    constexpr size_t sizes[] = {sizeof(Ts)...};
    constexpr size_t aligns[] = {alignof(Ts)...};
    size_t off = 0;
    for (size_t i = 0; i < col; ++i) {
      off += capacity * sizes[i];
      const size_t next = i + 1 < kNumColumns ? aligns[i + 1] : 1;
      off = (off + next - 1) & ~(next - 1);
    }
    return off;
  }

  // Re-homes the live range to the front of a block of `new_capacity`;
  // one allocation, one memcpy per (column × wrap segment).
  void Rebuild(size_t new_capacity) {
    Segment segs[2];
    const size_t n = Segments(0, size_, segs);
    auto new_block = std::make_unique<unsigned char[]>(
        ColumnOffset(kNumColumns, new_capacity));
    const size_t sizes[] = {sizeof(Ts)...};
    for (size_t col = 0; col < kNumColumns; ++col) {
      unsigned char* dst = new_block.get() + ColumnOffset(col, new_capacity);
      const unsigned char* src = block_.get() + ColumnOffset(col, capacity_);
      for (size_t s = 0; s < n; ++s) {
        std::memcpy(dst, src + segs[s].phys * sizes[col],
                    segs[s].len * sizes[col]);
        dst += segs[s].len * sizes[col];
      }
    }
    block_ = std::move(new_block);
    capacity_ = static_cast<uint32_t>(new_capacity);
    head_ = 0;
  }

  void CopyFrom(const ColumnarBuffer& other) {
    if (other.block_ == nullptr) {  // source was moved from
      ResetToEmpty();
      return;
    }
    const size_t bytes = ColumnOffset(kNumColumns, other.capacity_);
    block_ = std::make_unique<unsigned char[]>(bytes);
    std::memcpy(block_.get(), other.block_.get(), bytes);
    capacity_ = other.capacity_;
    head_ = other.head_;
    size_ = other.size_;
  }

  std::unique_ptr<unsigned char[]> block_;
  uint32_t capacity_ = 0;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
};

}  // namespace sssj

#endif  // SSSJ_UTIL_COLUMNAR_BUFFER_H_
