#include "core/population.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace zmail::core {

// Raw column sections are written as the in-memory (little-endian) bytes;
// a big-endian port would need byte-swapping load/store here.
static_assert(std::endian::native == std::endian::little,
              "ZSNP v2 column sections are little-endian");
static_assert(sizeof(Money) == sizeof(std::int64_t) &&
                  alignof(Money) == alignof(std::int64_t),
              "Money must column-pack as a bare i64 (micros)");
static_assert(
    [] {
      std::size_t bytes = 0;
      for (std::size_t c = 0; c < Population::kColumnCount; ++c)
        bytes += Population::column_width(static_cast<Population::Column>(c));
      return bytes;
    }() == Population::kRowBytes,
    "kRowBytes is one row across every column");

const char* Population::column_name(Column c) noexcept {
  switch (c) {
    case Column::kAccount: return "account";
    case Column::kBalance: return "balance";
    case Column::kSent: return "sent";
    case Column::kLimit: return "limit";
    case Column::kBlockedToday: return "blocked_today";
    case Column::kWarnings: return "warnings";
    case Column::kQuarantined: return "quarantined";
    case Column::kLifetimeSent: return "lifetime_sent";
    case Column::kLifetimeReceivedPaid: return "lifetime_received_paid";
    case Column::kLifetimeEpenniesBought: return "lifetime_epennies_bought";
    case Column::kLifetimeEpenniesSold: return "lifetime_epennies_sold";
  }
  return "?";
}

namespace {

// The kernel backs a mapping with huge pages only in fully covered,
// 2 MiB-aligned extents; the tail past the last one stays in 4 KiB pages.
constexpr std::size_t kHugePage = std::size_t{2} << 20;
constexpr std::size_t kColumnAlign = 64;

// Arena order: canonical order, except that blocked_today follows sent so
// the day arena is one contiguous block.
constexpr Population::Column kArenaOrder[Population::kColumnCount] = {
    Population::Column::kAccount,
    Population::Column::kBalance,
    Population::Column::kSent,
    Population::Column::kBlockedToday,
    Population::Column::kLimit,
    Population::Column::kWarnings,
    Population::Column::kQuarantined,
    Population::Column::kLifetimeSent,
    Population::Column::kLifetimeReceivedPaid,
    Population::Column::kLifetimeEpenniesBought,
    Population::Column::kLifetimeEpenniesSold,
};

constexpr std::uint16_t kAllColumns = (1u << Population::kColumnCount) - 1;

constexpr std::uint16_t column_bit(Population::Column c) noexcept {
  return static_cast<std::uint16_t>(1u << static_cast<unsigned>(c));
}

constexpr std::size_t align_up(std::size_t x, std::size_t a) noexcept {
  return (x + a - 1) & ~(a - 1);
}

constexpr std::size_t bitmap_words(std::size_t n) noexcept {
  return (n + 63) / 64;
}

// Maps `bytes` (a page multiple) of zero pages at a 2 MiB boundary:
// over-map by one huge page, then unmap the unaligned head and the tail.
std::uint8_t* map_arena(std::size_t bytes) {
  const std::size_t span = bytes + kHugePage;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = align_up(start, kHugePage);
  if (aligned != start) ::munmap(raw, aligned - start);
  const std::uintptr_t tail = aligned + bytes;
  if (tail != start + span)
    ::munmap(reinterpret_cast<void*>(tail), start + span - tail);
  auto* base = reinterpret_cast<std::uint8_t*>(aligned);
  // Advisory: a kernel without transparent huge pages keeps small ones.
  (void)::madvise(base, bytes, MADV_HUGEPAGE);
  return base;
}

}  // namespace

Population::~Population() { release(); }

Population::Population(Population&& o) noexcept { *this = std::move(o); }

Population& Population::operator=(Population&& o) noexcept {
  if (this == &o) return *this;
  release();
  n_ = std::exchange(o.n_, 0);
  base_ = std::exchange(o.base_, nullptr);
  mapped_ = std::exchange(o.mapped_, 0);
  col_ = std::exchange(o.col_, {});
  dirty_ = std::exchange(o.dirty_, nullptr);
  dirty_cols_ = std::exchange(o.dirty_cols_, 0);
  policy_ = std::move(o.policy_);
  o.policy_.clear();
  return *this;
}

void Population::release() noexcept {
  if (base_) ::munmap(base_, mapped_);
  n_ = 0;
  base_ = nullptr;
  mapped_ = 0;
  col_ = {};
  dirty_ = nullptr;
  dirty_cols_ = 0;
}

void Population::reset(std::size_t n, Money account, EPenny balance,
                       std::int64_t limit) {
  if (n != n_ || !base_) {
    release();
    std::array<std::size_t, kColumnCount> offset{};
    std::size_t bytes = 0;
    for (const Column c : kArenaOrder) {
      offset[static_cast<std::size_t>(c)] = bytes;
      bytes = align_up(bytes + n * column_width(c), kColumnAlign);
    }
    const std::size_t dirty_offset = bytes;
    bytes += bitmap_words(n) * sizeof(std::uint64_t);
    if (n != 0) {
      const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
      mapped_ = align_up(bytes, page);
      base_ = map_arena(mapped_);
      for (std::size_t c = 0; c < kColumnCount; ++c)
        col_[c] = base_ + offset[c];
      dirty_ = reinterpret_cast<std::uint64_t*>(base_ + dirty_offset);
    }
    n_ = n;
  }
  if (n != 0) {
    std::fill_n(col<Money>(Column::kAccount), n, account);
    std::fill_n(col<EPenny>(Column::kBalance), n, balance);
    std::fill_n(col<std::int64_t>(Column::kLimit), n, limit);
    for (const Column c :
         {Column::kSent, Column::kBlockedToday, Column::kWarnings,
          Column::kQuarantined, Column::kLifetimeSent,
          Column::kLifetimeReceivedPaid, Column::kLifetimeEpenniesBought,
          Column::kLifetimeEpenniesSold})
      std::memset(col<std::uint8_t>(c), 0, column_bytes(c));
    clear_dirty();
  }
  dirty_cols_ = kAllColumns;
  policy_.clear();
}

void Population::resize_for_load(std::size_t n) {
  if (n != n_) {
    reset(n, Money::zero(), 0, 0);
    return;
  }
  policy_.clear();
}

void Population::reset_day() noexcept {
  if (n_ == 0) return;
  // sent[] and blocked_today[] are adjacent in the arena.
  auto* first = col<std::uint8_t>(Column::kSent);
  auto* last = col<std::uint8_t>(Column::kBlockedToday) +
               column_bytes(Column::kBlockedToday);
  std::memset(first, 0, static_cast<std::size_t>(last - first));
  dirty_cols_ |= column_bit(Column::kSent) | column_bit(Column::kBlockedToday);
}

bool Population::load_column(Column c, const std::uint8_t* data,
                             std::size_t len) {
  if (len != column_bytes(c)) return false;
  if (len != 0) std::memcpy(col<std::uint8_t>(c), data, len);
  dirty_cols_ |= column_bit(c);
  return true;
}

void Population::clear_dirty() noexcept {
  if (dirty_) std::memset(dirty_, 0, bitmap_words(n_) * sizeof(std::uint64_t));
  dirty_cols_ = 0;
}

std::size_t Population::dirty_row_count() const noexcept {
  std::size_t rows = 0;
  for (std::size_t w = 0; w < bitmap_words(n_); ++w)
    rows += static_cast<std::size_t>(std::popcount(dirty_[w]));
  return rows;
}

std::size_t Population::dirty_rows_bytes() const noexcept {
  return sizeof(std::uint32_t) +
         dirty_row_count() * (sizeof(std::uint32_t) + kRowBytes);
}

std::size_t Population::differential_bytes() const noexcept {
  std::size_t bytes = dirty_rows_bytes();
  for (std::size_t c = 0; c < kColumnCount; ++c)
    if (column_dirty(static_cast<Column>(c)))
      bytes += column_bytes(static_cast<Column>(c));
  return bytes;
}

namespace {

// Copies `rows` values of `width` bytes between a column and a packed run,
// one per slot in `slots` (u32 little-endian).  The two widths get their
// own constant-size copies.
template <bool kToColumn>
void copy_rows(std::uint8_t* column, std::uint8_t* packed,
               const std::uint8_t* slots, std::size_t rows,
               std::size_t width) {
  const auto run = [&](auto w) {
    for (std::size_t k = 0; k < rows; ++k) {
      std::uint32_t slot = 0;
      std::memcpy(&slot, slots + 4 * k, 4);
      std::uint8_t* cell = column + std::size_t{slot} * w;
      if constexpr (kToColumn)
        std::memcpy(cell, packed + k * w, w);
      else
        std::memcpy(packed + k * w, cell, w);
    }
  };
  if (width == sizeof(std::int64_t))
    run(std::integral_constant<std::size_t, sizeof(std::int64_t)>{});
  else
    run(std::integral_constant<std::size_t, 1>{});
}

}  // namespace

void Population::gather_dirty_rows(std::span<std::uint8_t> out) const {
  const std::size_t rows = dirty_row_count();
  ZMAIL_ASSERT(out.size() ==
               sizeof(std::uint32_t) + rows * (sizeof(std::uint32_t) + kRowBytes));
  std::uint8_t* p = out.data();
  const auto count = static_cast<std::uint32_t>(rows);
  std::memcpy(p, &count, 4);
  std::uint8_t* const slots = p + 4;
  std::uint8_t* s = slots;
  for (std::size_t w = 0; w < bitmap_words(n_); ++w)
    for (std::uint64_t bits = dirty_[w]; bits != 0; bits &= bits - 1) {
      const auto slot =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      std::memcpy(s, &slot, 4);
      s += 4;
    }
  p = s;
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    const std::size_t width = column_width(static_cast<Column>(c));
    copy_rows<false>(col_[c], p, slots, rows, width);
    p += rows * width;
  }
}

bool Population::load_rows(std::span<const std::uint8_t> payload) {
  if (payload.size() < 4) return false;
  std::uint32_t count = 0;
  std::memcpy(&count, payload.data(), 4);
  const std::size_t rows = count;
  if (payload.size() != 4 + rows * (sizeof(std::uint32_t) + kRowBytes))
    return false;
  const std::uint8_t* slots = payload.data() + 4;
  for (std::size_t k = 0; k < rows; ++k) {
    std::uint32_t slot = 0;
    std::memcpy(&slot, slots + 4 * k, 4);
    if (slot >= n_) return false;
  }
  // copy_rows never writes through `packed` when scattering.
  auto* p = const_cast<std::uint8_t*>(slots + 4 * rows);
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    const std::size_t width = column_width(static_cast<Column>(c));
    copy_rows<true>(col_[c], p, slots, rows, width);
    p += rows * width;
  }
  for (std::size_t k = 0; k < rows; ++k) {
    std::uint32_t slot = 0;
    std::memcpy(&slot, slots + 4 * k, 4);
    dirty_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  return true;
}

RowBuffer::~RowBuffer() {
  if (data_) ::munmap(data_, mapped_);
}

std::span<std::uint8_t> RowBuffer::take(std::size_t n) {
  if (n > mapped_) {
    if (data_) ::munmap(data_, mapped_);
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    mapped_ = align_up(n, page);
    void* p = ::mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      data_ = nullptr;
      mapped_ = 0;
      throw std::bad_alloc();
    }
    data_ = static_cast<std::uint8_t*>(p);
  }
  return {data_, n};
}

void RowBuffer::release() noexcept {
  if (data_) (void)::madvise(data_, mapped_, MADV_DONTNEED);
}

}  // namespace zmail::core
