#include "core/population.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <utility>

namespace zmail::core {

// Raw column sections are written as the in-memory (little-endian) bytes;
// a big-endian port would need byte-swapping load/store here.
static_assert(std::endian::native == std::endian::little,
              "ZSNP v2 column sections are little-endian");
static_assert(sizeof(Money) == sizeof(std::int64_t) &&
                  alignof(Money) == alignof(std::int64_t),
              "Money must column-pack as a bare i64 (micros)");

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

constexpr std::size_t align_up(std::size_t x, std::size_t a) noexcept {
  return (x + a - 1) & ~(a - 1);
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
    if (n != 0) {
      const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
      mapped_ = align_up(bytes, page);
      base_ = map_arena(mapped_);
      for (std::size_t c = 0; c < kColumnCount; ++c)
        col_[c] = base_ + offset[c];
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
  }
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
}

bool Population::load_column(Column c, const std::uint8_t* data,
                             std::size_t len) {
  if (len != column_bytes(c)) return false;
  if (len != 0) std::memcpy(col<std::uint8_t>(c), data, len);
  return true;
}

}  // namespace zmail::core
