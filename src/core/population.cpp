#include "core/population.hpp"

#include <bit>

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

void Population::reset(std::size_t n, Money account, EPenny balance,
                       std::int64_t limit) {
  n_ = n;
  account_.assign(n, account);
  balance_.assign(n, balance);
  limit_.assign(n, limit);
  warnings_.assign(n, 0);
  quarantined_.assign(n, 0);
  lifetime_sent_.assign(n, 0);
  lifetime_received_paid_.assign(n, 0);
  lifetime_bought_.assign(n, 0);
  lifetime_sold_.assign(n, 0);
  // sent[] first so the i64 block sits at offset 0 of the (max-aligned)
  // allocation; blocked_today[] is byte-granular and follows.
  day_arena_bytes_ = n * sizeof(std::int64_t) + n * sizeof(std::uint8_t);
  if (day_arena_bytes_ != 0) {
    day_arena_ = std::make_unique<std::uint8_t[]>(day_arena_bytes_);
    sent_ = reinterpret_cast<std::int64_t*>(day_arena_.get());
    blocked_ = day_arena_.get() + n * sizeof(std::int64_t);
    reset_day();
  } else {
    day_arena_.reset();
    sent_ = nullptr;
    blocked_ = nullptr;
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

const std::uint8_t* Population::column_data(Column c) const noexcept {
  switch (c) {
    case Column::kAccount:
      return reinterpret_cast<const std::uint8_t*>(account_.data());
    case Column::kBalance:
      return reinterpret_cast<const std::uint8_t*>(balance_.data());
    case Column::kSent:
      return reinterpret_cast<const std::uint8_t*>(sent_);
    case Column::kLimit:
      return reinterpret_cast<const std::uint8_t*>(limit_.data());
    case Column::kBlockedToday:
      return blocked_;
    case Column::kWarnings:
      return reinterpret_cast<const std::uint8_t*>(warnings_.data());
    case Column::kQuarantined:
      return quarantined_.data();
    case Column::kLifetimeSent:
      return reinterpret_cast<const std::uint8_t*>(lifetime_sent_.data());
    case Column::kLifetimeReceivedPaid:
      return reinterpret_cast<const std::uint8_t*>(
          lifetime_received_paid_.data());
    case Column::kLifetimeEpenniesBought:
      return reinterpret_cast<const std::uint8_t*>(lifetime_bought_.data());
    case Column::kLifetimeEpenniesSold:
      return reinterpret_cast<const std::uint8_t*>(lifetime_sold_.data());
  }
  return nullptr;
}

bool Population::load_column(Column c, const std::uint8_t* data,
                             std::size_t len) {
  if (len != column_bytes(c)) return false;
  if (len != 0) std::memcpy(mutable_column_data(c), data, len);
  return true;
}

}  // namespace zmail::core
