// Columnar per-user state (struct-of-arrays).
//
// Each ISP used to hold a std::vector<UserAccount> of ~100-byte records;
// the per-message hot path touches only two or three fields of two users,
// so at realistic populations (10^6..10^7 accounts) every send was a cache
// miss into a fat row, end-of-day reset walked every record, and snapshots
// re-serialized twelve fields per user.  Population stores each field as
// its own dense column indexed by UserId slot:
//
//   persistent columns   account[] balance[] limit[] warnings[]
//                        quarantined[] lifetime_sent[]
//                        lifetime_received_paid[] lifetime_bought[]
//                        lifetime_sold[]
//   day arena            sent[] blocked_today[]   (adjacent; the
//                        end-of-day reset is a single memset)
//   sparse side table    policy_override          (std::map keyed by slot:
//                        rare, and map order keeps serialization
//                        deterministic)
//
// All eleven columns live in one anonymous mapping per population,
// 2 MiB-aligned and advised MADV_HUGEPAGE, so building a million-user
// world faults in a few dozen huge pages instead of tens of thousands of
// 4 KiB ones.  Each column starts on a 64-byte boundary.  The mapping is
// not heap memory: ASan's redzones do not cover it, and its bounds come
// from the ZMAIL_ASSERT in at().
//
// Rows are exposed through UserRef/ConstUserRef proxies whose members are
// references into the columns, so `isp.user(u).balance -= 1` reads exactly
// as it did with UserAccount.  The boolean-ish columns are std::uint8_t,
// not bool: proxies need addressable storage and raw column snapshots must
// be able to memcpy bytes back in without manufacturing invalid `bool`
// object representations.
//
// Columns are trivially-copyable arrays on purpose: the "ZSNP" v2 snapshot
// writes each one as a single raw section (column_data()/column_bytes())
// and restore bulk-copies them straight out of an mmap'd file
// (load_column()).
//
// Dirty tracking for differential checkpoints: the arena also holds a
// bitmap with one bit per row (12.5 KB at 100k users), set by the one
// place a writable row is made, at() (non-const), and by load_rows().
// Writes that cover a whole column instead mark that column: reset(),
// reset_day() and load_column().  clear_dirty() is called only when the
// population equals the party's base image on disk (after a full image is
// written or read back), so the dirty rows and columns are exactly what a
// differential against that base must carry (gather_dirty_rows()).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "core/config.hpp"
#include "core/user_id.hpp"
#include "util/assert.hpp"
#include "util/money.hpp"

namespace zmail::core {

// Mutable view of one user's row; members alias the population's columns.
// Valid while the Population is alive and not reset.
struct UserRef {
  Money& account;            // real-money balance with the ISP
  EPenny& balance;           // e-penny balance
  std::int64_t& sent;        // paid emails sent today (day arena)
  std::int64_t& limit;       // max paid emails per day (zombie guard)
  std::uint8_t& blocked_today;  // 0/1: hit the limit today (day arena)
  std::int64_t& warnings;    // "check for viruses" warnings sent
  std::uint8_t& quarantined;  // 0/1: suspended after repeated warnings
  std::int64_t& lifetime_sent;
  std::int64_t& lifetime_received_paid;
  EPenny& lifetime_epennies_bought;
  EPenny& lifetime_epennies_sold;
};

struct ConstUserRef {
  constexpr ConstUserRef(const Money& account_, const EPenny& balance_,
                         const std::int64_t& sent_, const std::int64_t& limit_,
                         const std::uint8_t& blocked_today_,
                         const std::int64_t& warnings_,
                         const std::uint8_t& quarantined_,
                         const std::int64_t& lifetime_sent_,
                         const std::int64_t& lifetime_received_paid_,
                         const EPenny& lifetime_epennies_bought_,
                         const EPenny& lifetime_epennies_sold_)
      : account(account_), balance(balance_), sent(sent_), limit(limit_),
        blocked_today(blocked_today_), warnings(warnings_),
        quarantined(quarantined_), lifetime_sent(lifetime_sent_),
        lifetime_received_paid(lifetime_received_paid_),
        lifetime_epennies_bought(lifetime_epennies_bought_),
        lifetime_epennies_sold(lifetime_epennies_sold_) {}
  // A mutable row view narrows to a const one implicitly, so visitors
  // written against ConstUserRef also accept rows from a mutable
  // Population.
  constexpr ConstUserRef(const UserRef& u)
      : ConstUserRef(u.account, u.balance, u.sent, u.limit, u.blocked_today,
                     u.warnings, u.quarantined, u.lifetime_sent,
                     u.lifetime_received_paid, u.lifetime_epennies_bought,
                     u.lifetime_epennies_sold) {}

  const Money& account;
  const EPenny& balance;
  const std::int64_t& sent;
  const std::int64_t& limit;
  const std::uint8_t& blocked_today;
  const std::int64_t& warnings;
  const std::uint8_t& quarantined;
  const std::int64_t& lifetime_sent;
  const std::int64_t& lifetime_received_paid;
  const EPenny& lifetime_epennies_bought;
  const EPenny& lifetime_epennies_sold;
};

class Population {
 public:
  // Column identifiers, in the canonical (snapshot section) order.
  enum class Column : std::uint8_t {
    kAccount = 0,
    kBalance,
    kSent,
    kLimit,
    kBlockedToday,
    kWarnings,
    kQuarantined,
    kLifetimeSent,
    kLifetimeReceivedPaid,
    kLifetimeEpenniesBought,
    kLifetimeEpenniesSold,
  };
  static constexpr std::size_t kColumnCount = 11;

  static constexpr std::size_t column_width(Column c) noexcept {
    return (c == Column::kBlockedToday || c == Column::kQuarantined)
               ? sizeof(std::uint8_t)
               : sizeof(std::int64_t);
  }
  static const char* column_name(Column c) noexcept;
  // Bytes of one row across every column (74).
  static constexpr std::size_t kRowBytes = 9 * sizeof(std::int64_t) + 2;

  Population() = default;
  ~Population();
  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;
  // A move hands over the mapping and leaves the source empty (size 0).
  Population(Population&& o) noexcept;
  Population& operator=(Population&& o) noexcept;

  // Re-initializes to `n` users with the given starting row (everything
  // else zero) and an empty policy side table.  Writes every column, so
  // the mapping is faulted in here rather than on the first sends.  Marks
  // every column dirty.
  void reset(std::size_t n, Money account, EPenny balance, std::int64_t limit);
  // Makes room for `n` users ahead of a restore that load_column()s every
  // column, and empties the policy side table.  Columns already `n` long
  // keep their bytes until the loads overwrite them, so a restore into a
  // fresh population, or into the arena a crashed ISP handed over, copies
  // each column once instead of filling it first.
  void resize_for_load(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  // A writable row; marks it dirty.
  UserRef at(UserId u) {
    ZMAIL_ASSERT(u.slot() < n_);
    const std::size_t i = u.slot();
    dirty_[i >> 6] |= std::uint64_t{1} << (i & 63);
    return row(i);
  }
  ConstUserRef at(UserId u) const {
    ZMAIL_ASSERT(u.slot() < n_);
    return const_cast<Population*>(this)->row(u.slot());
  }

  // End-of-day reset: zeroes the whole day arena (sent + blocked_today,
  // adjacent in the mapping) in one memset instead of walking a million
  // rows.  Marks both columns dirty.
  void reset_day() noexcept;

  // --- Sparse per-user policy override (Section 5) ------------------------
  std::optional<NonCompliantPolicy> policy_override(UserId u) const {
    const auto it = policy_.find(u.slot());
    return it == policy_.end() ? std::nullopt
                               : std::optional<NonCompliantPolicy>(it->second);
  }
  // The override when set, `fallback` (the ISP-wide default) otherwise —
  // the hot-path form: one map lookup, no optional.
  NonCompliantPolicy policy_or(UserId u, NonCompliantPolicy fallback) const {
    if (policy_.empty()) return fallback;
    const auto it = policy_.find(u.slot());
    return it == policy_.end() ? fallback : it->second;
  }
  void set_policy_override(UserId u, std::optional<NonCompliantPolicy> p) {
    ZMAIL_ASSERT(u.slot() < n_);
    if (p)
      policy_[u.slot()] = *p;
    else
      policy_.erase(u.slot());
  }
  // Slot-ordered (std::map) — serialization iterates this directly.
  const std::map<std::uint32_t, NonCompliantPolicy>& policy_overrides()
      const noexcept {
    return policy_;
  }

  // --- Visitation ----------------------------------------------------------
  // Visits every allocated user in slot order as (UserId, ConstUserRef).
  // "Active" = allocated: populations are dense today; the name reserves
  // room for tombstoned slots without another audit-layer migration.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (std::size_t i = 0; i < n_; ++i) fn(UserId(i), at(UserId(i)));
  }

  // --- Typed column spans (read-only) --------------------------------------
  std::span<const Money> accounts() const noexcept {
    return column_span<Money>(Column::kAccount);
  }
  std::span<const EPenny> balances() const noexcept {
    return column_span<EPenny>(Column::kBalance);
  }
  std::span<const std::int64_t> sent_today() const noexcept {
    return column_span<std::int64_t>(Column::kSent);
  }
  std::span<const std::int64_t> limits() const noexcept {
    return column_span<std::int64_t>(Column::kLimit);
  }
  std::span<const std::uint8_t> blocked_today() const noexcept {
    return column_span<std::uint8_t>(Column::kBlockedToday);
  }
  std::span<const std::int64_t> warnings() const noexcept {
    return column_span<std::int64_t>(Column::kWarnings);
  }
  std::span<const std::uint8_t> quarantined() const noexcept {
    return column_span<std::uint8_t>(Column::kQuarantined);
  }

  // Generic typed accessor: T must match the column's element type
  // (Money for kAccount, std::uint8_t for the flag columns, std::int64_t
  // for everything else).  Asserts on mismatch.
  template <typename T>
  std::span<const T> column_span(Column c) const;

  // --- Raw column bytes (snapshot layer) ------------------------------------
  // Columns are stored little-endian in "ZSNP" v2 sections; on the (LE)
  // targets this builds for, that is the in-memory representation, so
  // serialize is one big copy out and restore one big copy in.
  const std::uint8_t* column_data(Column c) const noexcept {
    return col_[static_cast<std::size_t>(c)];
  }
  std::size_t column_bytes(Column c) const noexcept {
    return n_ * column_width(c);
  }
  // Bulk restore of one column; `len` must equal column_bytes(c).  Marks
  // the column dirty.
  bool load_column(Column c, const std::uint8_t* data, std::size_t len);

  // --- Dirty rows (differential checkpoints) --------------------------------
  // Forgets every mark: the population now equals the base image on disk.
  void clear_dirty() noexcept;
  std::size_t dirty_row_count() const noexcept;
  bool column_dirty(Column c) const noexcept {
    return (dirty_cols_ >> static_cast<unsigned>(c)) & 1u;
  }
  // Bytes of gather_dirty_rows()' payload.
  std::size_t dirty_rows_bytes() const noexcept;
  // User bytes a differential would carry: every dirty column whole, plus
  // the dirty rows.  Compare with image_bytes(), the user bytes of a full
  // image.
  std::size_t differential_bytes() const noexcept;
  std::size_t image_bytes() const noexcept { return n_ * kRowBytes; }
  // Writes the dirty rows into `out` (dirty_rows_bytes() long), raw
  // little-endian like the column sections:
  //   count:u32  slot:u32[count]  then, per column in canonical order,
  //   value[count] of column_width(c) bytes
  void gather_dirty_rows(std::span<std::uint8_t> out) const;
  // Scatters a gather_dirty_rows() payload back into the columns and marks
  // its rows dirty.  False, with nothing written, when the payload is
  // malformed or names a slot out of range.
  bool load_rows(std::span<const std::uint8_t> payload);

 private:
  UserRef row(std::size_t i) noexcept {
    return UserRef{col<Money>(Column::kAccount)[i],
                   col<EPenny>(Column::kBalance)[i],
                   col<std::int64_t>(Column::kSent)[i],
                   col<std::int64_t>(Column::kLimit)[i],
                   col<std::uint8_t>(Column::kBlockedToday)[i],
                   col<std::int64_t>(Column::kWarnings)[i],
                   col<std::uint8_t>(Column::kQuarantined)[i],
                   col<std::int64_t>(Column::kLifetimeSent)[i],
                   col<std::int64_t>(Column::kLifetimeReceivedPaid)[i],
                   col<EPenny>(Column::kLifetimeEpenniesBought)[i],
                   col<EPenny>(Column::kLifetimeEpenniesSold)[i]};
  }
  template <typename T>
  T* col(Column c) const noexcept {
    return reinterpret_cast<T*>(col_[static_cast<std::size_t>(c)]);
  }
  void release() noexcept;

  std::size_t n_ = 0;
  // The arena: one anonymous mapping of `mapped_` bytes holding every
  // column (col_[c] points into it, indexed by Column) and, after the
  // columns, the dirty-row bitmap (one bit per slot, dirty_ points at it).
  std::uint8_t* base_ = nullptr;
  std::size_t mapped_ = 0;
  std::array<std::uint8_t*, kColumnCount> col_{};
  std::uint64_t* dirty_ = nullptr;
  std::uint16_t dirty_cols_ = 0;  // bit c: column c is dirty as a whole
  std::map<std::uint32_t, NonCompliantPolicy> policy_;
};

// Scratch for a differential's rows.  It is page-backed: mapped once,
// remapped only to grow, and its pages are handed back after each use.  So
// the one buffer a system shares across hosts takes no heap allocation per
// checkpoint and holds no resident memory between checkpoints.
class RowBuffer {
 public:
  RowBuffer() = default;
  ~RowBuffer();
  RowBuffer(const RowBuffer&) = delete;
  RowBuffer& operator=(const RowBuffer&) = delete;

  // The first `n` bytes, mapping more when needed; contents unspecified.
  std::span<std::uint8_t> take(std::size_t n);
  // Hands the pages back; the mapping stays for the next take().
  void release() noexcept;

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t mapped_ = 0;
};

template <typename T>
std::span<const T> Population::column_span(Column c) const {
  static_assert(std::is_same_v<T, Money> || std::is_same_v<T, EPenny> ||
                    std::is_same_v<T, std::uint8_t>,
                "columns hold Money, std::int64_t, or std::uint8_t");
  ZMAIL_ASSERT(column_width(c) == sizeof(T));
  ZMAIL_ASSERT((std::is_same_v<T, Money>) == (c == Column::kAccount));
  return {col<const T>(c), n_};
}

}  // namespace zmail::core
