// Strong per-ISP user identifier.
//
// Users are dense slots inside one ISP's Population, so a u32 index is the
// whole identity — the type exists to keep user slots from mixing silently
// with ISP indices, byte counts, and loop variables now that the facade is
// typed (mirrors IspId in core/config.hpp).  Construction from an index is
// implicit, like IspId, so `isp.user(3)` keeps reading naturally; getting
// the raw index back out is explicit (`slot()`).
//
// `kInvalidUser` is the "no user" sentinel (slot 0xFFFFFFFF): it marks
// unpaid sends in Outbound records and link frames, replacing the old
// size_t(-1) kNoUser.  On the WAL/wire, user ids keep their pre-UserId u64
// encoding (invalid <-> u64 max), so logs and snapshots keep their bytes;
// use user_to_wire()/user_from_wire() at the boundary.
#pragma once

#include <cstddef>
#include <cstdint>

namespace zmail::core {

class UserId {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kInvalidSlot = 0xFFFFFFFFu;

  // Implicit from an index, like IspId: populations are dense and loops
  // hand out raw indices.  size_t(-1) (the historical kNoUser) truncates
  // to kInvalidSlot, which is exactly the sentinel.
  constexpr UserId(std::size_t slot = 0) noexcept
      : slot_(static_cast<Slot>(slot)) {}

  constexpr Slot slot() const noexcept { return slot_; }
  constexpr bool valid() const noexcept { return slot_ != kInvalidSlot; }

  friend constexpr bool operator==(UserId a, UserId b) noexcept {
    return a.slot_ == b.slot_;
  }
  friend constexpr bool operator!=(UserId a, UserId b) noexcept {
    return a.slot_ != b.slot_;
  }
  friend constexpr bool operator<(UserId a, UserId b) noexcept {
    return a.slot_ < b.slot_;
  }

 private:
  Slot slot_;
};

// "No user" sentinel (unpaid sends, unattributed transfers).
inline constexpr UserId kInvalidUser{
    static_cast<std::size_t>(UserId::kInvalidSlot)};

// WAL/wire boundary: user ids travel as u64 with u64-max meaning "none",
// the pre-UserId convention, so records logged before this type existed
// replay byte-for-byte.
constexpr std::uint64_t user_to_wire(UserId u) noexcept {
  return u.valid() ? u.slot() : ~std::uint64_t{0};
}
constexpr UserId user_from_wire(std::uint64_t w) noexcept {
  return w >= UserId::kInvalidSlot
             ? kInvalidUser
             : UserId(static_cast<std::size_t>(w));
}

}  // namespace zmail::core
