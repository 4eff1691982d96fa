#include "store/crc32c.hpp"

#include <array>
#include <cstring>

#include "store/crc32c_impl.hpp"

#if ZMAIL_STORE_SSE42
#include <nmmintrin.h>
#endif

namespace zmail::store {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  // table[k][b]: CRC contribution of byte b at lag k (slice-by-8).
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  constexpr Tables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int k = 0; k < 8; ++k)
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      t[0][b] = crc;
    }
    for (std::uint32_t b = 0; b < 256; ++b)
      for (std::size_t k = 1; k < 8; ++k)
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
  }
};

constexpr Tables kTables{};

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(const void* data, std::size_t len,
                              std::uint32_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  const auto& t = kTables.t;
  while (len >= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  return ~crc;
}

#if ZMAIL_STORE_SSE42
// The crc32 instruction folds the reflected Castagnoli CRC over 8 bytes at
// a time, little-endian, which is the byte order of the portable walk.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t len, std::uint32_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

bool have_sse42() noexcept {
#if ZMAIL_STORE_SSE42
  static const bool kHave = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return kHave;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed) noexcept {
#if ZMAIL_STORE_SSE42
  if (detail::have_sse42()) return detail::crc32c_sse42(data, len, seed);
#endif
  return detail::crc32c_portable(data, len, seed);
}

}  // namespace zmail::store
