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

#if ZMAIL_STORE_SSE42
// Product of a and b modulo the polynomial, both in the reflected bit
// order (bit 31 holds x^0).  A CRC register is linear in its input, so
// running it on n zero bytes multiplies it by x^(8n); three-lane CRCs are
// joined with that shift.
constexpr std::uint32_t mul_mod_poly(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(8n) modulo the polynomial, by square-and-multiply.
constexpr std::uint32_t x_pow_8n(std::uint64_t n) {
  std::uint32_t result = 1u << 31;  // x^0
  std::uint32_t square = 1u << 23;  // x^8
  for (; n != 0; n >>= 1) {
    if (n & 1u) result = mul_mod_poly(result, square);
    square = mul_mod_poly(square, square);
  }
  return result;
}

// Multiplication by x^(8 * kLaneBlock) as four byte-indexed tables: the
// shift of a register is the XOR of the shifts of its four bytes.
struct LaneShift {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  constexpr LaneShift() {
    const std::uint32_t k = x_pow_8n(detail::kLaneBlock);
    for (std::uint32_t byte = 0; byte < 4; ++byte)
      for (std::uint32_t b = 0; b < 256; ++b)
        t[byte][b] = mul_mod_poly(k, b << (8 * byte));
  }

  constexpr std::uint32_t operator()(std::uint32_t crc) const {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
           t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
  }
};

constexpr LaneShift kLaneShift{};
#endif

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
// a time, little-endian, which is the byte order of the portable walk.  It
// takes three cycles but issues one per cycle, so a single chain runs at a
// third of the instruction's rate.  Inputs of kThreeLaneMin bytes or more
// are cut into blocks of three kLaneBlock lanes: the first lane continues
// the running register, the other two start from zero, all three advance
// in one loop, and the block's register is
//   shift(shift(lane0) ^ lane1) ^ lane2
// where shift runs a register over kLaneBlock zero bytes.  What is left
// after the last block runs on one chain.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t len, std::uint32_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t crc = ~seed;
  for (; len >= kThreeLaneMin; len -= kThreeLaneMin) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (const std::uint8_t* end = p + kLaneBlock; p < end; p += 8) {
      std::uint64_t w0 = 0, w1 = 0, w2 = 0;
      std::memcpy(&w0, p, 8);
      std::memcpy(&w1, p + kLaneBlock, 8);
      std::memcpy(&w2, p + 2 * kLaneBlock, 8);
      crc = _mm_crc32_u64(crc, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    crc = kLaneShift(static_cast<std::uint32_t>(crc)) ^ crc1;
    crc = kLaneShift(static_cast<std::uint32_t>(crc)) ^ crc2;
    p += 2 * kLaneBlock;
  }
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
