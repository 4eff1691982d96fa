#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256_impl.hpp"

#if ZMAIL_CRYPTO_SHA_NI
#include <immintrin.h>
#endif

namespace zmail::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t h[8], const std::uint8_t* p,
                              std::size_t n_blocks) noexcept {
  for (; n_blocks > 0; --n_blocks, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(p[4 * i]) << 24) |
             (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = hh + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
}

#if ZMAIL_CRYPTO_SHA_NI
// The state lives in two registers as ABEF and CDGH (the layout
// sha256rnds2 wants).  Each of the 16 groups runs four rounds and extends
// the message schedule four words ahead with sha256msg1/msg2.
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_sha_ni(
    std::uint32_t h[8], const std::uint8_t* p, std::size_t n_blocks) noexcept {
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                 // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);           // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  for (; n_blocks > 0; --n_blocks, p += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i w[4] = {};
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * g)),
            kBswap);
      }
      __m128i msg = _mm_add_epi32(
          w[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (g >= 3 && g <= 14) {
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[g % 4]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (g >= 1 && g <= 12) {
        __m128i& prev = w[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, w[g % 4]);
      }
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);              // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);           // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);        // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4), state1);
}
#endif

bool have_sha_ni() noexcept {
#if ZMAIL_CRYPTO_SHA_NI
  static const bool kHave = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") != 0;
  }();
  return kHave;
#else
  return false;
#endif
}

}  // namespace detail

Sha256::Sha256() noexcept
    : h_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::process_blocks(const std::uint8_t* p,
                            std::size_t n_blocks) noexcept {
#if ZMAIL_CRYPTO_SHA_NI
  if (detail::have_sha_ni()) {
    detail::sha256_compress_sha_ni(h_.data(), p, n_blocks);
    return;
  }
#endif
  detail::sha256_compress_portable(h_.data(), p, n_blocks);
}

Sha256& Sha256::update(const std::uint8_t* data, std::size_t len) noexcept {
  if (len == 0) return *this;
  total_len_ += len;
  if (buf_len_ != 0) {
    const std::size_t take = std::min(len, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    len -= take;
    if (buf_len_ < buf_.size()) return *this;
    process_blocks(buf_.data(), 1);
    buf_len_ = 0;
  }
  // Whole blocks compress straight from the caller's bytes.
  const std::size_t whole = len / buf_.size();
  if (whole != 0) {
    process_blocks(data, whole);
    data += whole * buf_.size();
    len -= whole * buf_.size();
  }
  if (len != 0) std::memcpy(buf_.data(), data, len);
  buf_len_ = len;
  return *this;
}

Digest Sha256::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    process_blocks(buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i)
    buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  process_blocks(buf_.data(), 1);

  // One big-endian word store per state word (a byte loop here is
  // auto-vectorized into a long shuffle sequence that costs more than the
  // SHA-NI compress of a short message).
  Digest out;
  for (int i = 0; i < 8; ++i) {
    std::uint32_t word = h_[i];
    if constexpr (std::endian::native == std::endian::little)
      word = __builtin_bswap32(word);
    std::memcpy(out.data() + 4 * i, &word, 4);
  }
  return out;
}

Digest sha256(const Bytes& data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

int leading_zero_bits(const Digest& d) noexcept {
  int bits = 0;
  for (std::uint8_t byte : d) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    for (int b = 7; b >= 0; --b) {
      if (byte & (1u << b)) return bits;
      ++bits;
    }
  }
  return bits;
}

}  // namespace zmail::crypto
