#include "crypto/xtea.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.hpp"
#include "crypto/xtea_impl.hpp"

namespace zmail::crypto {

namespace {
constexpr std::uint32_t kDelta = 0x9E3779B9;
constexpr int kCycles = 32;

struct RoundKeys {
  std::uint32_t k0[kCycles];  // sum + key[sum & 3], before the v0 half
  std::uint32_t k1[kCycles];  // sum + key[(sum >> 11) & 3], before v1
};

RoundKeys round_keys(const XteaKey& key) noexcept {
  RoundKeys rk{};
  std::uint32_t sum = 0;
  for (int i = 0; i < kCycles; ++i) {
    rk.k0[i] = sum + key[sum & 3];
    sum += kDelta;
    rk.k1[i] = sum + key[(sum >> 11) & 3];
  }
  return rk;
}

// out = in ^ ks over `n` bytes, eight at a time.
inline void xor_stream(const std::uint8_t* in, const std::uint8_t* ks,
                       std::uint8_t* out, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0, pad = 0;
    std::memcpy(&word, in + i, 8);
    std::memcpy(&pad, ks + i, 8);
    word ^= pad;
    std::memcpy(out + i, &word, 8);
  }
  for (; i < n; ++i) out[i] = static_cast<std::uint8_t>(in[i] ^ ks[i]);
}

// Eight counter blocks at once: v0/v1 of blocks 0-3 and 4-7 each sit in a
// four-wide vector (GCC/Clang vector extensions; plain SSE2 on x86-64, no
// ISA flag), and every round adds a precomputed `sum + key[...]`.
using Lane = std::uint32_t __attribute__((vector_size(16)));
constexpr std::size_t kBatch = 8;

// Keystream blocks first_counter .. first_counter + 7, each written as the
// eight big-endian bytes of xtea_encrypt_block(nonce ^ counter).
void keystream_batch(const RoundKeys& rk, std::uint64_t nonce,
                     std::uint64_t first_counter,
                     std::uint8_t out[kBatch * 8]) noexcept {
  Lane a0 = {}, a1 = {}, b0 = {}, b1 = {};
  for (std::size_t j = 0; j < 4; ++j) {
    const std::uint64_t lo = nonce ^ (first_counter + j);
    const std::uint64_t hi = nonce ^ (first_counter + j + 4);
    a0[j] = static_cast<std::uint32_t>(lo >> 32);
    b0[j] = static_cast<std::uint32_t>(lo);
    a1[j] = static_cast<std::uint32_t>(hi >> 32);
    b1[j] = static_cast<std::uint32_t>(hi);
  }
  for (int i = 0; i < kCycles; ++i) {
    a0 += (((b0 << 4) ^ (b0 >> 5)) + b0) ^ rk.k0[i];
    a1 += (((b1 << 4) ^ (b1 >> 5)) + b1) ^ rk.k0[i];
    b0 += (((a0 << 4) ^ (a0 >> 5)) + a0) ^ rk.k1[i];
    b1 += (((a1 << 4) ^ (a1 >> 5)) + a1) ^ rk.k1[i];
  }
  for (std::size_t j = 0; j < 4; ++j) {
    store_be(out + 8 * j, a0[j], 4);
    store_be(out + 8 * j + 4, b0[j], 4);
    store_be(out + 8 * (j + 4), a1[j], 4);
    store_be(out + 8 * (j + 4) + 4, b1[j], 4);
  }
}

#if ZMAIL_CRYPTO_XTEA_WIDE
// The wide kernel: one source, templated on the native vector of the ISA
// it is built for (8 lanes on AVX2, 16 on AVX-512) and on how many vectors
// each of v0/v1 spans, so a batch is 16, 32 or 48 counter blocks.  The
// `target` wrappers below compile it for each ISA.
using Vec8 = std::uint32_t __attribute__((vector_size(32)));
using Vec16 = std::uint32_t __attribute__((vector_size(64)));

template <class Vec>
constexpr std::size_t kLanes = sizeof(Vec) / sizeof(std::uint32_t);

template <class Vec>
[[gnu::always_inline]] inline void byte_swap(Vec& x) noexcept {
  x = (x << 24) | ((x & 0xFF00) << 8) | ((x >> 8) & 0xFF00) | (x >> 24);
}

// Block j's stream is big-endian v0 then v1: with both byte-swapped (x86
// stores lanes little-endian), the first half of the blocks in a vector is
// {a0, b0, a1, b1, ...} and the second half continues from the middle
// lane.
template <class Vec>
[[gnu::always_inline]] inline void interleave(const Vec& a, const Vec& b,
                                              Vec& lo, Vec& hi) noexcept {
  if constexpr (kLanes<Vec> == 16) {
    lo = __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5,
                                 21, 6, 22, 7, 23);
    hi = __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, 27, 12, 28,
                                 13, 29, 14, 30, 15, 31);
  } else {
    static_assert(kLanes<Vec> == 8);
    lo = __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11);
    hi = __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15);
  }
}

// Blocks counter .. counter + kVecs * lanes - 1 XORed over the next `take`
// bytes (at most the batch's).  The caller keeps every block's counter
// below 2^32, so nonce ^ counter leaves the nonce's high word as it is.
template <class Vec, std::size_t kVecs>
[[gnu::always_inline]] inline void wide_batch(
    const RoundKeys& rk, std::uint64_t nonce, std::uint32_t counter,
    const std::uint8_t* in, std::uint8_t* out, std::size_t take) noexcept {
  constexpr std::size_t kL = kLanes<Vec>;
  Vec iota{};
  for (std::size_t j = 0; j < kL; ++j) iota[j] = static_cast<std::uint32_t>(j);
  // v0 of every block starts as the nonce's high word, v1 as its low word
  // XOR the block's counter.
  Vec a[kVecs] = {}, b[kVecs] = {};
  for (std::size_t v = 0; v < kVecs; ++v) {
    a[v] += static_cast<std::uint32_t>(nonce >> 32);
    b[v] = (iota + static_cast<std::uint32_t>(counter + v * kL)) ^
           static_cast<std::uint32_t>(nonce);
  }
  for (int i = 0; i < kCycles; ++i) {
    for (std::size_t v = 0; v < kVecs; ++v)
      a[v] += (((b[v] << 4) ^ (b[v] >> 5)) + b[v]) ^ rk.k0[i];
    for (std::size_t v = 0; v < kVecs; ++v)
      b[v] += (((a[v] << 4) ^ (a[v] >> 5)) + a[v]) ^ rk.k1[i];
  }
  Vec ks[2 * kVecs];
  for (std::size_t v = 0; v < kVecs; ++v) {
    byte_swap(a[v]);
    byte_swap(b[v]);
    interleave(a[v], b[v], ks[2 * v], ks[2 * v + 1]);
  }
  if (take == sizeof ks) {
    for (std::size_t v = 0; v < 2 * kVecs; ++v) {
      Vec d;
      std::memcpy(&d, in + sizeof d * v, sizeof d);
      d ^= ks[v];
      std::memcpy(out + sizeof d * v, &d, sizeof d);
    }
  } else {
    xor_stream(in, reinterpret_cast<const std::uint8_t*>(ks), out, take);
  }
}

// CTR over all `n` bytes from counter 0: 32-block batches while more than
// 48 blocks remain, then one batch of 16, 32 or 48 blocks that covers the
// rest (a 525-byte credit report is 32 + 48 blocks, not 32 + 32 + 8).
template <class Vec>
[[gnu::always_inline]] inline void ctr_wide(const RoundKeys& rk,
                                            std::uint64_t nonce,
                                            const std::uint8_t* in,
                                            std::size_t n,
                                            std::uint8_t* out) noexcept {
  constexpr std::size_t kL = kLanes<Vec>;
  for (std::uint32_t counter = 0;; counter += 32, in += 256, out += 256,
                     n -= 256) {
    const std::size_t blocks = (n + 7) / 8;
    if (blocks <= 16)
      return wide_batch<Vec, 16 / kL>(rk, nonce, counter, in, out, n);
    if (blocks > 32 && blocks <= 48)
      return wide_batch<Vec, 48 / kL>(rk, nonce, counter, in, out, n);
    wide_batch<Vec, 32 / kL>(rk, nonce, counter, in, out,
                             std::min<std::size_t>(n, 256));
    if (n <= 256) return;
  }
}

__attribute__((target("avx512f"))) void ctr_wide_avx512(
    const RoundKeys& rk, std::uint64_t nonce, const std::uint8_t* in,
    std::size_t n, std::uint8_t* out) noexcept {
  ctr_wide<Vec16>(rk, nonce, in, n, out);
}

__attribute__((target("avx2"))) void ctr_wide_avx2(
    const RoundKeys& rk, std::uint64_t nonce, const std::uint8_t* in,
    std::size_t n, std::uint8_t* out) noexcept {
  ctr_wide<Vec8>(rk, nonce, in, n, out);
}
#endif

}  // namespace

std::uint64_t xtea_encrypt_block(std::uint64_t block,
                                 const XteaKey& key) noexcept {
  auto v0 = static_cast<std::uint32_t>(block >> 32);
  auto v1 = static_cast<std::uint32_t>(block);
  std::uint32_t sum = 0;
  for (int i = 0; i < kCycles; ++i) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
  }
  return (static_cast<std::uint64_t>(v0) << 32) | v1;
}

std::uint64_t xtea_decrypt_block(std::uint64_t block,
                                 const XteaKey& key) noexcept {
  auto v0 = static_cast<std::uint32_t>(block >> 32);
  auto v1 = static_cast<std::uint32_t>(block);
  std::uint32_t sum = kDelta * kCycles;
  for (int i = 0; i < kCycles; ++i) {
    v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
    sum -= kDelta;
    v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
  }
  return (static_cast<std::uint64_t>(v0) << 32) | v1;
}

Bytes xtea_ctr(const Bytes& data, const XteaKey& key,
               std::uint64_t nonce) noexcept {
  Bytes out;
  xtea_ctr_into(data, key, nonce, out);
  return out;
}

void xtea_ctr_into(const Bytes& data, const XteaKey& key, std::uint64_t nonce,
                   Bytes& out) noexcept {
  out.resize(data.size());
  detail::xtea_ctr_with(detail::xtea_kernel_for(data.size()), data.data(),
                        data.size(), key, nonce, out.data());
}

XteaKey xtea_key_from_bytes(std::span<const std::uint8_t> material) noexcept {
  Sha256 h;
  h.update(material.data(), material.size());
  const Digest d = h.finish();
  XteaKey key{};
  for (int w = 0; w < 4; ++w) {
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v = (v << 8) | d[4 * w + b];
    key[static_cast<std::size_t>(w)] = v;
  }
  return key;
}

namespace detail {

XteaKernel xtea_best_kernel() noexcept {
#if ZMAIL_CRYPTO_XTEA_WIDE
  static const XteaKernel best = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return XteaKernel::kAvx512;
    if (__builtin_cpu_supports("avx2")) return XteaKernel::kAvx2;
    return XteaKernel::kSse2;
  }();
  return best;
#else
  return XteaKernel::kSse2;
#endif
}

XteaKernel xtea_kernel_for(std::size_t n) noexcept {
  // Inputs that fit one 8-block batch stay on it.  The wide kernel counts
  // blocks in 32 bits: any input below 32 GiB.
  if (n <= kBatch * 8 || (n >> 35) != 0) return XteaKernel::kSse2;
  return xtea_best_kernel();
}

const char* xtea_kernel_name(XteaKernel k) noexcept {
  switch (k) {
    case XteaKernel::kAvx512: return "avx512";
    case XteaKernel::kAvx2: return "avx2";
    case XteaKernel::kSse2: break;
  }
  return "sse2";
}

void xtea_ctr_with(XteaKernel kernel, const std::uint8_t* in, std::size_t n,
                   const XteaKey& key, std::uint64_t nonce,
                   std::uint8_t* out) noexcept {
  if (n == 0) return;
  const RoundKeys rk = round_keys(key);
#if ZMAIL_CRYPTO_XTEA_WIDE
  if (kernel == XteaKernel::kAvx512)
    return ctr_wide_avx512(rk, nonce, in, n, out);
  if (kernel == XteaKernel::kAvx2) return ctr_wide_avx2(rk, nonce, in, n, out);
#else
  (void)kernel;
#endif
  std::uint8_t ks[kBatch * 8] = {};
  std::uint64_t counter = 0;
  for (std::size_t pos = 0; pos < n; pos += sizeof ks, counter += kBatch) {
    keystream_batch(rk, nonce, counter, ks);
    xor_stream(in + pos, ks, out + pos, std::min(sizeof ks, n - pos));
  }
}

}  // namespace detail

}  // namespace zmail::crypto
