#include "crypto/xtea.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.hpp"

namespace zmail::crypto {

namespace {
constexpr std::uint32_t kDelta = 0x9E3779B9;
constexpr int kCycles = 32;

// Eight counter blocks at once: v0/v1 of blocks 0-3 and 4-7 each sit in a
// four-wide vector (GCC/Clang vector extensions; plain SSE2 on x86-64, no
// ISA flag), and every round adds a precomputed `sum + key[...]`.
using Lane = std::uint32_t __attribute__((vector_size(16)));
constexpr std::size_t kBatch = 8;

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
  const std::size_t n = data.size();
  out.resize(n);
  if (n == 0) return;
  const RoundKeys rk = round_keys(key);
  const std::uint8_t* in = data.data();
  std::uint8_t* dst = out.data();
  std::uint8_t ks[kBatch * 8] = {};
  std::uint64_t counter = 0;
  for (std::size_t pos = 0; pos < n; pos += sizeof ks, counter += kBatch) {
    keystream_batch(rk, nonce, counter, ks);
    const std::size_t take = std::min(sizeof ks, n - pos);
    std::size_t i = 0;
    for (; i + 8 <= take; i += 8) {
      std::uint64_t word = 0, pad = 0;
      std::memcpy(&word, in + pos + i, 8);
      std::memcpy(&pad, ks + i, 8);
      word ^= pad;
      std::memcpy(dst + pos + i, &word, 8);
    }
    for (; i < take; ++i)
      dst[pos + i] = static_cast<std::uint8_t>(in[pos + i] ^ ks[i]);
  }
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

}  // namespace zmail::crypto
