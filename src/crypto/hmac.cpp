#include "crypto/hmac.hpp"

#include <cstring>

namespace zmail::crypto {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) noexcept {
  constexpr std::size_t kBlock = 64;
  std::uint8_t k[kBlock] = {};
  if (key.size() > kBlock) {
    Sha256 h;
    h.update(key.data(), key.size());
    const Digest d = h.finish();
    std::memcpy(k, d.data(), d.size());
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }
  std::uint8_t ipad[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad_[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(ipad, kBlock);
}

Digest HmacSha256::finish() noexcept {
  const Digest inner_digest = inner_.finish();
  Sha256 outer;
  outer.update(opad_.data(), opad_.size());
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest hmac_sha256(const Bytes& key, const Bytes& message) noexcept {
  return HmacSha256(key).update(message.data(), message.size()).finish();
}

Digest hmac_sha256(const Bytes& key, std::string_view message) noexcept {
  return HmacSha256(key).update(message).finish();
}

bool digest_equal(const Digest& a, const Digest& b) noexcept {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  return acc == 0;
}

}  // namespace zmail::crypto
