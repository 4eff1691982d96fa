// HMAC-SHA256 (RFC 2104) over the from-scratch SHA-256.
//
// Used as the integrity tag inside Envelope and as the PRF behind NNC.
#pragma once

#include <array>
#include <span>

#include "crypto/bytes.hpp"
#include "crypto/sha256.hpp"

namespace zmail::crypto {

// Streaming HMAC: the key is absorbed at construction, the message is fed
// in any number of update() calls, finish() yields the tag.  No heap
// allocation; the object must not be updated after finish().
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key) noexcept;

  HmacSha256& update(const std::uint8_t* data, std::size_t len) noexcept {
    inner_.update(data, len);
    return *this;
  }
  HmacSha256& update(std::string_view s) noexcept {
    inner_.update(s);
    return *this;
  }

  Digest finish() noexcept;

 private:
  Sha256 inner_;
  std::array<std::uint8_t, 64> opad_{};
};

Digest hmac_sha256(const Bytes& key, const Bytes& message) noexcept;

// Constant-time digest comparison (good hygiene even in a simulation; the
// replay-resistance bench deliberately probes tag checks).
bool digest_equal(const Digest& a, const Digest& b) noexcept;

}  // namespace zmail::crypto
