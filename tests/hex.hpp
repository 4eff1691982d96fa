// Lowercase hex for the known-answer tests: byte strings and digests to
// hex, and hex back to bytes.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "crypto/bytes.hpp"
#include "crypto/sha256.hpp"
#include "util/assert.hpp"

namespace zmail::crypto {

inline std::string to_hex(std::span<const std::uint8_t> b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t v : b) {
    out += digits[v >> 4];
    out += digits[v & 0xF];
  }
  return out;
}

inline std::string digest_hex(const Digest& d) { return to_hex(d); }

inline Bytes from_hex(std::string_view hex) {
  ZMAIL_ASSERT(hex.size() % 2 == 0);
  auto val = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    ZMAIL_ASSERT_MSG(c >= 'A' && c <= 'F', "invalid hex digit");
    return c - 'A' + 10;
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>((val(hex[i]) << 4) | val(hex[i + 1])));
  return out;
}

}  // namespace zmail::crypto
