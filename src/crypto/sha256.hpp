// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for message digests inside the NCR/DCR hybrid envelope, for the PRF
// behind the paper's NNC nonce function, and for the hashcash proof-of-work
// baseline (Section 2.3's computational-cost approaches).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/bytes.hpp"

namespace zmail::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256() noexcept;

  Sha256& update(const std::uint8_t* data, std::size_t len) noexcept;
  Sha256& update(const Bytes& b) noexcept {
    return update(b.data(), b.size());
  }
  Sha256& update(std::string_view s) noexcept {
    return update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  // Finalize; the object must not be updated afterwards.
  Digest finish() noexcept;

 private:
  // Compresses whole 64-byte blocks through the SHA-NI path when the CPU
  // has it, the portable one otherwise (see sha256_impl.hpp).
  void process_blocks(const std::uint8_t* blocks,
                      std::size_t n_blocks) noexcept;

  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// One-shot helpers.
Digest sha256(const Bytes& data) noexcept;

// Number of leading zero bits in a digest (hashcash difficulty check).
int leading_zero_bits(const Digest& d) noexcept;

}  // namespace zmail::crypto
