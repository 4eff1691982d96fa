// XTEA block cipher (Needham & Wheeler) plus a CTR-mode stream.
//
// XTEA is small enough to implement exactly and fast enough for simulated
// mail volumes; CTR mode turns it into the symmetric layer of the hybrid
// NCR/DCR envelope.  The CTR stream precomputes the 64 round constants
// once per call and runs eight counter blocks at a time in vector lanes;
// xtea_encrypt_block is the one-block reference it must match.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/bytes.hpp"

namespace zmail::crypto {

using XteaKey = std::array<std::uint32_t, 4>;

// One 64-bit block, 64 rounds (the standard 32 cycles).
std::uint64_t xtea_encrypt_block(std::uint64_t block,
                                 const XteaKey& key) noexcept;
std::uint64_t xtea_decrypt_block(std::uint64_t block,
                                 const XteaKey& key) noexcept;

// CTR mode: block i of the keystream is xtea_encrypt_block(nonce ^ i) in
// big-endian byte order; encryption and decryption are the same operation.
Bytes xtea_ctr(const Bytes& data, const XteaKey& key,
               std::uint64_t nonce) noexcept;

// Scratch-buffer variant: overwrites `out` (reusing its capacity), so
// steady-state envelope traffic stops reallocating.  `out` must not alias
// `data`.
void xtea_ctr_into(const Bytes& data, const XteaKey& key, std::uint64_t nonce,
                   Bytes& out) noexcept;

// Derive an XTEA key from arbitrary key material (first 16 bytes of SHA-256).
XteaKey xtea_key_from_bytes(std::span<const std::uint8_t> material) noexcept;

}  // namespace zmail::crypto
