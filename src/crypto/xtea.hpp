// XTEA block cipher (Needham & Wheeler) plus a CTR-mode stream.
//
// XTEA is small enough to implement exactly and fast enough for simulated
// mail volumes; CTR mode turns it into the symmetric layer of the hybrid
// NCR/DCR envelope.  The CTR stream precomputes the 64 round constants
// once per call.  Inputs longer than 64 bytes run through one wide kernel,
// built for AVX-512 and for AVX2 and chosen once by __builtin_cpu_supports
// (like the SHA-NI compress), in batches of 16 to 48 counter blocks.
// Inputs of at most 64 bytes, and every input on a CPU without AVX2, run
// eight blocks at a time in two four-wide SSE2 lanes.  xtea_encrypt_block
// is the one-block reference every kernel must match
// (crypto/xtea_impl.hpp exposes them to the tests).
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
