// SHA-256 compression functions behind Sha256 (private to src/crypto, its
// tests and the crypto micro bench).
//
// Sha256 compresses through the SHA-NI path when the CPU has the SHA
// extensions and through the portable path otherwise.  Both are exposed
// here so the tests can compare them block for block; the portable one is
// the reference.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ZMAIL_CRYPTO_SHA_NI 1
#else
#define ZMAIL_CRYPTO_SHA_NI 0
#endif

namespace zmail::crypto::detail {

// Folds `n_blocks` consecutive 64-byte blocks into the state `h`.
void sha256_compress_portable(std::uint32_t h[8], const std::uint8_t* blocks,
                              std::size_t n_blocks) noexcept;

#if ZMAIL_CRYPTO_SHA_NI
// Same contract, on the x86 SHA extensions; call only when have_sha_ni().
void sha256_compress_sha_ni(std::uint32_t h[8], const std::uint8_t* blocks,
                            std::size_t n_blocks) noexcept;
#endif

// True when this CPU runs sha256_compress_sha_ni (detected once).
bool have_sha_ni() noexcept;

}  // namespace zmail::crypto::detail
