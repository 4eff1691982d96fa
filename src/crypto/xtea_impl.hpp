// XTEA-CTR keystream kernels behind xtea_ctr_into (private to src/crypto,
// its tests and the crypto micro bench).
//
// Every kernel computes the same stream.  The 8-block kernel (two four-wide
// vector lanes: plain SSE2 on x86-64) runs inputs of at most 64 bytes; on
// x86-64 one wide kernel source is also built for AVX2 and AVX-512 with the
// `target` attribute and runs the longer ones.  xtea_ctr_into takes the
// widest kernel the CPU supports, detected once.  All of them are exposed
// here so the tests can run each one against xtea_encrypt_block.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/xtea.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ZMAIL_CRYPTO_XTEA_WIDE 1
#else
#define ZMAIL_CRYPTO_XTEA_WIDE 0
#endif

namespace zmail::crypto::detail {

// Ordered narrowest first: a CPU that runs one kernel runs every kernel
// before it.
enum class XteaKernel { kSse2, kAvx2, kAvx512 };

// The widest kernel this CPU runs (detected once; kSse2 off x86-64).
XteaKernel xtea_best_kernel() noexcept;

inline bool xtea_kernel_supported(XteaKernel k) noexcept {
  return k <= xtea_best_kernel();
}

// The kernel xtea_ctr_into runs on an input of `n` bytes: the 8-block one
// up to 64 bytes (and from 32 GiB, past the wide kernel's 32-bit block
// counters), the widest one the CPU runs otherwise.
XteaKernel xtea_kernel_for(std::size_t n) noexcept;

// "sse2", "avx2" or "avx512".
const char* xtea_kernel_name(XteaKernel k) noexcept;

// CTR over `n` bytes at `in` into `out` (which must not alias `in`) on
// `kernel` alone; call only with a supported kernel (the wide ones take
// inputs below 32 GiB).
void xtea_ctr_with(XteaKernel kernel, const std::uint8_t* in, std::size_t n,
                   const XteaKey& key, std::uint64_t nonce,
                   std::uint8_t* out) noexcept;

}  // namespace zmail::crypto::detail
