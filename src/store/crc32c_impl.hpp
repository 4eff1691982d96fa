// CRC32C implementations behind store::crc32c (private to src/store, its
// tests and the store micro bench).
//
// crc32c runs the SSE4.2 path when the CPU has the crc32 instruction and
// the portable path otherwise.  Both are exposed here so the tests can
// compare them byte for byte; the portable one is the reference.
//
// The SSE4.2 path runs three interleaved crc32 chains (lanes) over each
// block of 3 x kLaneBlock bytes and joins them by multiplying the earlier
// lanes' registers by x^(8 * kLaneBlock) modulo the polynomial: four
// byte-indexed tables computed at compile time, like the portable
// slice-by-8 tables.  Inputs shorter than kThreeLaneMin, and the tail
// after the last block, run on one chain.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ZMAIL_STORE_SSE42 1
#else
#define ZMAIL_STORE_SSE42 0
#endif

namespace zmail::store::detail {

// Software slice-by-8; the same contract as store::crc32c.
std::uint32_t crc32c_portable(const void* data, std::size_t len,
                              std::uint32_t seed) noexcept;

#if ZMAIL_STORE_SSE42
// Lane width of the three-lane SSE4.2 loop, and the shortest input that
// takes it (one block of three lanes).
inline constexpr std::size_t kLaneBlock = 4096;
inline constexpr std::size_t kThreeLaneMin = 3 * kLaneBlock;

// Same contract, on the SSE4.2 crc32 instruction; call only when
// have_sse42().
std::uint32_t crc32c_sse42(const void* data, std::size_t len,
                           std::uint32_t seed) noexcept;
#endif

// True when this CPU runs crc32c_sse42 (detected once).
bool have_sse42() noexcept;

}  // namespace zmail::store::detail
