#include "crypto/xtea.hpp"

#include <gtest/gtest.h>

#include "crypto/xtea_impl.hpp"
#include "util/rng.hpp"

namespace zmail::crypto {
namespace {

TEST(Xtea, BlockRoundTrip) {
  const XteaKey key{0x01234567, 0x89ABCDEF, 0xFEDCBA98, 0x76543210};
  for (std::uint64_t block :
       {0ULL, 1ULL, 0xDEADBEEFCAFEBABEULL, ~0ULL}) {
    EXPECT_EQ(xtea_decrypt_block(xtea_encrypt_block(block, key), key), block);
  }
}

TEST(Xtea, EncryptionActuallyChangesBlock) {
  const XteaKey key{1, 2, 3, 4};
  EXPECT_NE(xtea_encrypt_block(0, key), 0u);
  EXPECT_NE(xtea_encrypt_block(42, key), 42u);
}

TEST(Xtea, DifferentKeysDifferentCiphertext) {
  const XteaKey k1{1, 2, 3, 4}, k2{1, 2, 3, 5};
  EXPECT_NE(xtea_encrypt_block(777, k1), xtea_encrypt_block(777, k2));
}

TEST(XteaCtr, RoundTripVariousLengths) {
  const XteaKey key = xtea_key_from_bytes(from_string("secret"));
  zmail::Rng rng(3);
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 64u, 1000u}) {
    Bytes plain(len);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_u64());
    const Bytes ct = xtea_ctr(plain, key, 12345);
    EXPECT_EQ(ct.size(), plain.size());
    EXPECT_EQ(xtea_ctr(ct, key, 12345), plain) << "len=" << len;
  }
}

// CTR is its own inverse, so round trips accept any consistent keystream.
// Pin the stream itself: block i is xtea_encrypt_block(nonce ^ i), laid
// out big-endian and XORed over the data, including the partial tail.
// Lengths run to 600 B, past the 525-byte credit report of a 64-ISP world,
// so every batch boundary and partial tail up to two wide batches is hit.
// xtea_ctr picks a kernel by length (xtea_kernel_for); each kernel the CPU
// has, the SSE2 one included, must produce the same stream on its own at
// every length.
TEST(XteaCtr, KeystreamIsBigEndianCounterBlocks) {
  constexpr std::size_t kMaxLen = 600;
  const XteaKey key{0x01234567, 0x89ABCDEF, 0xFEDCBA98, 0x76543210};
  zmail::Rng rng(11);
  Bytes plain(kMaxLen);
  for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_u64());
  // Low word all ones: adding a block's counter instead of XORing it in
  // would carry into the high word.
  for (std::uint64_t nonce : {0ULL, 12345ULL, ~0ULL, 0xFFFFFFFFULL}) {
    Bytes keystream(kMaxLen);
    for (std::size_t i = 0; i < kMaxLen; ++i) {
      const std::uint64_t ks = xtea_encrypt_block(nonce ^ (i / 8), key);
      keystream[i] = static_cast<std::uint8_t>(ks >> (56 - 8 * (i % 8)));
    }
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const Bytes in(plain.begin(),
                     plain.begin() + static_cast<std::ptrdiff_t>(len));
      Bytes expected(len);
      for (std::size_t i = 0; i < len; ++i)
        expected[i] = static_cast<std::uint8_t>(in[i] ^ keystream[i]);
      EXPECT_EQ(xtea_ctr(in, key, nonce), expected)
          << "nonce=" << nonce << " len=" << len;
      for (auto kernel : {detail::XteaKernel::kSse2, detail::XteaKernel::kAvx2,
                          detail::XteaKernel::kAvx512}) {
        if (!detail::xtea_kernel_supported(kernel)) continue;
        Bytes out(len);
        detail::xtea_ctr_with(kernel, in.data(), len, key, nonce, out.data());
        EXPECT_EQ(out, expected)
            << detail::xtea_kernel_name(kernel) << " nonce=" << nonce
            << " len=" << len;
      }
    }
  }
}

TEST(XteaCtr, DifferentNoncesDifferentStreams) {
  const XteaKey key = xtea_key_from_bytes(from_string("k"));
  const Bytes plain(64, 0x00);
  EXPECT_NE(xtea_ctr(plain, key, 1), xtea_ctr(plain, key, 2));
}

TEST(XteaCtr, NonTrivialCiphertext) {
  const XteaKey key = xtea_key_from_bytes(from_string("k"));
  const Bytes plain(32, 0xAA);
  const Bytes ct = xtea_ctr(plain, key, 9);
  EXPECT_NE(ct, plain);
  // Keystream bytes should not all be equal.
  bool varied = false;
  for (std::size_t i = 1; i < ct.size(); ++i)
    if (ct[i] != ct[0]) varied = true;
  EXPECT_TRUE(varied);
}

TEST(XteaKeyDerivation, DeterministicAndSpread) {
  const XteaKey a = xtea_key_from_bytes(from_string("material"));
  const XteaKey b = xtea_key_from_bytes(from_string("material"));
  const XteaKey c = xtea_key_from_bytes(from_string("material2"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace zmail::crypto
