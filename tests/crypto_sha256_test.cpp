#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256_impl.hpp"
#include "util/rng.hpp"

namespace zmail::crypto {
namespace {

TEST(Sha256, EmptyStringVector) {
  EXPECT_EQ(digest_hex(sha256(std::string_view(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(digest_hex(sha256(std::string_view("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(
      digest_hex(sha256(std::string_view(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalEqualsOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), sha256(std::string_view(msg)));
  }
}

TEST(Sha256, ExactBlockBoundaryLengths) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string a(len, 'x');
    Sha256 h;
    for (char c : a) {
      const auto byte = static_cast<std::uint8_t>(c);
      h.update(&byte, 1);
    }
    EXPECT_EQ(h.finish(), sha256(std::string_view(a))) << "len=" << len;
  }
}

// Known answers (from Python's hashlib) at the lengths that straddle the
// padding edges: 55 is the longest one-block message, 56..63 spill the
// length field into a second block, 64/128 are whole blocks.  Each message
// is fed one-shot and in uneven chunks so the buffered and whole-block
// update paths both run.
TEST(Sha256, KnownAnswersAtPaddingEdges) {
  const std::pair<std::size_t, const char*> kCases[] = {
      {55, "2900465fcb533e05a158fd2b3be0e5e3b03740d83060aa3580e0d98a96bf2384"},
      {63, "5f6401b96532c36de4e65beec0409b69b1d181864c8009b7a04f43e5d56350d1"},
      {64, "94eb5de4943613fd048dc93393ab06877405faa39c11f53e9386083339833e7e"},
      {65, "fc518669b6eb4b4dd91827ecacef86689c725bd5bab888fd3b26dbb196eec954"},
      {119, "b0dc41b1a384e2f1203f0351b38fbeaafceef577ce1191d5bfc25da39f721eae"},
      {120, "5df24dd802ac26132ce608dcb5f09841eef039ee0f152acf98d26d17fe4e88e6"},
      {128, "0aedd4856f8eba0963627336ad5144a9a7dbe12498e6066f0165fc97d8ddee4c"},
  };
  for (const auto& [len, hex] : kCases) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i)
      msg[i] = static_cast<std::uint8_t>(i * 37 + 11);
    EXPECT_EQ(digest_hex(sha256(msg)), hex) << "len=" << len;
    for (std::size_t chunk : {1u, 7u, 63u, 65u}) {
      Sha256 h;
      for (std::size_t at = 0; at < len; at += chunk)
        h.update(msg.data() + at, std::min(chunk, len - at));
      EXPECT_EQ(digest_hex(h.finish()), hex)
          << "len=" << len << " chunk=" << chunk;
    }
  }
}

// The padded one-block message "abc" from the IV, through one compress
// function; returns the big-endian digest.
template <typename Compress>
std::string abc_digest(Compress compress) {
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::uint8_t block[64] = {'a', 'b', 'c', 0x80};
  block[63] = 24;  // message length in bits
  compress(h, block, 1);
  Digest d;
  for (int i = 0; i < 8; ++i)
    for (int b = 0; b < 4; ++b)
      d[4 * i + b] = static_cast<std::uint8_t>(h[i] >> (24 - 8 * b));
  return digest_hex(d);
}

constexpr const char* kAbcHex =
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";

// Sha256 takes the SHA-NI path where the CPU has it, so the portable
// compress is checked on its own here.
TEST(Sha256Compress, PortableMatchesKnownAnswer) {
  EXPECT_EQ(abc_digest(detail::sha256_compress_portable), kAbcHex);
}

TEST(Sha256Compress, ShaNiMatchesPortableOnRandomBlocks) {
#if ZMAIL_CRYPTO_SHA_NI
  if (!detail::have_sha_ni())
    GTEST_SKIP() << "this CPU lacks the SHA extensions; only the portable "
                    "compress runs here";
  EXPECT_EQ(abc_digest(detail::sha256_compress_sha_ni), kAbcHex);
  zmail::Rng rng(5);
  for (std::size_t n_blocks : {1u, 1u, 2u, 3u, 5u, 16u}) {
    std::vector<std::uint8_t> data(64 * n_blocks);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    std::uint32_t portable[8], sha_ni[8];
    for (int i = 0; i < 8; ++i)
      portable[i] = sha_ni[i] = static_cast<std::uint32_t>(rng.next_u64());
    detail::sha256_compress_portable(portable, data.data(), n_blocks);
    detail::sha256_compress_sha_ni(sha_ni, data.data(), n_blocks);
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(sha_ni[i], portable[i]) << "blocks=" << n_blocks << " i=" << i;
  }
#else
  GTEST_SKIP() << "the SHA-NI compress is built only for x86-64";
#endif
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256(std::string_view("a")), sha256(std::string_view("b")));
  EXPECT_NE(sha256(std::string_view("")), sha256(std::string_view("\0", 1)));
}

TEST(LeadingZeroBits, CountsCorrectly) {
  Digest d{};
  d.fill(0);
  EXPECT_EQ(leading_zero_bits(d), 256);
  d[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(d), 0);
  d[0] = 0x01;
  EXPECT_EQ(leading_zero_bits(d), 7);
  d[0] = 0x00;
  d[1] = 0x10;
  EXPECT_EQ(leading_zero_bits(d), 11);
}

TEST(DigestHex, RoundTripsThroughBytes) {
  const Digest d = sha256(std::string_view("roundtrip"));
  const std::string hex = digest_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  const Bytes back = from_hex(hex);
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(back[i], d[i]);
}

}  // namespace
}  // namespace zmail::crypto
