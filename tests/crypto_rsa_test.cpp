#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include "crypto/hmac.hpp"
#include "crypto/primes.hpp"
#include "store/crc32c.hpp"

namespace zmail::crypto {
namespace {

class RsaTest : public ::testing::Test {
 protected:
  zmail::Rng rng_{2024};
  KeyPair keys_ = generate_keypair(rng_);
};

TEST_F(RsaTest, KeypairIsConsistent) {
  EXPECT_EQ(keys_.pub.n, keys_.priv.n);
  EXPECT_EQ(keys_.pub.exp, 65537u);
  EXPECT_GT(keys_.pub.n, 1ULL << 60);  // 62-bit modulus by default
}

TEST_F(RsaTest, RawRsaRoundTripsBothDirections) {
  for (std::uint64_t m : {0ULL, 1ULL, 42ULL, 123456789ULL}) {
    EXPECT_EQ(rsa_apply(keys_.priv, rsa_apply(keys_.pub, m)), m);
    EXPECT_EQ(rsa_apply(keys_.pub, rsa_apply(keys_.priv, m)), m);
  }
}

TEST_F(RsaTest, TwoLaneApplyMatchesTwoApplies) {
  zmail::Rng rng(31);
  for (const RsaKey& key : {keys_.pub, keys_.priv}) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t a = i == 0 ? 0 : rng.next_below(key.n);
      const std::uint64_t b = i == 1 ? key.n - 1 : rng.next_below(key.n);
      const std::array<std::uint64_t, 2> expected = {rsa_apply(key, a),
                                                     rsa_apply(key, b)};
      EXPECT_EQ(rsa_apply2(key, a, b), expected) << "a=" << a << " b=" << b;
    }
  }
}

TEST_F(RsaTest, NcrDcrRoundTripPublicToPrivate) {
  const Bytes plain = from_string("buy 500 e-pennies, nonce 17");
  const Envelope env = ncr(keys_.pub, plain, rng_);
  const auto out = dcr(keys_.priv, env);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, plain);
}

TEST_F(RsaTest, NcrDcrRoundTripPrivateToPublic) {
  // The bank seals replies with its private key; anyone with B_b reads them.
  const Bytes plain = from_string("buyreply nr|true");
  const Envelope env = ncr(keys_.priv, plain, rng_);
  const auto out = dcr(keys_.pub, env);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, plain);
}

TEST_F(RsaTest, EmptyPlaintextSupported) {
  const Envelope env = ncr(keys_.pub, Bytes{}, rng_);
  const auto out = dcr(keys_.priv, env);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST_F(RsaTest, WrongKeyFailsMac) {
  zmail::Rng rng2(999);
  const KeyPair other = generate_keypair(rng2);
  const Envelope env = ncr(keys_.pub, from_string("secret"), rng_);
  EXPECT_FALSE(dcr(other.priv, env).has_value());
}

TEST_F(RsaTest, DecryptingWithSameHalfFails) {
  // NCR with pub must not be readable with pub (needs the private half).
  const Envelope env = ncr(keys_.pub, from_string("secret"), rng_);
  EXPECT_FALSE(dcr(keys_.pub, env).has_value());
}

TEST_F(RsaTest, TamperedCiphertextDetected) {
  Envelope env = ncr(keys_.pub, from_string("pay 100"), rng_);
  env.ciphertext[0] ^= 0xFF;
  EXPECT_FALSE(dcr(keys_.priv, env).has_value());
}

TEST_F(RsaTest, TamperedWrappedKeyDetected) {
  Envelope env = ncr(keys_.pub, from_string("pay 100"), rng_);
  env.wrapped_key1 ^= 1;
  EXPECT_FALSE(dcr(keys_.priv, env).has_value());
}

TEST_F(RsaTest, TamperedNonceDetected) {
  Envelope env = ncr(keys_.pub, from_string("pay 100"), rng_);
  env.ctr_nonce ^= 1;
  EXPECT_FALSE(dcr(keys_.priv, env).has_value());
}

TEST_F(RsaTest, EnvelopeSerializationRoundTrips) {
  const Envelope env = ncr(keys_.pub, from_string("wire me"), rng_);
  const Bytes wire = env.serialize();
  const auto back = Envelope::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->wrapped_key1, env.wrapped_key1);
  EXPECT_EQ(back->wrapped_key2, env.wrapped_key2);
  EXPECT_EQ(back->ctr_nonce, env.ctr_nonce);
  EXPECT_EQ(back->ciphertext, env.ciphertext);
  EXPECT_TRUE(digest_equal(back->mac, env.mac));
  EXPECT_EQ(dcr(keys_.priv, *back).value(), from_string("wire me"));
}

TEST_F(RsaTest, TruncatedWireRejected) {
  const Bytes wire = ncr(keys_.pub, from_string("x"), rng_).serialize();
  for (std::size_t cut : {0u, 5u, 24u}) {
    const Bytes truncated(wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Envelope::deserialize(truncated).has_value());
  }
}

TEST_F(RsaTest, TrailingGarbageRejected) {
  Bytes wire = ncr(keys_.pub, from_string("x"), rng_).serialize();
  wire.push_back(0);
  EXPECT_FALSE(Envelope::deserialize(wire).has_value());
}

// The ciphertext length field must match the bytes between the header and
// the MAC exactly, whatever it claims.
TEST_F(RsaTest, LyingCiphertextLengthRejected) {
  const Bytes wire = ncr(keys_.pub, from_string("pay 100"), rng_).serialize();
  for (std::uint32_t len : {0u, 6u, 8u, 39u, 0xFFFFFFFFu}) {
    Bytes lying = wire;
    store_be(lying.data() + 24, len, 4);
    EXPECT_FALSE(Envelope::deserialize(lying).has_value()) << len;
  }
}

// Pins the sealed wire bytes (as CRC32C) of a fixed-seed envelope stream
// under both key halves, so any change to the session-key derivation,
// keystream, MAC input or serialization shows up as a changed checksum.
TEST(EnvelopeGolden, SealedWireBytesArePinned) {
  struct Case {
    std::size_t len;
    std::uint32_t pub_crc;
    std::uint32_t priv_crc;
  };
  const Case kCases[] = {
      {0, 0x0AB40B88, 0xCB5C8114},    {1, 0x80F98622, 0xA1A9C4FC},
      {7, 0xF81D4F31, 0x7B2128C0},    {8, 0x2E0AC2F0, 0xF7196897},
      {9, 0xA3BE3E8D, 0xEA23360C},    {24, 0xBCFF1270, 0x0C8EC916},
      {63, 0x563D7673, 0x7F21E4AE},   {64, 0x4399AF43, 0x33E18867},
      {65, 0x5D0C548F, 0x01D1DF89},   {520, 0x79ED19E0, 0xB3A78096},
      {1000, 0xD26D7CF4, 0xD14F031B},
  };
  zmail::Rng rng(77);
  const KeyPair keys = generate_keypair(rng);
  for (const Case& c : kCases) {
    Bytes plain(c.len);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_u64());
    const Bytes by_pub = ncr(keys.pub, plain, rng).serialize();
    const Bytes by_priv = ncr(keys.priv, plain, rng).serialize();
    EXPECT_EQ(store::crc32c(by_pub.data(), by_pub.size()), c.pub_crc)
        << "len=" << c.len;
    EXPECT_EQ(store::crc32c(by_priv.data(), by_priv.size()), c.priv_crc)
        << "len=" << c.len;
  }
}

TEST(RsaKeygen, SmallModulusStillRoundTrips) {
  zmail::Rng rng(5);
  const KeyPair kp = generate_keypair(rng, 32);
  EXPECT_EQ(rsa_apply(kp.priv, rsa_apply(kp.pub, 12345 % kp.pub.n)),
            12345 % kp.pub.n);
}

TEST(RsaKeygen, DistinctSeedsDistinctKeys) {
  zmail::Rng r1(1), r2(2);
  EXPECT_NE(generate_keypair(r1).pub.n, generate_keypair(r2).pub.n);
}

}  // namespace
}  // namespace zmail::crypto
