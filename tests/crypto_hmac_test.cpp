#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "hex.hpp"

namespace zmail::crypto {
namespace {

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(digest_hex(hmac_sha256(key, from_string("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2) {
  const Bytes key = from_string("Jefe");
  EXPECT_EQ(digest_hex(hmac_sha256(
                key, from_string("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 0xaa key, 0xdd data.
TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      digest_hex(hmac_sha256(
          key, from_string(
                   "Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const Bytes k1 = from_string("key1"), k2 = from_string("key2");
  EXPECT_NE(hmac_sha256(k1, from_string("msg")),
            hmac_sha256(k2, from_string("msg")));
}

TEST(Hmac, DifferentMessagesDifferentMacs) {
  const Bytes k = from_string("key");
  EXPECT_NE(hmac_sha256(k, from_string("a")),
            hmac_sha256(k, from_string("b")));
}

TEST(DigestEqual, EqualAndUnequal) {
  const Digest a = sha256(from_string("x"));
  Digest b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
  b = a;
  b[0] ^= 0x80;
  EXPECT_FALSE(digest_equal(a, b));
}

}  // namespace
}  // namespace zmail::crypto
