#include "crypto/primes.hpp"

#include <gtest/gtest.h>

namespace zmail::crypto {
namespace {

TEST(Mulmod, NoOverflowOnLargeOperands) {
  const std::uint64_t m = 0xFFFFFFFFFFFFFFC5ULL;  // large prime
  EXPECT_EQ(mulmod(m - 1, m - 1, m), 1u);  // (-1)^2 = 1 mod m
  EXPECT_EQ(mulmod(0, 12345, m), 0u);
  EXPECT_EQ(mulmod(1, 12345, m), 12345u);
}

TEST(Powmod, BasicIdentities) {
  EXPECT_EQ(powmod(2, 10, 1'000'000'007), 1024u);
  EXPECT_EQ(powmod(5, 0, 7), 1u);
  EXPECT_EQ(powmod(0, 5, 7), 0u);
  EXPECT_EQ(powmod(3, 1, 7), 3u);
  EXPECT_EQ(powmod(10, 2, 1), 0u);  // mod 1
}

TEST(Powmod, FermatLittleTheorem) {
  const std::uint64_t p = 1'000'000'007;
  for (std::uint64_t a : {2ULL, 3ULL, 999999999ULL})
    EXPECT_EQ(powmod(a, p - 1, p), 1u);
}

// The textbook right-to-left ladder on mulmod: the reference powmod must
// match for every modulus, whatever arithmetic it runs on.
std::uint64_t reference_powmod(std::uint64_t base, std::uint64_t exp,
                               std::uint64_t m) {
  if (m == 1) return 0;
  std::uint64_t result = 1;
  base %= m;
  for (; exp > 0; exp >>= 1) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
  }
  return result;
}

// A random value of exactly `bits` bits (1..64).
std::uint64_t random_width(zmail::Rng& rng, int bits) {
  const std::uint64_t top = 1ULL << (bits - 1);
  return (rng.next_u64() >> (64 - bits)) | top;
}

TEST(Powmod, MatchesReferenceLadderAtEveryWidth) {
  zmail::Rng rng(64);
  for (int bits = 1; bits <= 64; ++bits) {
    for (int trial = 0; trial < 40; ++trial) {
      std::uint64_t m = random_width(rng, bits);
      m = trial % 2 == 0 ? (m | 1) : (m & ~1ULL);  // odd and even moduli
      if (m == 0) m = 1;
      // Bases of any width, so base >= m is common; exponents of any
      // width, zero included.
      const std::uint64_t base = random_width(rng, 1 + trial % 64) - 1;
      const std::uint64_t exp =
          trial % 8 == 0 ? 0 : random_width(rng, 1 + (trial * 7) % 64);
      EXPECT_EQ(powmod(base, exp, m), reference_powmod(base, exp, m))
          << "base=" << base << " exp=" << exp << " m=" << m;
    }
  }
}

TEST(Powmod, EdgeOperands) {
  const std::uint64_t kTop = ~std::uint64_t{0};  // 2^64 - 1, odd
  // 2^62 is where the ladder switches from lazy to fully reduced products.
  const std::uint64_t moduli[] = {
      1, 2, 3, 4, (1ULL << 62) - 57, (1ULL << 62) - 1, (1ULL << 62) + 1,
      (1ULL << 63) - 25, 1ULL << 63, (1ULL << 63) + 1, kTop - 58, kTop - 1,
      kTop};
  const std::uint64_t values[] = {0, 1, 2, (1ULL << 62) - 2, kTop - 1, kTop};
  for (std::uint64_t m : moduli)
    for (std::uint64_t base : values)
      for (std::uint64_t exp : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{2}, std::uint64_t{65537},
                                kTop - 1, kTop})
        EXPECT_EQ(powmod(base, exp, m), reference_powmod(base, exp, m))
            << "base=" << base << " exp=" << exp << " m=" << m;
}

TEST(Powmod, TwoLaneMatchesTwoCalls) {
  zmail::Rng rng(65);
  for (int bits = 1; bits <= 64; ++bits) {
    for (int trial = 0; trial < 8; ++trial) {
      std::uint64_t m = random_width(rng, bits);
      m = trial % 2 == 0 ? (m | 1) : (m & ~1ULL);
      if (m == 0) m = 1;
      const std::uint64_t a = rng.next_u64(), b = rng.next_u64() % m;
      const std::uint64_t exp = trial == 0 ? 0 : rng.next_u64() >> trial;
      const std::array<std::uint64_t, 2> expected = {powmod(a, exp, m),
                                                     powmod(b, exp, m)};
      EXPECT_EQ(powmod2(a, b, exp, m), expected)
          << "a=" << a << " b=" << b << " exp=" << exp << " m=" << m;
    }
  }
}

TEST(IsPrime, SmallValues) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(5));
  EXPECT_FALSE(is_prime_u64(9));
  EXPECT_TRUE(is_prime_u64(97));
  EXPECT_FALSE(is_prime_u64(100));
}

TEST(IsPrime, CarmichaelNumbersRejected) {
  // Carmichael numbers fool Fermat tests but not Miller-Rabin.
  for (std::uint64_t c : {561ULL, 1105ULL, 1729ULL, 41041ULL, 825265ULL})
    EXPECT_FALSE(is_prime_u64(c)) << c;
}

TEST(IsPrime, LargeKnownPrimesAndComposites) {
  EXPECT_TRUE(is_prime_u64(1'000'000'007ULL));
  EXPECT_TRUE(is_prime_u64(1'000'000'009ULL));
  EXPECT_TRUE(is_prime_u64((1ULL << 61) - 1));  // Mersenne prime M61
  EXPECT_FALSE(is_prime_u64(1'000'000'007ULL * 3));
  EXPECT_FALSE(is_prime_u64((1ULL << 62) - 1));
}

// Miller-Rabin runs powmod on n itself, so moduli above 2^63 reach it.
TEST(IsPrime, NearTwoToTheSixtyFour) {
  const std::uint64_t kTop = ~std::uint64_t{0};  // 2^64 - 1
  const std::uint64_t primes[] = {kTop - 58, kTop - 82, kTop - 94,
                                  kTop - 188, (1ULL << 63) + 29};
  for (std::uint64_t p : primes) EXPECT_TRUE(is_prime_u64(p)) << p;
  // 2^64 - 1, 3^2 * 11 * ..., 13 * 3889 * ..., squares and products of
  // the largest primes below 2^32, and a strong pseudoprime to the first
  // nine prime bases.
  const std::uint64_t composites[] = {
      kTop, kTop - 114, kTop - 2, 4294967291ULL * 4294967291ULL,
      4294967291ULL * 4294967279ULL, 3825123056546413051ULL,
      (1ULL << 63) + 1};
  for (std::uint64_t c : composites) EXPECT_FALSE(is_prime_u64(c)) << c;
}

TEST(RandomPrime, HasRequestedBitLength) {
  zmail::Rng rng(9);
  for (int bits : {8, 16, 31, 40, 62}) {
    const std::uint64_t p = random_prime(rng, bits);
    EXPECT_TRUE(is_prime_u64(p));
    EXPECT_GE(p, 1ULL << (bits - 1));
    EXPECT_LT(p, bits < 64 ? (1ULL << bits) : ~0ULL);
  }
}

TEST(Egcd, BezoutIdentityHolds) {
  std::int64_t x = 0, y = 0;
  const std::int64_t g = egcd(240, 46, x, y);
  EXPECT_EQ(g, 2);
  EXPECT_EQ(240 * x + 46 * y, 2);
}

TEST(Modinv, InverseMultipliesToOne) {
  for (std::uint64_t a : {3ULL, 7ULL, 65537ULL}) {
    const std::uint64_t m = 1'000'000'007ULL;
    const std::uint64_t inv = modinv(a, m);
    EXPECT_EQ(mulmod(a, inv, m), 1u);
  }
}

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd_u64(12, 18), 6u);
  EXPECT_EQ(gcd_u64(17, 5), 1u);
  EXPECT_EQ(gcd_u64(0, 5), 5u);
  EXPECT_EQ(gcd_u64(5, 0), 5u);
}

}  // namespace
}  // namespace zmail::crypto
