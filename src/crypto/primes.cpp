#include "crypto/primes.hpp"

#include "util/assert.hpp"

namespace zmail::crypto {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b,
                     std::uint64_t m) noexcept {
  return static_cast<std::uint64_t>(
      static_cast<__uint128_t>(a) * b % m);
}

namespace {

// Montgomery arithmetic modulo an odd n with R = 2^64 (Montgomery,
// "Modular multiplication without trial division", Math. Comp. 1985).
// A residue x is held as x·R mod n, so a product needs three multiplies
// and no 128-by-64-bit division.
struct Montgomery {
  std::uint64_t n;
  std::uint64_t n_inv;  // n^-1 mod 2^64
  std::uint64_t one;    // R mod n
  std::uint64_t r2;     // R^2 mod n

  explicit Montgomery(std::uint64_t odd_n) noexcept : n(odd_n) {
    // Newton's iteration doubles the correct low bits: 3 (n·n ≡ 1 mod 8)
    // -> 6 -> 12 -> 24 -> 48 -> 96.
    std::uint64_t inv = n;
    for (int i = 0; i < 5; ++i) inv *= 2 - n * inv;
    n_inv = inv;
    one = (0 - n) % n;
    r2 = static_cast<std::uint64_t>(static_cast<__uint128_t>(one) * one % n);
  }

  // (t - m·n) / R for t < n·R, with m = t·n^-1 mod R: m·n agrees with t in
  // the low word, so this is hi(t) - hi(m·n), both below n.  Unlike the
  // (t + m·n) / R form, nothing overflows for any n < 2^64.
  struct Halves {
    std::uint64_t hi;
    std::uint64_t mn_hi;
  };
  Halves reduce(__uint128_t t) const noexcept {
    const std::uint64_t m = static_cast<std::uint64_t>(t) * n_inv;
    return {static_cast<std::uint64_t>(t >> 64),
            static_cast<std::uint64_t>(
                (static_cast<__uint128_t>(m) * n) >> 64)};
  }
  // t·R^-1 mod n in [0, n), for t < n·R.
  std::uint64_t redc(__uint128_t t) const noexcept {
    const auto [hi, mn_hi] = reduce(t);
    return hi >= mn_hi ? hi - mn_hi : hi - mn_hi + n;
  }
  // a·b·R^-1 mod n for a, b < n, in [0, n).
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
    return redc(static_cast<__uint128_t>(a) * b);
  }
  // The same residue for a, b < 2n, left in [0, 2n) without the final
  // correction: valid when 4n <= R (n < 2^62), since then a·b < n·R and
  // hi(a·b) < n.  It shortens the ladder's dependency chain.
  std::uint64_t mul_lazy(std::uint64_t a, std::uint64_t b) const noexcept {
    const auto [hi, mn_hi] = reduce(static_cast<__uint128_t>(a) * b);
    return hi + n - mn_hi;
  }
  std::uint64_t to(std::uint64_t x) const noexcept { return mul(x % n, r2); }
  std::uint64_t from(std::uint64_t x) const noexcept { return redc(x); }
};

// The division ladder, for even moduli (Montgomery needs n odd).
std::uint64_t powmod_division(std::uint64_t base, std::uint64_t exp,
                              std::uint64_t m) noexcept {
  std::uint64_t result = 1;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

// Right-to-left square-and-multiply in Montgomery form, kLanes bases under
// one exponent: the lanes' multiplies are independent and overlap in the
// pipeline.
template <std::size_t kLanes, bool kLazy>
std::array<std::uint64_t, kLanes> ladder(const Montgomery& mont,
                                         std::array<std::uint64_t, kLanes> x,
                                         std::uint64_t exp) noexcept {
  const auto mul = [&mont](std::uint64_t a, std::uint64_t b) {
    return kLazy ? mont.mul_lazy(a, b) : mont.mul(a, b);
  };
  std::array<std::uint64_t, kLanes> r;
  r.fill(mont.one);
  for (auto& v : x) v = mont.to(v);
  for (; exp > 0; exp >>= 1) {
    if (exp & 1)
      for (std::size_t i = 0; i < kLanes; ++i) r[i] = mul(r[i], x[i]);
    for (std::size_t i = 0; i < kLanes; ++i) x[i] = mul(x[i], x[i]);
  }
  for (auto& v : r) v = mont.from(v);
  return r;
}

template <std::size_t kLanes>
std::array<std::uint64_t, kLanes> powmod_lanes(
    std::array<std::uint64_t, kLanes> x, std::uint64_t exp,
    std::uint64_t m) noexcept {
  ZMAIL_ASSERT(m != 0);
  if (m == 1) return {};
  if ((m & 1) == 0) {
    for (auto& v : x) v = powmod_division(v, exp, m);
    return x;
  }
  const Montgomery mont(m);
  return m < (1ULL << 62) ? ladder<kLanes, true>(mont, x, exp)
                          : ladder<kLanes, false>(mont, x, exp);
}

}  // namespace

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                     std::uint64_t m) noexcept {
  return powmod_lanes<1>({base}, exp, m)[0];
}

std::array<std::uint64_t, 2> powmod2(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t exp,
                                     std::uint64_t m) noexcept {
  return powmod_lanes<2>({a, b}, exp, m);
}

namespace {
// Single Miller-Rabin round with witness a; n odd, n > 2.
bool miller_rabin_round(std::uint64_t n, std::uint64_t a, std::uint64_t d,
                        int r) noexcept {
  std::uint64_t x = powmod(a % n, d, n);
  if (x == 0 || x == 1 || x == n - 1) return true;
  for (int i = 0; i < r - 1; ++i) {
    x = mulmod(x, x, n);
    if (x == n - 1) return true;
  }
  return false;
}
}  // namespace

bool is_prime_u64(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  // Write n-1 = d * 2^r.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // This witness set is deterministic for all n < 2^64 (Sinclair).
  for (std::uint64_t a : {2ULL, 325ULL, 9375ULL, 28178ULL, 450775ULL,
                          9780504ULL, 1795265022ULL}) {
    if (a % n == 0) continue;
    if (!miller_rabin_round(n, a, d, r)) return false;
  }
  return true;
}

std::uint64_t random_prime(zmail::Rng& rng, int bits) noexcept {
  ZMAIL_ASSERT(bits >= 2 && bits <= 62);
  const std::uint64_t lo = 1ULL << (bits - 1);
  const std::uint64_t hi = (1ULL << bits) - 1;
  for (;;) {
    std::uint64_t candidate =
        lo + rng.next_below(hi - lo + 1);
    candidate |= 1;  // odd
    if (is_prime_u64(candidate)) return candidate;
  }
}

std::int64_t egcd(std::int64_t a, std::int64_t b, std::int64_t& x,
                  std::int64_t& y) noexcept {
  if (b == 0) {
    x = 1;
    y = 0;
    return a;
  }
  std::int64_t x1 = 0, y1 = 0;
  const std::int64_t g = egcd(b, a % b, x1, y1);
  x = y1;
  y = x1 - (a / b) * y1;
  return g;
}

std::uint64_t modinv(std::uint64_t a, std::uint64_t m) noexcept {
  std::int64_t x = 0, y = 0;
  const std::int64_t g =
      egcd(static_cast<std::int64_t>(a), static_cast<std::int64_t>(m), x, y);
  ZMAIL_ASSERT_MSG(g == 1, "modular inverse requires coprime inputs");
  const auto mi = static_cast<std::int64_t>(m);
  return static_cast<std::uint64_t>(((x % mi) + mi) % mi);
}

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) noexcept {
  while (b != 0) {
    const std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace zmail::crypto
