// Modular arithmetic and probabilistic primality testing.
//
// Supports the RSA-style keypair used to realize the paper's B_b/R_b
// (bank public/private key) and the NCR/DCR operations of Section 4.3.
#pragma once

#include <array>
#include <cstdint>

#include "util/rng.hpp"

namespace zmail::crypto {

// (a * b) mod m without overflow, via 128-bit intermediate.
std::uint64_t mulmod(std::uint64_t a, std::uint64_t b,
                     std::uint64_t m) noexcept;

// (base ^ exp) mod m.  Odd moduli (every RSA modulus, every Miller-Rabin
// candidate) run a Montgomery-form square-and-multiply ladder with no
// division in the loop (below 2^62, without each product's final
// correction either); even moduli keep the mulmod ladder.
std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                     std::uint64_t m) noexcept;

// {powmod(a, exp, m), powmod(b, exp, m)}, the two ladders interleaved so
// their multiplies overlap (both envelope session-key halves share the key
// and the exponent).
std::array<std::uint64_t, 2> powmod2(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t exp,
                                     std::uint64_t m) noexcept;

// Deterministic Miller-Rabin for 64-bit integers (known witness set).
bool is_prime_u64(std::uint64_t n) noexcept;

// Random prime with exactly `bits` bits (2..62), using the provided Rng.
std::uint64_t random_prime(zmail::Rng& rng, int bits) noexcept;

// Extended GCD; returns g and sets x, y with a*x + b*y = g.
std::int64_t egcd(std::int64_t a, std::int64_t b, std::int64_t& x,
                  std::int64_t& y) noexcept;

// Modular inverse of a mod m; requires gcd(a, m) == 1.
std::uint64_t modinv(std::uint64_t a, std::uint64_t m) noexcept;

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) noexcept;

}  // namespace zmail::crypto
