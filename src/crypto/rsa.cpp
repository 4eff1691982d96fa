#include "crypto/rsa.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "crypto/primes.hpp"
#include "crypto/xtea.hpp"
#include "util/assert.hpp"

namespace zmail::crypto {

KeyPair generate_keypair(zmail::Rng& rng, int modulus_bits) {
  ZMAIL_ASSERT(modulus_bits >= 16 && modulus_bits <= 62);
  const int half = modulus_bits / 2;
  constexpr std::uint64_t kE = 65537;
  for (;;) {
    const std::uint64_t p = random_prime(rng, half);
    const std::uint64_t q = random_prime(rng, modulus_bits - half);
    if (p == q) continue;
    const std::uint64_t n = p * q;
    const std::uint64_t phi = (p - 1) * (q - 1);
    if (gcd_u64(kE, phi) != 1) continue;
    const std::uint64_t d = modinv(kE, phi);
    return KeyPair{RsaKey{n, kE}, RsaKey{n, d}};
  }
}

std::uint64_t rsa_apply(const RsaKey& key, std::uint64_t m) noexcept {
  ZMAIL_ASSERT(m < key.n);
  return powmod(m, key.exp, key.n);
}

std::array<std::uint64_t, 2> rsa_apply2(const RsaKey& key, std::uint64_t a,
                                        std::uint64_t b) noexcept {
  ZMAIL_ASSERT(a < key.n && b < key.n);
  return powmod2(a, b, key.exp, key.n);
}

namespace {
// wrapped_key1 ‖ wrapped_key2 ‖ ctr_nonce ‖ u32 ciphertext length.
constexpr std::size_t kEnvelopeHeader = 8 + 8 + 8 + 4;
}  // namespace

std::size_t Envelope::serialized_size() const noexcept {
  return kEnvelopeHeader + ciphertext.size() + mac.size();
}

Bytes Envelope::serialize() const {
  Bytes out;
  serialize_into(out);
  return out;
}

void Envelope::serialize_into(Bytes& out) const {
  out.resize(serialized_size());
  std::uint8_t* p = out.data();
  store_be(p, wrapped_key1, 8);
  store_be(p + 8, wrapped_key2, 8);
  store_be(p + 16, ctr_nonce, 8);
  store_be(p + 24, ciphertext.size(), 4);
  p += kEnvelopeHeader;
  if (!ciphertext.empty()) std::memcpy(p, ciphertext.data(), ciphertext.size());
  std::memcpy(p + ciphertext.size(), mac.data(), mac.size());
}

std::optional<Envelope> Envelope::deserialize(const Bytes& wire) {
  Envelope env;
  if (!deserialize_into(wire, env)) return std::nullopt;
  return env;
}

bool Envelope::deserialize_into(std::span<const std::uint8_t> wire,
                                Envelope& env) {
  // One length check covers every field: the header, exactly the
  // ciphertext its length field announces, and the MAC.
  if (wire.size() < kEnvelopeHeader + env.mac.size()) return false;
  const std::uint8_t* p = wire.data();
  const std::uint64_t len = load_be(p + 24, 4);
  if (wire.size() - kEnvelopeHeader - env.mac.size() != len) return false;
  env.wrapped_key1 = load_be(p, 8);
  env.wrapped_key2 = load_be(p + 8, 8);
  env.ctr_nonce = load_be(p + 16, 8);
  p += kEnvelopeHeader;
  env.ciphertext.assign(p, p + len);
  std::memcpy(env.mac.data(), p + len, env.mac.size());
  return true;
}

namespace {

using SessionKey = std::array<std::uint8_t, 16>;

// Session-key bytes from the two RSA-transported halves (k1 ‖ k2,
// big-endian).
SessionKey session_key_material(std::uint64_t k1, std::uint64_t k2) noexcept {
  SessionKey material{};
  store_be(material.data(), k1, 8);
  store_be(material.data() + 8, k2, 8);
  return material;
}

// HMAC over u64 nonce ‖ u32 length ‖ ciphertext (the put_u64/put_bytes
// encoding), streamed without assembling the input.
Digest envelope_mac(const SessionKey& key_material, const Envelope& env) {
  std::uint8_t head[12] = {};
  store_be(head, env.ctr_nonce, 8);
  store_be(head + 8, env.ciphertext.size(), 4);
  return HmacSha256(key_material)
      .update(head, sizeof head)
      .update(env.ciphertext.data(), env.ciphertext.size())
      .finish();
}

}  // namespace

Envelope ncr(const RsaKey& key, const Bytes& plaintext, zmail::Rng& rng) {
  Envelope env;
  ncr_into(key, plaintext, rng, env);
  return env;
}

void ncr_into(const RsaKey& key, const Bytes& plaintext, zmail::Rng& rng,
              Envelope& env) {
  ZMAIL_ASSERT(key.n > 1);
  const std::uint64_t k1 = rng.next_below(key.n);
  const std::uint64_t k2 = rng.next_below(key.n);

  const auto [w1, w2] = rsa_apply2(key, k1, k2);
  env.wrapped_key1 = w1;
  env.wrapped_key2 = w2;
  env.ctr_nonce = rng.next_u64();

  const SessionKey material = session_key_material(k1, k2);
  const XteaKey sym = xtea_key_from_bytes(material);
  xtea_ctr_into(plaintext, sym, env.ctr_nonce, env.ciphertext);
  env.mac = envelope_mac(material, env);
}

std::optional<Bytes> dcr(const RsaKey& key, const Envelope& env) {
  Bytes plain;
  if (!dcr_into(key, env, plain)) return std::nullopt;
  return plain;
}

bool dcr_into(const RsaKey& key, const Envelope& env, Bytes& plain_out) {
  if (key.n <= 1 || env.wrapped_key1 >= key.n || env.wrapped_key2 >= key.n)
    return false;
  const auto [k1, k2] =
      rsa_apply2(key, env.wrapped_key1, env.wrapped_key2);
  const SessionKey material = session_key_material(k1, k2);
  if (!digest_equal(envelope_mac(material, env), env.mac))
    return false;  // tampered, replay-spliced, or wrong key
  const XteaKey sym = xtea_key_from_bytes(material);
  xtea_ctr_into(env.ciphertext, sym, env.ctr_nonce, plain_out);
  return true;
}

namespace {
// Fold a digest into a value < n for textbook signing.
std::uint64_t digest_to_residue(const Digest& d, std::uint64_t n) noexcept {
  std::uint64_t acc = 0;
  for (std::uint8_t byte : d)
    acc = static_cast<std::uint64_t>(
        ((static_cast<__uint128_t>(acc) << 8) | byte) % n);
  return acc;
}
}  // namespace

std::uint64_t rsa_sign(const RsaKey& priv, const Bytes& message) noexcept {
  const Digest d = sha256(message);
  return rsa_apply(priv, digest_to_residue(d, priv.n));
}

bool rsa_verify(const RsaKey& pub, const Bytes& message,
                std::uint64_t signature) noexcept {
  if (signature >= pub.n) return false;
  const Digest d = sha256(message);
  return rsa_apply(pub, signature) == digest_to_residue(d, pub.n);
}

}  // namespace zmail::crypto
