// RSA-style keypair and the paper's NCR/DCR operations (Section 4.3).
//
// The Zmail specification encrypts small protocol payloads both with the
// bank's public key B_b (confidentiality: `buy`/`sell` requests) and with the
// bank's private key R_b (authenticity: `buyreply`/`sellreply`/`request`).
// We model both directions with textbook RSA over a 62-bit modulus wrapped
// in a hybrid envelope: RSA transports a fresh session key, XTEA-CTR carries
// the payload, and HMAC-SHA256 authenticates the whole envelope.  The
// session key stays on the stack and the MAC streams nonce ‖ length ‖
// ciphertext without assembling a copy, so sealing allocates nothing but
// the ciphertext (and *_into reuses that).  The two 64-bit session-key
// halves are wrapped and unwrapped together by rsa_apply2, one two-lane
// Montgomery ladder (see powmod2): with the private exponent, about as
// wide as n, that ladder is the largest single step of a short envelope.
//
// The modulus is deliberately small — this is a *protocol simulation*, not a
// production cryptosystem — but every operation (keygen, wrap, unwrap, sign,
// verify, tamper detection) is real, so the replay/tamper experiments in
// bench_e11 exercise genuine code paths.
#pragma once

#include <array>
#include <optional>

#include "crypto/bytes.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace zmail::crypto {

// One half of a keypair: modulus plus one exponent.  NCR with one half is
// reversed by DCR with the complementary half.
struct RsaKey {
  std::uint64_t n = 0;
  std::uint64_t exp = 0;

  bool operator==(const RsaKey&) const = default;
};

struct KeyPair {
  RsaKey pub;   // (n, e)
  RsaKey priv;  // (n, d)
};

// Generate a keypair with two fresh `bits/2`-bit primes (default 62-bit n).
KeyPair generate_keypair(zmail::Rng& rng, int modulus_bits = 62);

// Raw textbook-RSA on a value < n.
std::uint64_t rsa_apply(const RsaKey& key, std::uint64_t m) noexcept;
// {rsa_apply(key, a), rsa_apply(key, b)} in one interleaved two-lane
// ladder: NCR/DCR wrap and unwrap both session-key halves this way.
std::array<std::uint64_t, 2> rsa_apply2(const RsaKey& key, std::uint64_t a,
                                        std::uint64_t b) noexcept;

// Hybrid envelope produced by NCR.
struct Envelope {
  std::uint64_t wrapped_key1 = 0;  // RSA-wrapped session key halves
  std::uint64_t wrapped_key2 = 0;
  std::uint64_t ctr_nonce = 0;
  Bytes ciphertext;
  Digest mac{};

  // Exact wire size, so serialization reserves once.
  std::size_t serialized_size() const noexcept;
  Bytes serialize() const;
  // Overwrites `out` (reusing its capacity) with the wire encoding.
  void serialize_into(Bytes& out) const;
  static std::optional<Envelope> deserialize(const Bytes& wire);
  // Scratch variant: parses into `env`, reusing its ciphertext buffer.
  static bool deserialize_into(std::span<const std::uint8_t> wire,
                               Envelope& env);
};

// NCR(k, d): encrypt data item d under key half k (paper notation).
Envelope ncr(const RsaKey& key, const Bytes& plaintext, zmail::Rng& rng);
// Scratch variant: writes into `env`, reusing its ciphertext buffer so
// per-message encryption stops reallocating.  Produces byte-identical
// envelopes to ncr() for the same RNG state.
void ncr_into(const RsaKey& key, const Bytes& plaintext, zmail::Rng& rng,
              Envelope& env);

// DCR(k', x): decrypt with the complementary key half; returns nullopt when
// the MAC fails or the envelope is malformed (tampering / wrong key).
std::optional<Bytes> dcr(const RsaKey& key, const Envelope& env);
// Scratch variant: decrypts into `plain_out` (reusing its capacity);
// returns false — leaving `plain_out` unspecified — on MAC failure or a
// malformed envelope.  `plain_out` must not alias `env.ciphertext`.
bool dcr_into(const RsaKey& key, const Envelope& env, Bytes& plain_out);

// Detached signature over a byte string: RSA on the folded SHA-256 digest.
std::uint64_t rsa_sign(const RsaKey& priv, const Bytes& message) noexcept;
bool rsa_verify(const RsaKey& pub, const Bytes& message,
                std::uint64_t signature) noexcept;

}  // namespace zmail::crypto
