// Typed wire messages of the Zmail protocol (Section 4).
//
// Bank-bound and bank-originated messages travel inside NCR envelopes; email
// travels as plain SMTP.  Each struct has a flat big-endian serialization so
// the same bytes flow through both the AP channels and the timed network.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/nonce.hpp"
#include "crypto/rsa.hpp"
#include "net/msg_type.hpp"
#include "util/money.hpp"
#include "util/rng.hpp"

namespace zmail::core {

// Message type tags used on channels / the datagram network: pre-interned
// ids (see net/msg_type.hpp), so per-message dispatch is an integer compare.
using net::kMsgEmail;
using net::kMsgBuy;
using net::kMsgBuyReply;
using net::kMsgSell;
using net::kMsgSellReply;
using net::kMsgRequest;
using net::kMsgReply;

// --- Plaintext payloads (encrypted before transmission) ---

// buy(NCR(B_b, buyvalue | ns1))
struct BuyRequest {
  EPenny buyvalue = 0;
  crypto::Nonce nonce;

  // Exact wire size, so serialize() reserves once.
  std::size_t serialized_size() const noexcept;
  crypto::Bytes serialize() const;
  static std::optional<BuyRequest> deserialize(const crypto::Bytes& b);
};

// buyreply(NCR(R_b, nr | accepted))
struct BuyReply {
  crypto::Nonce nonce;
  bool accepted = false;

  // Exact wire size, so serialize() reserves once.
  std::size_t serialized_size() const noexcept;
  crypto::Bytes serialize() const;
  static std::optional<BuyReply> deserialize(const crypto::Bytes& b);
};

// sell(NCR(B_b, sellvalue | ns2))
struct SellRequest {
  EPenny sellvalue = 0;
  crypto::Nonce nonce;

  // Exact wire size, so serialize() reserves once.
  std::size_t serialized_size() const noexcept;
  crypto::Bytes serialize() const;
  static std::optional<SellRequest> deserialize(const crypto::Bytes& b);
};

// sellreply(NCR(R_b, nr))
struct SellReply {
  crypto::Nonce nonce;

  // Exact wire size, so serialize() reserves once.
  std::size_t serialized_size() const noexcept;
  crypto::Bytes serialize() const;
  static std::optional<SellReply> deserialize(const crypto::Bytes& b);
};

// request(NCR(R_b, seq))
struct SnapshotRequest {
  std::uint64_t seq = 0;

  // Exact wire size, so serialize() reserves once.
  std::size_t serialized_size() const noexcept;
  crypto::Bytes serialize() const;
  static std::optional<SnapshotRequest> deserialize(const crypto::Bytes& b);
};

// reply(NCR(B_b, credit)) — the ISP's whole credit array.
struct CreditReport {
  std::uint64_t seq = 0;
  std::vector<EPenny> credit;

  crypto::Bytes serialize() const;
  static std::optional<CreditReport> deserialize(const crypto::Bytes& b);

  // The one codec behind serialize()/deserialize(), for the round's hot
  // path.  encode_into writes (seq, credit) straight from the caller's
  // array into `out`, reusing its capacity.  decode_into parses into
  // `out`, reusing its credit buffer, after one length check; it returns
  // false (leaving `out` unspecified) when the bytes are malformed.
  static void encode_into(std::uint64_t seq, std::span<const EPenny> credit,
                          crypto::Bytes& out);
  static bool decode_into(std::span<const std::uint8_t> b, CreditReport& out);
};

// --- Envelope helpers ---

// Encrypts a payload under `key` and returns the wire bytes.
crypto::Bytes seal(const crypto::RsaKey& key, const crypto::Bytes& plaintext,
                   Rng& rng);

// Decrypts wire bytes with the complementary key half; nullopt on any
// malformation or MAC failure.
std::optional<crypto::Bytes> unseal(const crypto::RsaKey& key,
                                    const crypto::Bytes& wire);

// Scratch-buffer variants for steady-state senders/receivers (the ISP and
// bank hold one Envelope + one Bytes per party): the envelope's ciphertext
// buffer and the output buffer are reused across messages, so per-message
// encryption stops reallocating.  seal_into produces byte-identical wire
// output to seal() for the same RNG state.
void seal_into(const crypto::RsaKey& key, const crypto::Bytes& plaintext,
               Rng& rng, crypto::Envelope& scratch, crypto::Bytes& wire);
bool unseal_into(const crypto::RsaKey& key, std::span<const std::uint8_t> wire,
                 crypto::Envelope& scratch, crypto::Bytes& plain_out);

// --- Persisted-state helpers ---

// A bool as one byte, and an Rng stream as its full state: the encoding
// both parties' snapshots and WAL records share.
inline void put_bool(crypto::Bytes& b, bool v) {
  crypto::put_u8(b, v ? 1 : 0);
}
inline bool get_bool(crypto::ByteReader& r) { return r.get_u8() != 0; }

inline void put_rng(crypto::Bytes& b, const Rng& rng) {
  const Rng::State st = rng.save_state();
  for (std::uint64_t w : st.s) crypto::put_u64(b, w);
  crypto::put_u64(b, std::bit_cast<std::uint64_t>(st.cached_normal));
  put_bool(b, st.has_cached_normal);
}

inline void get_rng(crypto::ByteReader& r, Rng& rng) {
  Rng::State st;
  for (auto& w : st.s) w = r.get_u64();
  st.cached_normal = std::bit_cast<double>(r.get_u64());
  st.has_cached_normal = get_bool(r);
  rng.restore_state(st);
}

}  // namespace zmail::core
