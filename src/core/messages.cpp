#include "core/messages.hpp"

#include "trace/trace.hpp"

namespace zmail::core {

namespace {
constexpr std::uint8_t kTagBuy = 1;
constexpr std::uint8_t kTagBuyReply = 2;
constexpr std::uint8_t kTagSell = 3;
constexpr std::uint8_t kTagSellReply = 4;
constexpr std::uint8_t kTagRequest = 5;
constexpr std::uint8_t kTagReport = 6;
}  // namespace

namespace {
// Tag byte + (counter, prf) pair of a serialized nonce.
constexpr std::size_t kNonceWireSize = 16;
}  // namespace

std::size_t BuyRequest::serialized_size() const noexcept {
  return 1 + 8 + kNonceWireSize;
}

crypto::Bytes BuyRequest::serialize() const {
  crypto::Bytes b;
  b.reserve(serialized_size());
  crypto::put_u8(b, kTagBuy);
  crypto::put_i64(b, buyvalue);
  crypto::put_nonce(b, nonce);
  return b;
}

std::optional<BuyRequest> BuyRequest::deserialize(const crypto::Bytes& b) {
  crypto::ByteReader r(b);
  if (r.get_u8() != kTagBuy) return std::nullopt;
  BuyRequest m;
  m.buyvalue = r.get_i64();
  m.nonce = crypto::get_nonce(r);
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

std::size_t BuyReply::serialized_size() const noexcept {
  return 1 + kNonceWireSize + 1;
}

crypto::Bytes BuyReply::serialize() const {
  crypto::Bytes b;
  b.reserve(serialized_size());
  crypto::put_u8(b, kTagBuyReply);
  crypto::put_nonce(b, nonce);
  crypto::put_u8(b, accepted ? 1 : 0);
  return b;
}

std::optional<BuyReply> BuyReply::deserialize(const crypto::Bytes& b) {
  crypto::ByteReader r(b);
  if (r.get_u8() != kTagBuyReply) return std::nullopt;
  BuyReply m;
  m.nonce = crypto::get_nonce(r);
  m.accepted = r.get_u8() != 0;
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

std::size_t SellRequest::serialized_size() const noexcept {
  return 1 + 8 + kNonceWireSize;
}

crypto::Bytes SellRequest::serialize() const {
  crypto::Bytes b;
  b.reserve(serialized_size());
  crypto::put_u8(b, kTagSell);
  crypto::put_i64(b, sellvalue);
  crypto::put_nonce(b, nonce);
  return b;
}

std::optional<SellRequest> SellRequest::deserialize(const crypto::Bytes& b) {
  crypto::ByteReader r(b);
  if (r.get_u8() != kTagSell) return std::nullopt;
  SellRequest m;
  m.sellvalue = r.get_i64();
  m.nonce = crypto::get_nonce(r);
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

std::size_t SellReply::serialized_size() const noexcept {
  return 1 + kNonceWireSize;
}

crypto::Bytes SellReply::serialize() const {
  crypto::Bytes b;
  b.reserve(serialized_size());
  crypto::put_u8(b, kTagSellReply);
  crypto::put_nonce(b, nonce);
  return b;
}

std::optional<SellReply> SellReply::deserialize(const crypto::Bytes& b) {
  crypto::ByteReader r(b);
  if (r.get_u8() != kTagSellReply) return std::nullopt;
  SellReply m;
  m.nonce = crypto::get_nonce(r);
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

std::size_t SnapshotRequest::serialized_size() const noexcept {
  return 1 + 8;
}

crypto::Bytes SnapshotRequest::serialize() const {
  crypto::Bytes b;
  b.reserve(serialized_size());
  crypto::put_u8(b, kTagRequest);
  crypto::put_u64(b, seq);
  return b;
}

std::optional<SnapshotRequest> SnapshotRequest::deserialize(
    const crypto::Bytes& b) {
  crypto::ByteReader r(b);
  if (r.get_u8() != kTagRequest) return std::nullopt;
  SnapshotRequest m;
  m.seq = r.get_u64();
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

namespace {
// Tag, seq and entry count ahead of the entries.
constexpr std::size_t kReportHeader = 1 + 8 + 4;
}  // namespace

crypto::Bytes CreditReport::serialize() const {
  crypto::Bytes b;
  encode_into(seq, credit, b);
  return b;
}

std::optional<CreditReport> CreditReport::deserialize(const crypto::Bytes& b) {
  CreditReport m;
  if (!decode_into(b, m)) return std::nullopt;
  return m;
}

void CreditReport::encode_into(std::uint64_t seq,
                               std::span<const EPenny> credit,
                               crypto::Bytes& out) {
  out.resize(kReportHeader + 8 * credit.size());
  std::uint8_t* p = out.data();
  p[0] = kTagReport;
  crypto::store_be(p + 1, seq, 8);
  crypto::store_be(p + 9, credit.size(), 4);
  p += kReportHeader;
  for (EPenny c : credit) {
    crypto::store_be(p, static_cast<std::uint64_t>(c), 8);
    p += 8;
  }
}

bool CreditReport::decode_into(std::span<const std::uint8_t> b,
                               CreditReport& out) {
  if (b.size() < kReportHeader || b[0] != kTagReport) return false;
  // The count is attacker-controlled: it must match the bytes actually
  // present before anything is sized from it.
  const std::uint64_t n = crypto::load_be(b.data() + 9, 4);
  if (b.size() - kReportHeader != 8 * n) return false;
  out.seq = crypto::load_be(b.data() + 1, 8);
  out.credit.resize(n);
  const std::uint8_t* p = b.data() + kReportHeader;
  for (EPenny& c : out.credit) {
    c = static_cast<EPenny>(crypto::load_be(p, 8));
    p += 8;
  }
  return true;
}

crypto::Bytes seal(const crypto::RsaKey& key, const crypto::Bytes& plaintext,
                   Rng& rng) {
  return crypto::ncr(key, plaintext, rng).serialize();
}

std::optional<crypto::Bytes> unseal(const crypto::RsaKey& key,
                                    const crypto::Bytes& wire) {
  auto env = crypto::Envelope::deserialize(wire);
  if (!env) return std::nullopt;
  return crypto::dcr(key, *env);
}

void seal_into(const crypto::RsaKey& key, const crypto::Bytes& plaintext,
               Rng& rng, crypto::Envelope& scratch, crypto::Bytes& wire) {
  ZMAIL_PROF_SCOPE("crypto.seal");
  crypto::ncr_into(key, plaintext, rng, scratch);
  scratch.serialize_into(wire);
}

bool unseal_into(const crypto::RsaKey& key, std::span<const std::uint8_t> wire,
                 crypto::Envelope& scratch, crypto::Bytes& plain_out) {
  ZMAIL_PROF_SCOPE("crypto.unseal");
  if (!crypto::Envelope::deserialize_into(wire, scratch)) return false;
  return crypto::dcr_into(key, scratch, plain_out);
}

}  // namespace zmail::core
