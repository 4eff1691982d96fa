#include "core/federation.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace zmail::core {

namespace {

// Wire header shared by every inter-bank payload (inside the seal):
//   u8 kind | u64 from_bank | u64 round
void put_header(crypto::Bytes& b, BankFederation::FedMsg kind,
                std::size_t from, std::uint64_t round) {
  crypto::put_u8(b, static_cast<std::uint8_t>(kind));
  crypto::put_u64(b, from);
  crypto::put_u64(b, round);
}

}  // namespace

BankFederation::BankFederation(const ZmailParams& params,
                               std::vector<crypto::KeyPair> keys,
                               std::uint64_t seed)
    : params_(params), keys_(std::move(keys)), seed_(seed) {
  ZMAIL_ASSERT(keys_.size() == params_.n_banks && !keys_.empty());
  accounts_.assign(params_.n_isps, params_.initial_isp_bank_account);
  banks_.resize(keys_.size());
  for (std::size_t b = 0; b < banks_.size(); ++b) init_bank(b);
}

void BankFederation::init_bank(std::size_t bank) {
  const std::size_t n = params_.n_isps;
  const std::size_t k = bank_count();
  MemberBank& mb = banks_.at(bank);
  mb = MemberBank{};
  // Each member gets its own stream so sealing draws stay deterministic
  // per bank regardless of peer activity (and serialize).  Bank 0's seed
  // is `seed ^ 0xBA4B`, the stream one-bank worlds are pinned to.
  mb.rng = Rng((seed_ ^ 0xBA4BULL) + bank * 0x9E3779B97F4A7C15ULL);
  mb.reported.assign(n, false);
  mb.verify.assign(n, std::vector<EPenny>(n, 0));
  mb.drift.assign(n, std::vector<EPenny>(n, 0));
  mb.drift_streak.assign(n, std::vector<std::uint32_t>(n, 0));
  mb.colset_from.assign(k, false);
  mb.partial_net.assign(k, Money::zero());
  mb.peer_partial.assign(k, Money::zero());
  mb.transfer_from.assign(k, false);
  mb.pair_netted.assign(k, false);
  mb.clearing_pair.assign(k, Money::zero());
  mb.col_ledger.assign(k, PeerLedger{});
  mb.clr_ledger.assign(k, PeerLedger{});
  mb.buy_ledger.assign(n, TradeLedger{});
  mb.sell_ledger.assign(n, TradeLedger{});
}

void BankFederation::reset_bank(std::size_t bank) {
  // Fresh-construct semantics ahead of recovery: wiped member state and
  // member accounts back at their endowment, exactly what replaying the
  // command log from LSN 0 (or a snapshot) expects to build on.
  init_bank(bank);
  for (std::size_t i = 0; i < params_.n_isps; ++i)
    if (home_bank(i) == bank)
      accounts_.at(i) = params_.initial_isp_bank_account;
  rebuild_violations();
}

std::size_t BankFederation::home_bank(std::size_t isp) const {
  ZMAIL_ASSERT(isp < params_.n_isps);
  return isp % bank_count();
}

const crypto::RsaKey& BankFederation::public_key_for(std::size_t isp) const {
  return keys_.at(home_bank(isp)).pub;
}

std::size_t BankFederation::compliant_members(std::size_t bank) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < params_.n_isps; ++i)
    if (home_bank(i) == bank && params_.is_compliant(i)) ++n;
  return n;
}

Money BankFederation::clearing_position(std::size_t bank) const {
  return banks_.at(bank).clearing_pos;
}

Money BankFederation::clearing_pair(std::size_t bank, std::size_t peer) const {
  return banks_.at(bank).clearing_pair.at(peer);
}

bool BankFederation::round_open() const noexcept {
  for (const MemberBank& mb : banks_)
    if (!mb.canrequest) return true;
  return false;
}

bool BankFederation::round_open(std::size_t bank) const {
  return !banks_.at(bank).canrequest;
}

std::uint64_t BankFederation::seq() const noexcept {
  std::uint64_t s = banks_.front().seq;
  for (const MemberBank& mb : banks_) s = std::min(s, mb.seq);
  return s;
}

std::uint64_t BankFederation::seq(std::size_t bank) const {
  return banks_.at(bank).seq;
}

std::uint64_t BankFederation::persistent_drift_pairs() const noexcept {
  std::uint64_t n = 0;
  for (const MemberBank& mb : banks_) n += mb.persistent_drift_pairs;
  return n;
}

BankMetrics BankFederation::metrics() const {
  BankMetrics t;
  for (const MemberBank& mb : banks_) t.merge(mb.metrics);
  t.snapshot_rounds = banks_.front().metrics.snapshot_rounds;
  for (const MemberBank& mb : banks_)
    t.snapshot_rounds = std::min(t.snapshot_rounds, mb.metrics.snapshot_rounds);
  return t;
}

const BankMetrics& BankFederation::metrics(std::size_t bank) const {
  return banks_.at(bank).metrics;
}

EPenny BankFederation::epennies_outstanding() const {
  const BankMetrics m = metrics();
  return m.epennies_minted - m.epennies_burned;
}

void BankFederation::attach_wal(std::size_t bank, store::WalSink* wal) {
  banks_.at(bank).wal = wal;
}

crypto::Bytes& BankFederation::wal_payload(std::size_t bank) {
  crypto::Bytes& p = banks_.at(bank).wal_buf;
  p.clear();
  return p;
}

void BankFederation::log_op(std::size_t bank, WalOp op,
                            std::span<const std::uint8_t> payload) {
  MemberBank& mb = banks_.at(bank);
  if (mb.wal) mb.wal->append(static_cast<std::uint8_t>(op), payload);
}

void BankFederation::log_wire(std::size_t bank, WalOp op, std::uint64_t who,
                              std::span<const std::uint8_t> wire) {
  if (!banks_.at(bank).wal) return;
  crypto::Bytes& p = wal_payload(bank);
  crypto::put_u64(p, who);
  crypto::put_bytes(p, wire);
  log_op(bank, op, p);
}

void BankFederation::audit(std::size_t bank, AuditKind kind, std::size_t a,
                           std::size_t b, std::int64_t amount) {
  if (journal_ && !replaying_)
    journal_->record(AuditEvent{kind, banks_.at(bank).seq, a, b, amount});
}

crypto::Bytes BankFederation::seal_from(std::size_t bank,
                                        const crypto::RsaKey& key,
                                        const crypto::Bytes& plain) {
  crypto::Bytes wire;
  seal_into(key, plain, banks_.at(bank).rng, env_scratch_, wire);
  return wire;
}

// --- Section 4.3 trade (idempotent) -----------------------------------------

crypto::Bytes BankFederation::apply_trade(std::size_t isp, TradeLedger& led,
                                          const crypto::Nonce& nonce,
                                          const crypto::Bytes& reply) {
  const std::size_t b = home_bank(isp);
  crypto::Bytes out = seal_from(b, keys_[b].priv, reply);
  led.any_applied = true;
  led.applied_hi = nonce.counter;
  led.last_nonce = nonce;
  led.last_reply = out;
  return out;
}

crypto::Bytes BankFederation::on_buy(std::size_t isp,
                                     std::span<const std::uint8_t> wire) {
  const std::size_t b = home_bank(isp);
  MemberBank& mb = banks_[b];
  log_wire(b, WalOp::kOnBuy, isp, wire);
  ++mb.metrics.buys_received;
  if (!unseal_into(keys_[b].priv, wire, env_scratch_, plain_scratch_)) {
    ++mb.metrics.bad_envelopes;
    return {};
  }
  const auto req = BuyRequest::deserialize(plain_scratch_);
  if (!req || req->buyvalue <= 0) {
    ++mb.metrics.bad_envelopes;
    return {};
  }

  // Idempotency shield: never mint twice for one nonce.
  TradeLedger& led = mb.buy_ledger.at(isp);
  if (led.any_applied && req->nonce.counter <= led.applied_hi) {
    if (req->nonce == led.last_nonce) {
      ++mb.metrics.duplicate_buys;
      return led.last_reply;  // re-send the cached reply, no re-mint
    }
    ++mb.metrics.stale_trades;  // delayed duplicate of an older exchange
    return {};
  }

  const Money cost = Money::from_epennies(req->buyvalue);
  BuyReply reply;
  reply.nonce = req->nonce;
  if (accounts_.at(isp) >= cost) {
    accounts_.at(isp) -= cost;
    mb.metrics.epennies_minted += req->buyvalue;
    reply.accepted = true;
    ++mb.metrics.buys_accepted;
    audit(b, AuditKind::kMint, isp, 0, req->buyvalue);
  } else {
    ++mb.metrics.buys_rejected;
    audit(b, AuditKind::kMintRejected, isp, 0, req->buyvalue);
  }
  return apply_trade(isp, led, req->nonce, reply.serialize());
}

crypto::Bytes BankFederation::on_sell(std::size_t isp,
                                      std::span<const std::uint8_t> wire) {
  const std::size_t b = home_bank(isp);
  MemberBank& mb = banks_[b];
  log_wire(b, WalOp::kOnSell, isp, wire);
  ++mb.metrics.sells_received;
  if (!unseal_into(keys_[b].priv, wire, env_scratch_, plain_scratch_)) {
    ++mb.metrics.bad_envelopes;
    return {};
  }
  const auto req = SellRequest::deserialize(plain_scratch_);
  if (!req || req->sellvalue <= 0) {
    ++mb.metrics.bad_envelopes;
    return {};
  }
  // Idempotency shield: never burn (or pay out) twice for one nonce.
  TradeLedger& led = mb.sell_ledger.at(isp);
  if (led.any_applied && req->nonce.counter <= led.applied_hi) {
    if (req->nonce == led.last_nonce) {
      ++mb.metrics.duplicate_sells;
      return led.last_reply;
    }
    ++mb.metrics.stale_trades;
    return {};
  }
  accounts_.at(isp) += Money::from_epennies(req->sellvalue);
  mb.metrics.epennies_burned += req->sellvalue;
  audit(b, AuditKind::kBurn, isp, 0, req->sellvalue);
  return apply_trade(isp, led, req->nonce, SellReply{req->nonce}.serialize());
}

// --- Snapshot round ---------------------------------------------------------

void BankFederation::open_round(std::size_t bank) {
  MemberBank& mb = banks_.at(bank);
  ZMAIL_ASSERT(mb.canrequest);
  log_op(bank, WalOp::kStartRound);
  mb.canrequest = false;
  mb.outstanding = 0;
  mb.reported.assign(params_.n_isps, false);
  for (auto& row : mb.verify)
    for (auto& cell : row) cell = 0;
  mb.colset_from.assign(bank_count(), false);
  mb.verified = false;
  mb.partial_net.assign(bank_count(), Money::zero());
  mb.peer_partial.assign(bank_count(), Money::zero());
  mb.transfer_from.assign(bank_count(), false);
  mb.pair_netted.assign(bank_count(), false);
}

std::vector<std::pair<std::size_t, crypto::Bytes>>
BankFederation::start_snapshot() {
  if (round_open() || params_.compliant_count() == 0) return {};
  for (std::size_t b = 0; b < bank_count(); ++b) open_round(b);
  // Requests go out in global ISP order; each bank's sealing draws form
  // the same per-bank subsequence the WAL replay of its kStartRound record
  // regenerates.  A bank's request plaintext is the same for each of its
  // ISPs, so it is encoded once per bank.
  std::vector<crypto::Bytes> requests;
  requests.reserve(bank_count());
  for (const MemberBank& mb : banks_)
    requests.push_back(SnapshotRequest{mb.seq}.serialize());
  std::vector<std::pair<std::size_t, crypto::Bytes>> out;
  out.reserve(params_.compliant_count());
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    if (!params_.is_compliant(i)) continue;
    const std::size_t b = home_bank(i);
    MemberBank& mb = banks_[b];
    ++mb.outstanding;
    ++mb.metrics.requests_sent;
    out.emplace_back(i, seal_from(b, keys_[b].priv, requests[b]));
  }
  for (std::size_t b = 0; b < bank_count(); ++b) {
    audit(b, AuditKind::kRoundStarted, b, 0,
          static_cast<std::int64_t>(banks_[b].outstanding));
    if (banks_[b].outstanding == 0) gather_complete(b);
  }
  return out;
}

std::vector<std::pair<std::size_t, crypto::Bytes>>
BankFederation::start_snapshot_for(std::size_t bank) {
  MemberBank& mb = banks_.at(bank);
  if (!mb.canrequest) return {};
  open_round(bank);
  std::vector<std::pair<std::size_t, crypto::Bytes>> out;
  const crypto::Bytes req = SnapshotRequest{mb.seq}.serialize();
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    if (home_bank(i) != bank || !params_.is_compliant(i)) continue;
    ++mb.outstanding;
    ++mb.metrics.requests_sent;
    out.emplace_back(i, seal_from(bank, keys_[bank].priv, req));
  }
  audit(bank, AuditKind::kRoundStarted, bank, 0,
        static_cast<std::int64_t>(mb.outstanding));
  if (mb.outstanding == 0) gather_complete(bank);
  return out;
}

void BankFederation::on_reply(std::size_t isp,
                              std::span<const std::uint8_t> wire) {
  if (!params_.is_compliant(isp)) return;  // "~compliant[g] -> skip"
  const std::size_t b = home_bank(isp);
  MemberBank& mb = banks_[b];
  log_wire(b, WalOp::kOnReply, isp, wire);
  if (!unseal_into(keys_[b].priv, wire, env_scratch_, plain_scratch_)) {
    ++mb.metrics.bad_envelopes;
    return;
  }
  CreditReport& report = report_scratch_;
  if (!CreditReport::decode_into(plain_scratch_, report) ||
      report.credit.size() != params_.n_isps) {
    ++mb.metrics.bad_envelopes;
    return;
  }
  if (mb.canrequest || report.seq != mb.seq || mb.reported.at(isp)) {
    ++mb.metrics.stale_reports;  // replayed or out-of-round report
    audit(b, AuditKind::kStaleReport, isp);
    return;
  }
  mb.reported.at(isp) = true;
  ++mb.metrics.credit_reports_received;
  audit(b, AuditKind::kReportReceived, isp);
  for (std::size_t i = 0; i < params_.n_isps; ++i)
    mb.verify[i][isp] = report.credit[i];
  ZMAIL_ASSERT(mb.outstanding > 0);
  if (--mb.outstanding == 0) gather_complete(b);
}

void BankFederation::gather_complete(std::size_t bank) {
  MemberBank& mb = banks_.at(bank);
  mb.colset_from.at(bank) = true;
  // Broadcast the gathered member columns to every peer (the inter-bank
  // traffic E12 measures).
  for (std::size_t p = 0; p < bank_count(); ++p) {
    if (p == bank) continue;
    crypto::Bytes plain;
    put_header(plain, FedMsg::kColumns, bank, mb.seq);
    crypto::put_u32(plain, static_cast<std::uint32_t>(compliant_members(bank)));
    for (std::size_t g = 0; g < params_.n_isps; ++g) {
      if (home_bank(g) != bank || !params_.is_compliant(g)) continue;
      crypto::put_u64(plain, g);
      crypto::put_u32(plain, static_cast<std::uint32_t>(params_.n_isps));
      for (std::size_t i = 0; i < params_.n_isps; ++i)
        crypto::put_i64(plain, mb.verify[i][g]);
    }
    emit(bank, p, FedMsg::kColumns, plain);
  }
  maybe_verify(bank);
}

void BankFederation::maybe_verify(std::size_t bank) {
  MemberBank& mb = banks_.at(bank);
  if (mb.canrequest || mb.verified) return;
  for (std::size_t p = 0; p < bank_count(); ++p)
    if (!mb.colset_from[p]) return;
  verify_owned_pairs(bank);
}

void BankFederation::verify_owned_pairs(std::size_t bank) {
  MemberBank& mb = banks_.at(bank);
  mb.violations.clear();
  // Foreign account deltas this bank's verified pairs produce, grouped by
  // the member's home bank (shipped inside the clearing transfer).
  std::vector<std::vector<std::pair<std::uint64_t, std::int64_t>>> items(
      bank_count());

  // Pair (i, j) is owned by home(min(i, j)) == home(i).
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    if (home_bank(i) != bank || !params_.is_compliant(i)) continue;
    for (std::size_t j = i + 1; j < params_.n_isps; ++j) {
      if (!params_.is_compliant(j)) continue;
      // verify[j][i] = credit_i[j]  (ISP i's view of its flow toward j)
      // verify[i][j] = credit_j[i]  (ISP j's view of its flow toward i)
      const EPenny d = mb.verify[j][i] + mb.verify[i][j];
      mb.drift[i][j] += d;
      if (mb.drift[i][j] != 0)
        ++mb.drift_streak[i][j];
      else
        mb.drift_streak[i][j] = 0;
      if (mb.drift_streak[i][j] == 2) ++mb.persistent_drift_pairs;
      if (d != 0) {
        mb.violations.push_back(CreditViolation{i, j, d});
        ++mb.metrics.inconsistent_pairs_found;
        audit(bank, AuditKind::kViolationFlagged, i, j, d);
        continue;  // no settlement across a disputed pair
      }
      // Bulk settlement: net flow i -> j is credit_i[j]; a positive value
      // means i's users paid j's users, so real money moves i -> j.
      const EPenny net = mb.verify[j][i];
      if (net == 0) continue;
      const Money amount = Money::from_epennies(net > 0 ? net : -net);
      const std::size_t payer = net > 0 ? i : j;
      const std::size_t payee = net > 0 ? j : i;
      ++mb.metrics.settlement_transfers;
      mb.metrics.settlement_bytes += 2 * sizeof(EPenny);
      audit(bank, AuditKind::kSettlement, payer, payee, net > 0 ? net : -net);
      const std::size_t payer_bank = home_bank(payer);
      const std::size_t payee_bank = home_bank(payee);
      if (payer_bank == payee_bank) {
        // Both members of this bank: settle in place.
        accounts_.at(payer) -= amount;
        accounts_.at(payee) += amount;
        continue;
      }
      ++mb.metrics.settlements_cross_bank;
      if (payer_bank == bank) {
        accounts_.at(payer) -= amount;
        items[payee_bank].emplace_back(payee, amount.micros());
        mb.partial_net[payee_bank] += amount;
      } else {
        accounts_.at(payee) += amount;
        items[payer_bank].emplace_back(payer, -amount.micros());
        mb.partial_net[payer_bank] -= amount;
      }
    }
  }
  mb.verified = true;
  rebuild_violations();

  // Ship one clearing transfer per peer per round — even an empty one is
  // the peer's signal that this bank's side of the round is final.
  for (std::size_t p = 0; p < bank_count(); ++p) {
    if (p == bank) continue;
    crypto::Bytes plain;
    put_header(plain, FedMsg::kClearing, bank, mb.seq);
    crypto::put_i64(plain, mb.partial_net[p].micros());
    crypto::put_u32(plain, static_cast<std::uint32_t>(items[p].size()));
    for (const auto& [g, micros] : items[p]) {
      crypto::put_u64(plain, g);
      crypto::put_i64(plain, micros);
    }
    emit(bank, p, FedMsg::kClearing, plain);
  }
  for (std::size_t p = 0; p < bank_count(); ++p) {
    if (p == bank) continue;
    if (mb.transfer_from[p] && !mb.pair_netted[p]) combine_pair(bank, p);
  }
  try_close_round(bank);
}

void BankFederation::combine_pair(std::size_t bank, std::size_t peer) {
  MemberBank& mb = banks_.at(bank);
  // Net flow bank -> peer across every pair between the two banks: my
  // verified pairs contribute partial_net, the peer's contribute (negated)
  // the partial it shipped with its transfer.
  const Money total = mb.partial_net[peer] - mb.peer_partial[peer];
  if (!total.is_zero()) {
    mb.clearing_pos -= total;
    mb.clearing_pair[peer] -= total;
    // Count the netted movement once per unordered bank pair.
    if (bank < peer) ++mb.metrics.clearing_transfers;
  }
  mb.pair_netted[peer] = true;
}

void BankFederation::try_close_round(std::size_t bank) {
  MemberBank& mb = banks_.at(bank);
  if (mb.canrequest || !mb.verified) return;
  for (std::size_t p = 0; p < bank_count(); ++p) {
    if (p == bank) continue;
    if (!mb.transfer_from[p] || !mb.pair_netted[p]) return;
  }
  for (auto& row : mb.verify)
    for (auto& cell : row) cell = 0;
  audit(bank, AuditKind::kRoundCompleted, bank);
  mb.seq += 1;
  mb.canrequest = true;
  ++mb.metrics.snapshot_rounds;
}

// --- Inter-bank plane -------------------------------------------------------

void BankFederation::emit(std::size_t from, std::size_t to, FedMsg kind,
                          const crypto::Bytes& plain) {
  MemberBank& mb = banks_.at(from);
  crypto::Bytes wire = seal_from(from, keys_.at(to).pub, plain);
  if (kind == FedMsg::kColumns) {
    ++mb.metrics.interbank_messages;
    mb.metrics.interbank_bytes += wire.size();
  } else {
    ++mb.metrics.clearing_messages;
  }
  if (replaying_) return;  // replayed output already left pre-crash
  ZMAIL_ASSERT_MSG(sink_, "inter-bank wire emitted with no sink installed");
  sink_(from, to, static_cast<std::uint8_t>(kind), std::move(wire));
}

void BankFederation::on_interbank(std::size_t bank, std::size_t from_bank,
                                  std::uint8_t kind,
                                  std::span<const std::uint8_t> wire) {
  MemberBank& mb = banks_.at(bank);
  if (mb.wal) {
    crypto::Bytes& p = wal_payload(bank);
    crypto::put_u64(p, from_bank);
    crypto::put_u8(p, kind);
    crypto::put_bytes(p, wire);
    log_op(bank, WalOp::kOnInterbank, p);
  }
  if (!unseal_into(keys_.at(bank).priv, wire, env_scratch_, plain_scratch_)) {
    ++mb.metrics.bad_envelopes;
    return;
  }
  // A private copy: the handlers below seal further wires (clearing
  // transfers), which reuse the scratch buffers.
  const crypto::Bytes plain = plain_scratch_;
  crypto::ByteReader r(plain);
  const std::uint8_t inner = r.get_u8();
  const std::uint64_t from = r.get_u64();
  const std::uint64_t round = r.get_u64();
  const bool columns = kind == static_cast<std::uint8_t>(FedMsg::kColumns);
  if (!r.ok() || inner != kind || from != from_bank || from >= bank_count() ||
      from == bank ||
      (!columns && kind != static_cast<std::uint8_t>(FedMsg::kClearing))) {
    ++mb.metrics.bad_envelopes;
    return;
  }
  const PeerLedger& led = (columns ? mb.col_ledger : mb.clr_ledger).at(from);
  if (led.any_applied && round <= led.applied_hi) {
    ++mb.metrics.duplicate_interbank;  // delivered twice: never re-applied
    return;
  }
  if (mb.canrequest || round != mb.seq) {
    ++mb.metrics.stale_interbank;  // a round not open here
    return;
  }
  if (columns)
    handle_columns(bank, from, r, round);
  else
    handle_clearing(bank, from, r, round);
}

void BankFederation::note_retransmit(std::size_t bank, net::MsgType type) {
  MemberBank& mb = banks_.at(bank);
  if (mb.wal) {
    crypto::Bytes& p = wal_payload(bank);
    crypto::put_string(p, type.name());
    log_op(bank, WalOp::kNoteRetransmit, p);
  }
  if (type == kMsgRequest)
    ++mb.metrics.snapshot_rerequests;
  else if (type == kMsgBuyReply || type == kMsgSellReply)
    ++mb.metrics.trade_reply_retries;
  else
    ++mb.metrics.interbank_retries;
}

void BankFederation::handle_columns(std::size_t bank, std::size_t from,
                                    crypto::ByteReader& r,
                                    std::uint64_t round) {
  MemberBank& mb = banks_.at(bank);
  const std::uint32_t members = r.get_u32();
  if (!r.ok() || members > params_.n_isps) {
    ++mb.metrics.bad_envelopes;
    return;
  }
  for (std::uint32_t m = 0; m < members; ++m) {
    const std::uint64_t g = r.get_u64();
    const std::uint32_t len = r.get_u32();
    if (!r.ok() || g >= params_.n_isps || home_bank(g) != from ||
        len != params_.n_isps) {
      ++mb.metrics.bad_envelopes;
      return;
    }
    for (std::size_t i = 0; i < params_.n_isps; ++i)
      mb.verify[i][g] = r.get_i64();
  }
  if (!r.ok()) {
    ++mb.metrics.bad_envelopes;
    return;
  }
  mb.colset_from.at(from) = true;
  mb.col_ledger.at(from) = PeerLedger{true, round};
  maybe_verify(bank);
  try_close_round(bank);
}

void BankFederation::handle_clearing(std::size_t bank, std::size_t from,
                                     crypto::ByteReader& r,
                                     std::uint64_t round) {
  MemberBank& mb = banks_.at(bank);
  const std::int64_t peer_net = r.get_i64();
  const std::uint32_t n_items = r.get_u32();
  if (!r.ok() || n_items > params_.n_isps * params_.n_isps) {
    ++mb.metrics.bad_envelopes;
    return;
  }
  // Two-phase apply: validate the whole wire before touching accounts, so
  // a malformed transfer can't half-apply.
  std::vector<std::pair<std::uint64_t, std::int64_t>> items;
  items.reserve(n_items);
  for (std::uint32_t k = 0; k < n_items; ++k) {
    const std::uint64_t g = r.get_u64();
    const std::int64_t micros = r.get_i64();
    if (!r.ok() || g >= params_.n_isps || home_bank(g) != bank) {
      ++mb.metrics.bad_envelopes;
      return;
    }
    items.emplace_back(g, micros);
  }
  for (const auto& [g, micros] : items)
    accounts_.at(g) += Money::from_micros(micros);
  mb.peer_partial.at(from) = Money::from_micros(peer_net);
  mb.transfer_from.at(from) = true;
  mb.clr_ledger.at(from) = PeerLedger{true, round};
  if (mb.verified && !mb.pair_netted[from]) combine_pair(bank, from);
  try_close_round(bank);
}

void BankFederation::rebuild_violations() {
  last_violations_.clear();
  for (const MemberBank& mb : banks_)
    last_violations_.insert(last_violations_.end(), mb.violations.begin(),
                            mb.violations.end());
  std::sort(last_violations_.begin(), last_violations_.end(),
            [](const CreditViolation& a, const CreditViolation& b) {
              return a.isp_i != b.isp_i ? a.isp_i < b.isp_i
                                        : a.isp_j < b.isp_j;
            });
}

}  // namespace zmail::core
