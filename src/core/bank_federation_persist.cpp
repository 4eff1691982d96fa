// Durability half of the bank state machine (see isp_persist.cpp for the
// pattern).  Each member bank serializes independently: its member account
// slice, round-in-progress state, drift streaks, idempotency ledgers and
// its RNG stream — everything a crash must not lose and a WAL replay must
// rebuild deterministically (reply and request sealing draws from that
// stream).  The handlers are idempotent
// against duplicated trade requests and inter-bank wires, which makes them
// doubly safe to replay.
#include <type_traits>

#include "core/federation.hpp"
#include "store/wal.hpp"

namespace zmail::core {

namespace {

// 2 still carried the unacked inter-bank wires.
constexpr std::uint8_t kStateVersion = 3;

void put_matrix_i64(crypto::Bytes& b,
                    const std::vector<std::vector<EPenny>>& m) {
  crypto::put_u32(b, static_cast<std::uint32_t>(m.size()));
  for (const auto& row : m) {
    crypto::put_u32(b, static_cast<std::uint32_t>(row.size()));
    for (EPenny v : row) crypto::put_i64(b, v);
  }
}

bool get_matrix_i64(crypto::ByteReader& r,
                    std::vector<std::vector<EPenny>>& m) {
  const std::uint32_t rows = r.get_u32();
  if (!r.ok() || rows > (1u << 16)) return false;
  m.assign(rows, {});
  for (auto& row : m) {
    const std::uint32_t cols = r.get_u32();
    if (!r.ok() || cols > (1u << 16)) return false;
    row.assign(cols, 0);
    for (auto& v : row) v = r.get_i64();
  }
  return r.ok();
}

}  // namespace

crypto::Bytes BankFederation::serialize_state(std::size_t bank) const {
  const MemberBank& mb = banks_.at(bank);
  crypto::Bytes b;
  crypto::put_u8(b, kStateVersion);
  crypto::put_u64(b, params_.n_isps);
  crypto::put_u64(b, bank_count());
  crypto::put_u64(b, bank);

  // Member account slice (ISP ascending; the peers own the other slots).
  std::uint32_t members = 0;
  for (std::size_t i = 0; i < params_.n_isps; ++i)
    if (home_bank(i) == bank) ++members;
  crypto::put_u32(b, members);
  for (std::size_t i = 0; i < params_.n_isps; ++i)
    if (home_bank(i) == bank) crypto::put_i64(b, accounts_[i].micros());

  crypto::put_u64(b, mb.seq);
  put_bool(b, mb.canrequest);
  crypto::put_u32(b, static_cast<std::uint32_t>(mb.reported.size()));
  for (bool v : mb.reported) put_bool(b, v);
  crypto::put_u64(b, mb.outstanding);
  put_matrix_i64(b, mb.verify);
  put_matrix_i64(b, mb.drift);
  for (const auto& row : mb.drift_streak)
    for (std::uint32_t v : row) crypto::put_u32(b, v);
  crypto::put_u64(b, mb.persistent_drift_pairs);

  crypto::put_u32(b, static_cast<std::uint32_t>(bank_count()));
  for (std::size_t p = 0; p < bank_count(); ++p) {
    put_bool(b, mb.colset_from[p]);
    put_bool(b, mb.transfer_from[p]);
    put_bool(b, mb.pair_netted[p]);
    crypto::put_i64(b, mb.partial_net[p].micros());
    crypto::put_i64(b, mb.peer_partial[p].micros());
    crypto::put_i64(b, mb.clearing_pair[p].micros());
  }
  put_bool(b, mb.verified);
  crypto::put_i64(b, mb.clearing_pos.micros());

  for (const auto* ledger : {&mb.col_ledger, &mb.clr_ledger}) {
    crypto::put_u32(b, static_cast<std::uint32_t>(ledger->size()));
    for (const PeerLedger& l : *ledger) {
      put_bool(b, l.any_applied);
      crypto::put_u64(b, l.applied_hi);
    }
  }
  for (const auto* ledger : {&mb.buy_ledger, &mb.sell_ledger}) {
    crypto::put_u32(b, static_cast<std::uint32_t>(ledger->size()));
    for (const TradeLedger& l : *ledger) {
      put_bool(b, l.any_applied);
      crypto::put_u64(b, l.applied_hi);
      crypto::put_nonce(b, l.last_nonce);
      crypto::put_bytes(b, l.last_reply);
    }
  }

  crypto::put_u32(b, static_cast<std::uint32_t>(mb.violations.size()));
  for (const CreditViolation& v : mb.violations) {
    crypto::put_u64(b, v.isp_i);
    crypto::put_u64(b, v.isp_j);
    crypto::put_i64(b, v.discrepancy);
  }

  // The u64 counters in fields() order; the two signed e-penny totals
  // travel after them.
  BankMetrics::fields([&](const char*, auto p) {
    if constexpr (std::is_same_v<decltype(p), std::uint64_t BankMetrics::*>)
      crypto::put_u64(b, mb.metrics.*p);
  });
  crypto::put_i64(b, mb.metrics.epennies_minted);
  crypto::put_i64(b, mb.metrics.epennies_burned);

  put_rng(b, mb.rng);
  return b;
}

bool BankFederation::restore_state(std::size_t bank,
                                   std::span<const std::uint8_t> state) {
  MemberBank& mb = banks_.at(bank);
  crypto::ByteReader r(state);
  if (r.get_u8() != kStateVersion) return false;
  if (r.get_u64() != params_.n_isps || r.get_u64() != bank_count() ||
      r.get_u64() != bank || !r.ok())
    return false;

  const std::uint32_t members = r.get_u32();
  if (!r.ok() || members > params_.n_isps) return false;
  std::uint32_t seen = 0;
  for (std::size_t i = 0; i < params_.n_isps; ++i) {
    if (home_bank(i) != bank) continue;
    if (++seen > members) return false;
    accounts_.at(i) = Money::from_micros(r.get_i64());
  }
  if (seen != members) return false;

  mb.seq = r.get_u64();
  mb.canrequest = get_bool(r);
  const std::uint32_t n_rep = r.get_u32();
  if (!r.ok() || n_rep != params_.n_isps) return false;
  mb.reported.assign(n_rep, false);
  for (std::uint32_t i = 0; i < n_rep; ++i) mb.reported[i] = get_bool(r);
  mb.outstanding = r.get_u64();
  if (!get_matrix_i64(r, mb.verify) || mb.verify.size() != params_.n_isps)
    return false;
  if (!get_matrix_i64(r, mb.drift) || mb.drift.size() != params_.n_isps)
    return false;
  for (auto& row : mb.drift_streak)
    for (auto& v : row) v = r.get_u32();
  mb.persistent_drift_pairs = r.get_u64();

  const std::uint32_t n_peers = r.get_u32();
  if (!r.ok() || n_peers != bank_count()) return false;
  mb.colset_from.assign(bank_count(), false);
  mb.transfer_from.assign(bank_count(), false);
  mb.pair_netted.assign(bank_count(), false);
  mb.partial_net.assign(bank_count(), Money::zero());
  mb.peer_partial.assign(bank_count(), Money::zero());
  mb.clearing_pair.assign(bank_count(), Money::zero());
  for (std::size_t p = 0; p < bank_count(); ++p) {
    mb.colset_from[p] = get_bool(r);
    mb.transfer_from[p] = get_bool(r);
    mb.pair_netted[p] = get_bool(r);
    mb.partial_net[p] = Money::from_micros(r.get_i64());
    mb.peer_partial[p] = Money::from_micros(r.get_i64());
    mb.clearing_pair[p] = Money::from_micros(r.get_i64());
  }
  mb.verified = get_bool(r);
  mb.clearing_pos = Money::from_micros(r.get_i64());

  for (auto* ledger : {&mb.col_ledger, &mb.clr_ledger}) {
    const std::uint32_t n = r.get_u32();
    if (!r.ok() || n != bank_count()) return false;
    ledger->assign(n, PeerLedger{});
    for (PeerLedger& l : *ledger) {
      l.any_applied = get_bool(r);
      l.applied_hi = r.get_u64();
    }
  }
  for (auto* ledger : {&mb.buy_ledger, &mb.sell_ledger}) {
    const std::uint32_t n = r.get_u32();
    if (!r.ok() || n != params_.n_isps) return false;
    ledger->assign(n, TradeLedger{});
    for (TradeLedger& l : *ledger) {
      l.any_applied = get_bool(r);
      l.applied_hi = r.get_u64();
      l.last_nonce = crypto::get_nonce(r);
      l.last_reply = r.get_bytes();
    }
  }

  const std::uint32_t n_vio = r.get_u32();
  if (!r.ok() || n_vio > (1u << 20)) return false;
  mb.violations.assign(n_vio, CreditViolation{});
  for (auto& v : mb.violations) {
    v.isp_i = r.get_u64();
    v.isp_j = r.get_u64();
    v.discrepancy = r.get_i64();
  }

  BankMetrics& m = mb.metrics;
  BankMetrics::fields([&](const char*, auto p) {
    if constexpr (std::is_same_v<decltype(p), std::uint64_t BankMetrics::*>)
      m.*p = r.get_u64();
  });
  m.epennies_minted = r.get_i64();
  m.epennies_burned = r.get_i64();

  get_rng(r, mb.rng);
  if (!(r.ok() && r.at_end())) return false;
  rebuild_violations();
  return true;
}

void BankFederation::apply_wal_record(std::size_t bank, std::uint8_t op,
                                      std::span<const std::uint8_t> payload) {
  // Detach the WAL sink (no re-logging) and suppress wire emission: the
  // original execution already delivered those wires.  Everything else —
  // RNG draws, ledgers, metrics — re-executes verbatim, which is what
  // keeps the restored stream aligned with the peers.
  MemberBank& mb = banks_.at(bank);
  store::WalSink* saved_wal = mb.wal;
  const bool saved_replaying = replaying_;
  mb.wal = nullptr;
  replaying_ = true;
  crypto::ByteReader r(payload);
  switch (static_cast<WalOp>(op)) {
    case WalOp::kOnBuy: {
      const std::size_t g = r.get_u64();
      const auto wire = r.get_bytes_view();
      if (r.ok() && g < params_.n_isps && home_bank(g) == bank)
        on_buy(g, wire);
      break;
    }
    case WalOp::kOnSell: {
      const std::size_t g = r.get_u64();
      const auto wire = r.get_bytes_view();
      if (r.ok() && g < params_.n_isps && home_bank(g) == bank)
        on_sell(g, wire);
      break;
    }
    case WalOp::kStartRound:
      start_snapshot_for(bank);
      break;
    case WalOp::kOnReply: {
      const std::size_t g = r.get_u64();
      const auto wire = r.get_bytes_view();
      if (r.ok() && g < params_.n_isps && home_bank(g) == bank)
        on_reply(g, wire);
      break;
    }
    case WalOp::kOnInterbank: {
      const std::size_t from = r.get_u64();
      const std::uint8_t kind = r.get_u8();
      const auto wire = r.get_bytes_view();
      if (r.ok() && from < bank_count()) on_interbank(bank, from, kind, wire);
      break;
    }
    case WalOp::kNoteRetransmit: {
      const std::string type = r.get_string();
      if (r.ok() && !type.empty())
        note_retransmit(bank, net::MsgType::intern(type));
      break;
    }
  }
  mb.wal = saved_wal;
  replaying_ = saved_replaying;
}

}  // namespace zmail::core
