#include "core/federation.hpp"

#include <gtest/gtest.h>

#include "core/isp.hpp"
#include "interbank_wire_queue.hpp"

namespace zmail::core {
namespace {

ZmailParams fed_params(std::size_t n = 6) {
  ZmailParams p;
  p.n_isps = n;
  p.users_per_isp = 2;
  return p;
}

std::vector<crypto::KeyPair> bank_keys(std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<crypto::KeyPair> keys;
  for (std::size_t b = 0; b < k; ++b)
    keys.push_back(crypto::generate_keypair(rng));
  return keys;
}

// A federation of `k` member banks over `p` (whose n_banks it sets); `p`
// must outlive the federation.
BankFederation make_federation(ZmailParams& p, std::size_t k,
                               std::uint64_t seed) {
  p.n_banks = k;
  return BankFederation(p, bank_keys(k, seed), seed);
}

class FederationTest : public ::testing::Test {
 protected:
  // A federation whose inter-bank wires go to the fixture's queue.
  BankFederation make(std::size_t k, std::uint64_t seed) {
    BankFederation fed = make_federation(params_, k, seed);
    wires_.attach(fed);
    return fed;
  }

  std::vector<Isp> make_isps(const BankFederation& fed,
                             std::uint64_t seed) const {
    std::vector<Isp> isps;
    isps.reserve(params_.n_isps);
    for (std::size_t i = 0; i < params_.n_isps; ++i)
      isps.emplace_back(i, params_, fed.public_key_for(i), seed + i);
    return isps;
  }

  // `k` emails from user 0 of ISP a to user 0 of ISP b, delivered.
  static void mail_between(std::vector<Isp>& isps, std::size_t a,
                           std::size_t b, int k) {
    for (int m = 0; m < k; ++m)
      isps[a].user_send(0, b, 0,
                        net::make_email(net::make_user_address(a, 0),
                                        net::make_user_address(b, 0), "s",
                                        "b"));
    for (const Outbound& o : isps[a].take_outbox())
      isps[b].on_email(a, o.payload);
  }

  // Drives ISP `isp` through one bank trade (buy below minavail, sell
  // above maxavail).
  static void trade(BankFederation& fed, Isp& isp, EPenny avail) {
    isp.set_avail(avail);
    isp.maybe_trade_with_bank();
    for (const Outbound& o : isp.take_outbox()) {
      if (o.type == kMsgBuy)
        isp.on_buyreply(fed.on_buy(isp.index(), o.payload));
      if (o.type == kMsgSell)
        isp.on_sellreply(fed.on_sell(isp.index(), o.payload));
    }
  }

  // Drives a full snapshot round through real Isp state machines that seal
  // to their home banks' keys, then the inter-bank plane to quiescence.
  void run_round(BankFederation& fed, std::vector<Isp>& isps) {
    for (auto& [idx, wire] : fed.start_snapshot()) {
      isps[idx].on_request(wire);
      isps[idx].on_quiesce_timeout();
      for (const Outbound& o : isps[idx].take_outbox())
        if (o.type == kMsgReply) fed.on_reply(idx, o.payload);
    }
    wires_.drain(fed);
  }

  ZmailParams params_ = fed_params();
  InterbankWireQueue wires_;
};

TEST_F(FederationTest, HomeBankAssignmentIsRoundRobin) {
  BankFederation fed = make(3, 1);
  EXPECT_EQ(fed.home_bank(0), 0u);
  EXPECT_EQ(fed.home_bank(1), 1u);
  EXPECT_EQ(fed.home_bank(2), 2u);
  EXPECT_EQ(fed.home_bank(3), 0u);
  EXPECT_EQ(fed.bank_count(), 3u);
}

TEST_F(FederationTest, BanksHaveDistinctKeys) {
  BankFederation fed = make(3, 3);
  EXPECT_NE(fed.public_key_for(0).n, fed.public_key_for(1).n);
  EXPECT_NE(fed.public_key_for(1).n, fed.public_key_for(2).n);
  EXPECT_EQ(fed.public_key_for(4).n, fed.public_key_for(1).n);  // 4 % 3 == 1
}

TEST_F(FederationTest, BuySellRoutedToHomeBank) {
  BankFederation fed = make(2, 4);
  ZmailParams p2 = params_;
  p2.minavail = 50;
  p2.maxavail = 200;
  Isp isp2(3, p2, fed.public_key_for(3), 7);  // home bank 1
  isp2.set_avail(10);
  isp2.maybe_trade_with_bank();
  crypto::Bytes reply;
  for (const Outbound& o : isp2.take_outbox())
    reply = fed.on_buy(3, o.payload);
  ASSERT_FALSE(reply.empty());
  isp2.on_buyreply(reply);
  EXPECT_EQ(isp2.avail(), 200);
  EXPECT_EQ(fed.account(3), params_.initial_isp_bank_account -
                                    Money::from_epennies(190));
  EXPECT_EQ(fed.metrics().epennies_minted, 190);
}

TEST_F(FederationTest, BuySealedToWrongBankRejected) {
  BankFederation fed = make(2, 5);
  ZmailParams p2 = params_;
  p2.minavail = 50;
  // ISP 3's home bank is 1, but it seals to bank 0's key.
  Isp wrong(3, p2, fed.public_key_for(0), 8);
  wrong.set_avail(10);
  wrong.maybe_trade_with_bank();
  for (const Outbound& o : wrong.take_outbox())
    EXPECT_TRUE(fed.on_buy(3, o.payload).empty());
}

TEST_F(FederationTest, CleanRoundAcrossBanks) {
  BankFederation fed = make(3, 6);
  std::vector<Isp> isps;
  isps.reserve(params_.n_isps);
  for (std::size_t i = 0; i < params_.n_isps; ++i)
    isps.emplace_back(i, params_, fed.public_key_for(i), 100 + i);

  // Cross-bank mail: 0 (bank0) -> 1 (bank1) x3; 1 -> 5 (bank2) x2.
  for (int k = 0; k < 3; ++k)
    isps[0].user_send(0, 1, 0, net::make_email(net::make_user_address(0, 0),
                                               net::make_user_address(1, 0),
                                               "s", "b"));
  for (const Outbound& o : isps[0].take_outbox())
    isps[1].on_email(0, o.payload);
  for (int k = 0; k < 2; ++k)
    isps[1].user_send(0, 5, 0, net::make_email(net::make_user_address(1, 0),
                                               net::make_user_address(5, 0),
                                               "s", "b"));
  for (const Outbound& o : isps[1].take_outbox())
    isps[5].on_email(1, o.payload);

  run_round(fed, isps);
  EXPECT_FALSE(fed.round_open());
  EXPECT_TRUE(fed.last_violations().empty());
  EXPECT_EQ(fed.metrics().snapshot_rounds, 1u);
  EXPECT_EQ(fed.seq(), 1u);

  // Settlement: 0 paid 1 three e-pennies; 1 paid 5 two.
  EXPECT_EQ(fed.account(0),
            params_.initial_isp_bank_account - Money::from_epennies(3));
  EXPECT_EQ(fed.account(1),
            params_.initial_isp_bank_account + Money::from_epennies(1));
  EXPECT_EQ(fed.account(5),
            params_.initial_isp_bank_account + Money::from_epennies(2));
  EXPECT_EQ(fed.metrics().settlements_cross_bank, 2u);
  EXPECT_EQ(fed.metrics().settlement_transfers, 2u);  // none intra-bank
}

TEST_F(FederationTest, ClearingPositionsNetToZero) {
  BankFederation fed = make(3, 7);
  std::vector<Isp> isps;
  for (std::size_t i = 0; i < params_.n_isps; ++i)
    isps.emplace_back(i, params_, fed.public_key_for(i), 200 + i);
  // A messy flow pattern.
  auto mail_between = [&](std::size_t a, std::size_t b, int k) {
    for (int m = 0; m < k; ++m) {
      isps[a].user_send(0, b, 0,
                        net::make_email(net::make_user_address(a, 0),
                                        net::make_user_address(b, 0), "s",
                                        "b"));
    }
    for (const Outbound& o : isps[a].take_outbox())
      isps[b].on_email(a, o.payload);
  };
  mail_between(0, 4, 5);
  mail_between(4, 2, 3);
  mail_between(2, 0, 1);
  mail_between(1, 3, 7);

  run_round(fed, isps);
  EXPECT_TRUE(fed.last_violations().empty());
  Money net = Money::zero();
  for (std::size_t b = 0; b < 3; ++b) net += fed.clearing_position(b);
  EXPECT_TRUE(net.is_zero());
  EXPECT_GT(fed.metrics().clearing_transfers, 0u);
}

TEST_F(FederationTest, CrossBankCheatDetected) {
  BankFederation fed = make(2, 8);
  std::vector<Isp> isps;
  for (std::size_t i = 0; i < params_.n_isps; ++i)
    isps.emplace_back(i, params_, fed.public_key_for(i), 300 + i);
  isps[0].set_misbehavior(Isp::Misbehavior::kFreeRide);
  // 0 (bank 0) free-rides mail to 1 (bank 1).
  for (int k = 0; k < 4; ++k)
    isps[0].user_send(0, 1, 0, net::make_email(net::make_user_address(0, 0),
                                               net::make_user_address(1, 0),
                                               "s", "b"));
  for (const Outbound& o : isps[0].take_outbox())
    isps[1].on_email(0, o.payload);

  run_round(fed, isps);
  ASSERT_EQ(fed.last_violations().size(), 1u);
  EXPECT_EQ(fed.last_violations()[0].isp_i, 0u);
  EXPECT_EQ(fed.last_violations()[0].isp_j, 1u);
  EXPECT_EQ(fed.last_violations()[0].discrepancy, -4);
  // The disputed pair is not settled.
  EXPECT_EQ(fed.account(1), params_.initial_isp_bank_account);
}

TEST_F(FederationTest, InterbankTrafficScalesWithBanks) {
  std::uint64_t msgs2 = 0, msgs4 = 0;
  for (std::size_t n_banks : {2u, 4u}) {
    ZmailParams p = fed_params(8);
    BankFederation fed = make_federation(p, n_banks, 9);
    InterbankWireQueue wires;
    wires.attach(fed);
    std::vector<Isp> isps;
    for (std::size_t i = 0; i < p.n_isps; ++i)
      isps.emplace_back(i, p, fed.public_key_for(i), 400 + i);
    std::vector<Isp>& ref = isps;
    for (auto& [idx, wire] : fed.start_snapshot()) {
      ref[idx].on_request(wire);
      ref[idx].on_quiesce_timeout();
      for (const Outbound& o : ref[idx].take_outbox())
        if (o.type == kMsgReply) fed.on_reply(idx, o.payload);
    }
    // interbank_bytes counts the sealed column wires the sink received.
    std::uint64_t column_bytes = 0;
    for (const InterbankWire& w : wires.drain(fed))
      if (w.kind == static_cast<std::uint8_t>(BankFederation::FedMsg::kColumns))
        column_bytes += w.wire.size();
    EXPECT_FALSE(fed.round_open());
    EXPECT_GT(column_bytes, 0u);
    EXPECT_EQ(fed.metrics().interbank_bytes, column_bytes);
    if (n_banks == 2) msgs2 = fed.metrics().interbank_messages;
    if (n_banks == 4) msgs4 = fed.metrics().interbank_messages;
  }
  EXPECT_EQ(msgs2, 2u);   // 2 * 1
  EXPECT_EQ(msgs4, 12u);  // 4 * 3
}

TEST_F(FederationTest, PartialComplianceSkipsLegacyIsps) {
  ZmailParams p = fed_params(6);
  p.compliant = {true, true, false, true, false, true};
  BankFederation fed = make_federation(p, 2, 11);
  InterbankWireQueue wires;
  wires.attach(fed);
  std::vector<Isp> isps;
  for (std::size_t i = 0; i < p.n_isps; ++i)
    isps.emplace_back(i, p, fed.public_key_for(i), 600 + i);
  const auto requests = fed.start_snapshot();
  EXPECT_EQ(requests.size(), 4u);  // only the compliant four
  for (auto& [idx, wire] : requests) {
    isps[idx].on_request(wire);
    isps[idx].on_quiesce_timeout();
    for (const Outbound& o : isps[idx].take_outbox())
      if (o.type == kMsgReply) fed.on_reply(idx, o.payload);
  }
  wires.drain(fed);
  EXPECT_FALSE(fed.round_open());
  EXPECT_TRUE(fed.last_violations().empty());
}

TEST_F(FederationTest, GarbageWireIgnoredEverywhere) {
  BankFederation fed = make(2, 12);
  EXPECT_TRUE(fed.on_buy(0, crypto::Bytes{1, 2, 3}).empty());
  EXPECT_TRUE(fed.on_sell(1, {}).empty());
  fed.start_snapshot();
  fed.on_reply(0, crypto::Bytes{0xFF, 0xEE});
  EXPECT_TRUE(fed.round_open());  // nothing counted
}

TEST_F(FederationTest, StaleAndDuplicateRepliesIgnored) {
  BankFederation fed = make(2, 10);
  std::vector<Isp> isps;
  for (std::size_t i = 0; i < params_.n_isps; ++i)
    isps.emplace_back(i, params_, fed.public_key_for(i), 500 + i);

  auto requests = fed.start_snapshot();
  // ISP 0 replies twice (duplicate); others once.
  crypto::Bytes first_report;
  for (auto& [idx, wire] : requests) {
    isps[idx].on_request(wire);
    isps[idx].on_quiesce_timeout();
    for (const Outbound& o : isps[idx].take_outbox()) {
      if (o.type != kMsgReply) continue;
      fed.on_reply(idx, o.payload);
      if (idx == 0) first_report = o.payload;
    }
  }
  wires_.drain(fed);
  EXPECT_FALSE(fed.round_open());
  const std::uint64_t reports = fed.metrics().credit_reports_received;
  fed.on_reply(0, first_report);  // replay after the round closed
  EXPECT_EQ(fed.metrics().credit_reports_received, reports);
  EXPECT_EQ(fed.metrics().snapshot_rounds, 1u);
}

// --- Member banks carry the whole central-bank contract ---------------------

TEST_F(FederationTest, DuplicateAndOutOfRoundReportsCountStale) {
  BankFederation fed = make(2, 13);
  std::vector<Isp> isps = make_isps(fed, 700);
  Rng rng(14);
  auto report = [&](std::size_t g, std::uint64_t seq) {
    return seal(fed.public_key_for(g),
                CreditReport{seq, std::vector<EPenny>(params_.n_isps, 0)}
                    .serialize(),
                rng);
  };
  fed.on_reply(1, report(1, 0));  // no round open yet
  EXPECT_EQ(fed.metrics(1).stale_reports, 1u);
  fed.start_snapshot();
  fed.on_reply(1, report(1, 0));
  fed.on_reply(1, report(1, 0));  // duplicate within the round
  fed.on_reply(3, report(3, 7));  // wrong round
  EXPECT_EQ(fed.metrics(1).stale_reports, 3u);
  EXPECT_EQ(fed.metrics(1).credit_reports_received, 1u);
  EXPECT_EQ(fed.metrics(0).stale_reports, 0u);
  EXPECT_EQ(fed.metrics().stale_reports, 3u);
}

TEST_F(FederationTest, WrongSizeCreditVectorCountsBadEnvelope) {
  BankFederation fed = make(2, 15);
  Rng rng(16);
  fed.start_snapshot();
  fed.on_reply(1, seal(fed.public_key_for(1),
                       CreditReport{0, {0, 0}}.serialize(), rng));
  EXPECT_EQ(fed.metrics(1).bad_envelopes, 1u);
  EXPECT_EQ(fed.metrics(1).credit_reports_received, 0u);
  EXPECT_TRUE(fed.round_open(1));
}

TEST_F(FederationTest, EveryMemberBankJournals) {
  BankFederation fed = make(2, 17);
  AuditJournal journal;
  fed.attach_journal(&journal);
  std::vector<Isp> isps = make_isps(fed, 800);
  trade(fed, isps[0], 10);       // bank 0 mints
  trade(fed, isps[1], 10);       // bank 1 mints
  trade(fed, isps[2], 20'000);   // bank 0 burns
  trade(fed, isps[3], 20'000);   // bank 1 burns
  isps[5].set_misbehavior(Isp::Misbehavior::kFreeRide);
  mail_between(isps, 0, 2, 3);  // pair (0,2) owned and settled by bank 0
  mail_between(isps, 1, 3, 2);  // pair (1,3) owned and settled by bank 1
  mail_between(isps, 5, 0, 1);  // pair (0,5) flagged by bank 0
  mail_between(isps, 5, 1, 1);  // pair (1,5) flagged by bank 1
  run_round(fed, isps);

  auto has = [&](AuditKind kind, std::size_t a, std::size_t b) {
    for (const AuditEvent& e : journal.events())
      if (e.kind == kind && e.a == a && e.b == b) return true;
    return false;
  };
  EXPECT_TRUE(has(AuditKind::kMint, 0, 0));
  EXPECT_TRUE(has(AuditKind::kMint, 1, 0));
  EXPECT_TRUE(has(AuditKind::kBurn, 2, 0));
  EXPECT_TRUE(has(AuditKind::kBurn, 3, 0));
  EXPECT_TRUE(has(AuditKind::kSettlement, 0, 2));
  EXPECT_TRUE(has(AuditKind::kSettlement, 1, 3));
  EXPECT_TRUE(has(AuditKind::kViolationFlagged, 0, 5));
  EXPECT_TRUE(has(AuditKind::kViolationFlagged, 1, 5));
  EXPECT_EQ(journal.count(AuditKind::kRoundCompleted), 2u);  // one per bank
  EXPECT_EQ(journal.net_minted(), fed.epennies_outstanding());
  EXPECT_EQ(journal.settlement_volume(), 5);
}

TEST_F(FederationTest, FreeRidingCrossBankPairKeepsDriftStreak) {
  BankFederation fed = make(2, 19);
  std::vector<Isp> isps = make_isps(fed, 900);
  isps[0].set_misbehavior(Isp::Misbehavior::kFreeRide);
  mail_between(isps, 0, 1, 2);  // bank 0's member free-rides into bank 1
  run_round(fed, isps);
  EXPECT_EQ(fed.metrics().inconsistent_pairs_found, 1u);
  EXPECT_EQ(fed.persistent_drift_pairs(), 0u);  // one round could be skew
  mail_between(isps, 0, 1, 1);
  run_round(fed, isps);
  EXPECT_EQ(fed.persistent_drift_pairs(), 1u);  // two rounds cannot
  run_round(fed, isps);
  EXPECT_EQ(fed.persistent_drift_pairs(), 1u);  // counted once per episode
}

}  // namespace
}  // namespace zmail::core
