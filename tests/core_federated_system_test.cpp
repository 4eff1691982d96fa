#include "core/system.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/invariants.hpp"

namespace zmail::core {
namespace {

net::EmailAddress user(std::size_t i, std::size_t u) {
  return net::make_user_address(i, u);
}

ZmailParams fed_params(std::size_t n_banks) {
  ZmailParams p;
  p.n_isps = 6;
  p.n_banks = n_banks;
  p.users_per_isp = 3;
  p.initial_user_balance = 30;
  p.minavail = 100;
  p.maxavail = 1'000;
  p.initial_avail = 500;
  return p;
}

TEST(FederatedSystem, MailFlowsAcrossBankBoundaries) {
  ZmailSystem sys(fed_params(3), 1);
  // ISP 0 (bank 0) -> ISP 1 (bank 1), ISP 4 (bank 1) -> ISP 5 (bank 2).
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "x", "b"),
            SendResult::kSentPaid);
  EXPECT_EQ(sys.send_email(user(4, 0), user(5, 0), "y", "b"),
            SendResult::kSentPaid);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(1).user(0).balance, 31);
  EXPECT_EQ(sys.isp(5).user(0).balance, 31);
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(FederatedSystem, TradesGoToTheHomeBankOverTheNetwork) {
  ZmailParams p = fed_params(3);
  p.initial_avail = 120;  // near minavail: the first purchase triggers a buy
  ZmailSystem sys(p, 2);
  sys.enable_bank_trading(sim::kMinute);
  sys.buy_epennies(user(4, 0), 30);  // ISP 4's pool drops to 90 < 100
  sys.run_for(10 * sim::kMinute);
  EXPECT_EQ(sys.isp(4).avail(), 1'000);  // refilled to maxavail
  // The home bank (4 % 3 == 1) paid out of ISP 4's account.
  EXPECT_LT(sys.bank().account(4), kInitialIspBankAccount);
  EXPECT_GT(sys.bank().metrics().epennies_minted, 0);
  EXPECT_TRUE(sys.conservation_holds());
  EXPECT_GT(sys.network().bytes_sent_to(sys.bank_host(1)), 0u);
}

TEST(FederatedSystem, SnapshotRoundSettlesAcrossBanks) {
  ZmailSystem sys(fed_params(2), 3);
  for (int k = 0; k < 4; ++k)
    sys.send_email(user(0, 0), user(1, 0), "s", "b");  // bank0 -> bank1
  sys.run_for(sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);

  EXPECT_FALSE(sys.bank().round_open());
  EXPECT_TRUE(sys.bank().last_violations().empty());
  EXPECT_EQ(sys.bank().metrics().snapshot_rounds, 1u);
  EXPECT_EQ(sys.bank().account(0),
            kInitialIspBankAccount - Money::from_epennies(4));
  EXPECT_EQ(sys.bank().account(1),
            kInitialIspBankAccount + Money::from_epennies(4));
  EXPECT_EQ(sys.bank().metrics().settlements_cross_bank, 1u);
  EXPECT_EQ(sys.bank().metrics().clearing_transfers, 1u);
  // Clearing nets to zero across the federation.
  Money net = Money::zero();
  for (std::size_t b = 0; b < 2; ++b) net += sys.bank().clearing_position(b);
  EXPECT_TRUE(net.is_zero());
}

TEST(FederatedSystem, CheatDetectionStillWorksEndToEnd) {
  ZmailSystem sys(fed_params(3), 4);
  sys.isp(2).set_misbehavior(Isp::Misbehavior::kFreeRide);
  for (int k = 0; k < 3; ++k)
    sys.send_email(user(2, 0), user(3, 0), "s", "b");
  sys.run_for(sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  ASSERT_EQ(sys.bank().last_violations().size(), 1u);
  EXPECT_EQ(sys.bank().last_violations()[0].isp_i, 2u);
  EXPECT_EQ(sys.bank().last_violations()[0].isp_j, 3u);
}

TEST(FederatedSystem, QuiesceBuffersAcrossTheRound) {
  ZmailSystem sys(fed_params(2), 5);
  sys.start_snapshot();
  sys.run_for(sim::kMinute);
  ASSERT_TRUE(sys.isp(0).in_quiesce());
  EXPECT_EQ(sys.send_email(user(0, 0), user(1, 0), "held", "b"),
            SendResult::kBuffered);
  sys.run_for(15 * sim::kMinute);
  EXPECT_EQ(sys.isp(1).user(0).balance,
            fed_params(2).initial_user_balance + 1);
  EXPECT_TRUE(sys.conservation_holds());
}

// The inter-bank plane rides the network in every world: every column
// exchange and clearing transfer is a datagram between bank hosts, and the
// round closes on them alone.  With retries off the wires travel bare;
// with retries on each wire of the round, requests and reports included,
// is a frame on the acknowledged link and draws exactly one ack.
TEST(FederatedSystem, InterbankWiresAreDatagramsAndTheLinkAcksEach) {
  for (const bool retry : {false, true}) {
    SCOPED_TRACE(retry ? "retries on" : "retries off");
    ZmailParams p = fed_params(2);
    p.retry.enabled = retry;
    ASSERT_FALSE(p.store.enabled);
    ZmailSystem sys(p, 8);
    InvariantAuditor auditor(sys);
    auditor.run_continuously(5 * sim::kMinute);
    sys.send_email(user(0, 0), user(1, 0), "s", "b");  // bank0 -> bank1
    sys.run_for(sim::kHour);

    const std::uint64_t before = sys.network().datagrams_sent();
    sys.start_snapshot();
    sys.run_for(30 * sim::kMinute);
    // One request and one report per ISP; per ordered bank pair a columns
    // wire and a clearing transfer.
    const std::uint64_t k = p.n_banks;
    const std::uint64_t wires = 2 * p.n_isps + 2 * k * (k - 1);
    EXPECT_EQ(sys.network().datagrams_sent() - before,
              retry ? 2 * wires : wires);
    EXPECT_EQ(sys.link().stats().frames, retry ? wires : 0u);
    EXPECT_EQ(sys.link().stats().acks, retry ? wires : 0u);
    EXPECT_EQ(sys.link().stats().retransmits, 0u);
    EXPECT_EQ(sys.pending_transfers(), 0u);
    EXPECT_EQ(sys.bank().metrics().interbank_messages, k * (k - 1));
    EXPECT_FALSE(sys.bank().round_open());
    EXPECT_EQ(sys.bank().metrics().snapshot_rounds, 1u);
    EXPECT_EQ(sys.bank().metrics().settlements_cross_bank, 1u);
    auditor.check_now();
    EXPECT_TRUE(auditor.report().ok())
        << (auditor.report().messages.empty()
                ? ""
                : auditor.report().messages.front());
  }
}

}  // namespace
}  // namespace zmail::core
