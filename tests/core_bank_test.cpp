#include "core/federation.hpp"

#include <gtest/gtest.h>

#include "core/isp.hpp"

namespace zmail::core {
namespace {

ZmailParams params4() {
  ZmailParams p;
  p.n_isps = 4;
  p.users_per_isp = 2;
  return p;
}

class BankTest : public ::testing::Test {
 protected:
  BankTest()
      : keys_(crypto::generate_keypair(rng_)), bank_(params_, {keys_}, 5) {}

  // Builds a sealed CreditReport as isp g would send it.
  crypto::Bytes sealed_report(std::uint64_t seq, std::vector<EPenny> credit) {
    return seal(keys_.pub, CreditReport{seq, std::move(credit)}.serialize(),
                rng_);
  }

  Rng rng_{500};
  ZmailParams params_ = params4();
  crypto::KeyPair keys_;
  BankFederation bank_;
};

TEST_F(BankTest, BuyDebitsAccountAndMints) {
  crypto::NonceGenerator nnc(1);
  const BuyRequest req{100, nnc.next()};
  const crypto::Bytes reply_wire =
      bank_.on_buy(2, seal(keys_.pub, req.serialize(), rng_));
  ASSERT_FALSE(reply_wire.empty());
  EXPECT_EQ(bank_.account(2),
            params_.initial_isp_bank_account - Money::from_epennies(100));
  EXPECT_EQ(bank_.metrics().epennies_minted, 100);
  const auto plain = unseal(keys_.pub, reply_wire);
  ASSERT_TRUE(plain.has_value());
  const auto reply = BuyReply::deserialize(*plain);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->accepted);
  EXPECT_EQ(reply->nonce, req.nonce);
}

TEST_F(BankTest, BuyRejectedWhenShortButStillReplies) {
  bank_.set_account(1, Money::from_epennies(10));
  crypto::NonceGenerator nnc(2);
  const BuyRequest req{100, nnc.next()};
  const crypto::Bytes reply_wire =
      bank_.on_buy(1, seal(keys_.pub, req.serialize(), rng_));
  const auto reply = BuyReply::deserialize(*unseal(keys_.pub, reply_wire));
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->accepted);
  EXPECT_EQ(bank_.account(1), Money::from_epennies(10));  // untouched
  EXPECT_EQ(bank_.metrics().buys_rejected, 1u);
}

TEST_F(BankTest, SellCreditsAccountAndBurns) {
  crypto::NonceGenerator nnc(3);
  const SellRequest req{40, nnc.next()};
  const crypto::Bytes reply_wire =
      bank_.on_sell(0, seal(keys_.pub, req.serialize(), rng_));
  ASSERT_FALSE(reply_wire.empty());
  EXPECT_EQ(bank_.account(0),
            params_.initial_isp_bank_account + Money::from_epennies(40));
  EXPECT_EQ(bank_.metrics().epennies_burned, 40);
  EXPECT_EQ(bank_.epennies_outstanding(), -40);
}

TEST_F(BankTest, MalformedBuyIgnored) {
  EXPECT_TRUE(bank_.on_buy(0, crypto::Bytes{1, 2, 3}).empty());
  EXPECT_EQ(bank_.metrics().bad_envelopes, 1u);
}

TEST_F(BankTest, NonPositiveBuyValueRejected) {
  crypto::NonceGenerator nnc(4);
  const BuyRequest req{0, nnc.next()};
  EXPECT_TRUE(bank_.on_buy(0, seal(keys_.pub, req.serialize(), rng_)).empty());
  EXPECT_EQ(bank_.metrics().bad_envelopes, 1u);
}

TEST_F(BankTest, SnapshotSendsOneRequestPerCompliantIsp) {
  const auto reqs = bank_.start_snapshot();
  EXPECT_EQ(reqs.size(), 4u);
  EXPECT_TRUE(bank_.round_open());
  // A second call while the round is open yields nothing.
  EXPECT_TRUE(bank_.start_snapshot().empty());
}

TEST_F(BankTest, SnapshotSkipsNonCompliant) {
  params_.compliant = {true, false, true, false};
  BankFederation bank(params_, {keys_}, 5);
  const auto reqs = bank.start_snapshot();
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].first, 0u);
  EXPECT_EQ(reqs[1].first, 2u);
}

TEST_F(BankTest, ConsistentRoundFindsNoViolations) {
  bank_.start_snapshot();
  // Flow: isp0 -> isp1 net 5; all other pairs zero.
  bank_.on_reply(0, sealed_report(0, {0, 5, 0, 0}));
  bank_.on_reply(1, sealed_report(0, {-5, 0, 0, 0}));
  bank_.on_reply(2, sealed_report(0, {0, 0, 0, 0}));
  bank_.on_reply(3, sealed_report(0, {0, 0, 0, 0}));
  EXPECT_FALSE(bank_.round_open());
  EXPECT_TRUE(bank_.last_violations().empty());
  EXPECT_EQ(bank_.seq(), 1u);
  EXPECT_EQ(bank_.metrics().snapshot_rounds, 1u);
}

TEST_F(BankTest, SettlementMovesRealMoneyAlongNetFlow) {
  bank_.start_snapshot();
  bank_.on_reply(0, sealed_report(0, {0, 5, 0, 0}));
  bank_.on_reply(1, sealed_report(0, {-5, 0, 0, 0}));
  bank_.on_reply(2, sealed_report(0, {0, 0, 0, 0}));
  bank_.on_reply(3, sealed_report(0, {0, 0, 0, 0}));
  // isp0's users paid isp1's users 5 e-pennies; real money follows.
  EXPECT_EQ(bank_.account(0),
            params_.initial_isp_bank_account - Money::from_epennies(5));
  EXPECT_EQ(bank_.account(1),
            params_.initial_isp_bank_account + Money::from_epennies(5));
  EXPECT_EQ(bank_.metrics().settlement_transfers, 1u);
}

TEST_F(BankTest, InconsistentPairFlaggedAndNotSettled) {
  bank_.start_snapshot();
  // isp0 claims +5 toward isp1, but isp1 claims -3: discrepancy 2.
  bank_.on_reply(0, sealed_report(0, {0, 5, 0, 0}));
  bank_.on_reply(1, sealed_report(0, {-3, 0, 0, 0}));
  bank_.on_reply(2, sealed_report(0, {0, 0, 0, 0}));
  bank_.on_reply(3, sealed_report(0, {0, 0, 0, 0}));
  ASSERT_EQ(bank_.last_violations().size(), 1u);
  EXPECT_EQ(bank_.last_violations()[0].isp_i, 0u);
  EXPECT_EQ(bank_.last_violations()[0].isp_j, 1u);
  EXPECT_EQ(bank_.last_violations()[0].discrepancy, 2);
  // No settlement across the disputed pair.
  EXPECT_EQ(bank_.account(0), params_.initial_isp_bank_account);
  EXPECT_EQ(bank_.account(1), params_.initial_isp_bank_account);
}

TEST_F(BankTest, DuplicateReportWithinRoundIgnored) {
  bank_.start_snapshot();
  bank_.on_reply(0, sealed_report(0, {0, 1, 0, 0}));
  bank_.on_reply(0, sealed_report(0, {0, 9, 0, 0}));  // replay/duplicate
  EXPECT_EQ(bank_.metrics().stale_reports, 1u);
  bank_.on_reply(1, sealed_report(0, {-1, 0, 0, 0}));
  bank_.on_reply(2, sealed_report(0, {0, 0, 0, 0}));
  bank_.on_reply(3, sealed_report(0, {0, 0, 0, 0}));
  EXPECT_TRUE(bank_.last_violations().empty());  // first report won
}

TEST_F(BankTest, WrongSeqReportIgnored) {
  bank_.start_snapshot();
  bank_.on_reply(0, sealed_report(9, {0, 0, 0, 0}));
  EXPECT_EQ(bank_.metrics().stale_reports, 1u);
  EXPECT_TRUE(bank_.round_open());
}

TEST_F(BankTest, ReportOutsideRoundIgnored) {
  bank_.on_reply(0, sealed_report(0, {0, 0, 0, 0}));
  EXPECT_EQ(bank_.metrics().stale_reports, 1u);
}

TEST_F(BankTest, WrongSizeCreditVectorRejected) {
  bank_.start_snapshot();
  bank_.on_reply(0, sealed_report(0, {0, 0}));
  EXPECT_EQ(bank_.metrics().bad_envelopes, 1u);
}

TEST_F(BankTest, SecondRoundUsesNextSeq) {
  bank_.start_snapshot();
  for (std::size_t g = 0; g < 4; ++g)
    bank_.on_reply(g, sealed_report(0, {0, 0, 0, 0}));
  EXPECT_EQ(bank_.seq(), 1u);
  const auto reqs = bank_.start_snapshot();
  ASSERT_EQ(reqs.size(), 4u);
  // The new requests carry seq 1: an ISP at seq 1 accepts them.
  const auto plain = unseal(keys_.pub, reqs[0].second);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(SnapshotRequest::deserialize(*plain)->seq, 1u);
}

TEST_F(BankTest, ThreeWayCyclicFlowConsistentAndSettled) {
  bank_.start_snapshot();
  // 0 -> 1 -> 2 -> 0, 7 each.
  bank_.on_reply(0, sealed_report(0, {0, 7, -7, 0}));
  bank_.on_reply(1, sealed_report(0, {-7, 0, 7, 0}));
  bank_.on_reply(2, sealed_report(0, {7, -7, 0, 0}));
  bank_.on_reply(3, sealed_report(0, {0, 0, 0, 0}));
  EXPECT_TRUE(bank_.last_violations().empty());
  // Cyclic flow nets to zero per ISP.
  for (std::size_t g = 0; g < 3; ++g)
    EXPECT_EQ(bank_.account(g), params_.initial_isp_bank_account) << g;
  EXPECT_EQ(bank_.metrics().settlement_transfers, 3u);
}

}  // namespace
}  // namespace zmail::core
