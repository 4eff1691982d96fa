#include "core/isp.hpp"

#include <gtest/gtest.h>

#include "core/federation.hpp"
#include "isp_image.hpp"

namespace zmail::core {
namespace {

ZmailParams small_params() {
  ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 4;
  p.default_daily_limit = 5;
  p.initial_user_balance = 10;
  p.initial_avail = 100;
  p.minavail = 50;
  p.maxavail = 200;
  return p;
}

net::EmailMessage mail(std::size_t fi, std::size_t fu, std::size_t ti,
                       std::size_t tu,
                       net::MailClass cls = net::MailClass::kLegitimate) {
  return net::make_email(net::make_user_address(fi, fu),
                         net::make_user_address(ti, tu), "s", "b", cls);
}

class IspTest : public ::testing::Test {
 protected:
  IspTest() : keys_(crypto::generate_keypair(key_rng_)) {}

  Rng key_rng_{101};
  crypto::KeyPair keys_;
  ZmailParams params_ = small_params();
  Isp isp_{0, params_, keys_.pub, 42};
};

// --- Section 4.1: sending -------------------------------------------------

TEST_F(IspTest, LocalSendMovesEPennyBetweenUsers) {
  EXPECT_EQ(isp_.user_send(0, 0, 1, mail(0, 0, 0, 1)),
            SendResult::kDeliveredLocally);
  EXPECT_EQ(isp_.user(0).balance, 9);
  EXPECT_EQ(isp_.user(1).balance, 11);
  EXPECT_EQ(isp_.user(0).sent, 1);
  EXPECT_TRUE(isp_.outbox_empty());
  ASSERT_EQ(isp_.inbox(1).size(), 1u);
  EXPECT_EQ(isp_.inbox(1)[0].paid, 1);
}

TEST_F(IspTest, RemoteCompliantSendChargesAndRecordsCredit) {
  EXPECT_EQ(isp_.user_send(0, 1, 2, mail(0, 0, 1, 2)), SendResult::kSentPaid);
  EXPECT_EQ(isp_.user(0).balance, 9);
  EXPECT_EQ(isp_.credit()[1], 1);
  const auto out = isp_.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dest, Outbound::Dest::kIsp);
  EXPECT_EQ(out[0].isp_index, 1u);
  EXPECT_EQ(out[0].type, kMsgEmail);
}

TEST_F(IspTest, SendToNonCompliantIsFree) {
  params_.compliant = {true, true, false};
  Isp isp(0, params_, keys_.pub, 42);
  EXPECT_EQ(isp.user_send(0, 2, 1, mail(0, 0, 2, 1)), SendResult::kSentFree);
  EXPECT_EQ(isp.user(0).balance, params_.initial_user_balance);  // unchanged
  EXPECT_EQ(isp.credit()[2], 0);
  EXPECT_EQ(isp.user(0).sent, 0);  // free mail is not limit-counted
}

TEST_F(IspTest, ZeroBalanceRefused) {
  isp_.user(0).balance = 0;
  EXPECT_EQ(isp_.user_send(0, 1, 0, mail(0, 0, 1, 0)),
            SendResult::kNoBalance);
  EXPECT_EQ(isp_.metrics().refused_no_balance, 1u);
  EXPECT_TRUE(isp_.outbox_empty());
  EXPECT_EQ(isp_.credit()[1], 0);
}

TEST_F(IspTest, DailyLimitRefusesAndWarnsOnce) {
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(isp_.user_send(0, 1, 0, mail(0, 0, 1, 0)),
              SendResult::kSentPaid);
  // Sixth paid send of the day trips the limit.
  EXPECT_EQ(isp_.user_send(0, 1, 0, mail(0, 0, 1, 0)),
            SendResult::kDailyLimit);
  EXPECT_EQ(isp_.metrics().refused_daily_limit, 1u);
  EXPECT_EQ(isp_.metrics().zombie_warnings_sent, 1u);
  EXPECT_EQ(isp_.user(0).warnings, 1);
  // The warning was delivered locally to the user's inbox, free.
  ASSERT_FALSE(isp_.inbox(0).empty());
  EXPECT_EQ(isp_.inbox(0).back().paid, 0);
  // Further refusals do not re-warn the same day.
  isp_.user_send(0, 1, 0, mail(0, 0, 1, 0));
  EXPECT_EQ(isp_.metrics().zombie_warnings_sent, 1u);
}

TEST_F(IspTest, EndOfDayResetsSentAndWarnings) {
  for (int i = 0; i < 6; ++i) isp_.user_send(0, 1, 0, mail(0, 0, 1, 0));
  EXPECT_EQ(isp_.user(0).sent, 5);
  isp_.end_of_day();
  EXPECT_EQ(isp_.user(0).sent, 0);
  EXPECT_EQ(isp_.user_send(0, 1, 0, mail(0, 0, 1, 0)),
            SendResult::kSentPaid);
}

TEST_F(IspTest, LocalSendRespectsLimitToo) {
  isp_.user(0).limit = 1;
  EXPECT_EQ(isp_.user_send(0, 0, 1, mail(0, 0, 0, 1)),
            SendResult::kDeliveredLocally);
  EXPECT_EQ(isp_.user_send(0, 0, 1, mail(0, 0, 0, 1)),
            SendResult::kDailyLimit);
}

// --- Section 4.1: receiving ------------------------------------------------

TEST_F(IspTest, ReceiveFromCompliantPaysRecipient) {
  isp_.on_email(1, mail(1, 3, 0, 2).serialize());
  EXPECT_EQ(isp_.user(2).balance, params_.initial_user_balance + 1);
  EXPECT_EQ(isp_.credit()[1], -1);
  EXPECT_EQ(isp_.metrics().emails_received_compliant, 1u);
  ASSERT_EQ(isp_.inbox(2).size(), 1u);
  EXPECT_EQ(isp_.inbox(2)[0].paid, 1);
}

TEST_F(IspTest, ReceiveFromNonCompliantPaysNothing) {
  params_.compliant = {true, true, false};
  Isp isp(0, params_, keys_.pub, 42);
  isp.on_email(2, mail(2, 0, 0, 1).serialize());
  EXPECT_EQ(isp.user(1).balance, params_.initial_user_balance);
  EXPECT_EQ(isp.credit()[2], 0);
  EXPECT_EQ(isp.metrics().emails_received_noncompliant, 1u);
  EXPECT_EQ(isp.inbox(1).size(), 1u);  // kAccept policy delivers
}

TEST_F(IspTest, SegregatePolicyMarksJunk) {
  params_.compliant = {true, true, false};
  params_.noncompliant_policy = NonCompliantPolicy::kSegregate;
  Isp isp(0, params_, keys_.pub, 42);
  isp.on_email(2, mail(2, 0, 0, 1).serialize());
  ASSERT_EQ(isp.inbox(1).size(), 1u);
  EXPECT_TRUE(isp.inbox(1)[0].junk);
  EXPECT_EQ(isp.metrics().emails_segregated, 1u);
}

TEST_F(IspTest, DiscardPolicyDropsMail) {
  params_.compliant = {true, true, false};
  params_.noncompliant_policy = NonCompliantPolicy::kDiscard;
  Isp isp(0, params_, keys_.pub, 42);
  isp.on_email(2, mail(2, 0, 0, 1).serialize());
  EXPECT_TRUE(isp.inbox(1).empty());
  EXPECT_EQ(isp.metrics().emails_discarded, 1u);
}

TEST_F(IspTest, FilterPolicyConsultsFilter) {
  params_.compliant = {true, true, false};
  params_.noncompliant_policy = NonCompliantPolicy::kFilter;
  Isp isp(0, params_, keys_.pub, 42);
  isp.set_filter([](const net::EmailMessage& m) {
    return m.truth == net::MailClass::kSpam;
  });
  isp.on_email(2, mail(2, 0, 0, 1, net::MailClass::kSpam).serialize());
  isp.on_email(2, mail(2, 0, 0, 1).serialize());
  EXPECT_EQ(isp.metrics().emails_filtered_out, 1u);
  EXPECT_EQ(isp.inbox(1).size(), 1u);
}

TEST_F(IspTest, PerUserPolicyOverridesIspDefault) {
  params_.compliant = {true, true, false};
  params_.noncompliant_policy = NonCompliantPolicy::kAccept;
  Isp isp(0, params_, keys_.pub, 42);
  // User 1 opts into discarding legacy mail; user 2 keeps the default.
  isp.users().set_policy_override(1, NonCompliantPolicy::kDiscard);
  isp.on_email(2, mail(2, 0, 0, 1).serialize());
  isp.on_email(2, mail(2, 0, 0, 2).serialize());
  EXPECT_TRUE(isp.inbox(1).empty());
  EXPECT_EQ(isp.inbox(2).size(), 1u);
  EXPECT_EQ(isp.metrics().emails_discarded, 1u);
}

TEST_F(IspTest, PerUserSegregationOverride) {
  params_.compliant = {true, true, false};
  params_.noncompliant_policy = NonCompliantPolicy::kDiscard;
  Isp isp(0, params_, keys_.pub, 42);
  // User 3 is more permissive than the ISP default.
  isp.users().set_policy_override(3, NonCompliantPolicy::kSegregate);
  isp.on_email(2, mail(2, 0, 0, 3).serialize());
  ASSERT_EQ(isp.inbox(3).size(), 1u);
  EXPECT_TRUE(isp.inbox(3)[0].junk);
}

TEST_F(IspTest, FilterPolicyFailsOpenWithoutFilter) {
  params_.compliant = {true, true, false};
  params_.noncompliant_policy = NonCompliantPolicy::kFilter;
  Isp isp(0, params_, keys_.pub, 42);
  isp.on_email(2, mail(2, 0, 0, 1, net::MailClass::kSpam).serialize());
  EXPECT_EQ(isp.inbox(1).size(), 1u);
}

TEST_F(IspTest, MalformedEmailPayloadCounted) {
  isp_.on_email(1, crypto::Bytes{0xDE, 0xAD});
  EXPECT_EQ(isp_.metrics().bad_envelopes, 1u);
}

TEST_F(IspTest, MisroutedRecipientRejected) {
  // Recipient belongs to ISP 1, delivered to ISP 0.
  isp_.on_email(1, mail(1, 0, 1, 2).serialize());
  EXPECT_EQ(isp_.metrics().bad_envelopes, 1u);
}

// --- Section 4.2: user trades ----------------------------------------------

TEST_F(IspTest, UserBuyMovesMoneyAndPennies) {
  ASSERT_TRUE(isp_.user_buy(0, 20));
  EXPECT_EQ(isp_.user(0).balance, 30);
  EXPECT_EQ(isp_.user(0).account,
            params_.initial_user_account - Money::from_epennies(20));
  EXPECT_EQ(isp_.avail(), 80);
  EXPECT_EQ(isp_.till(), Money::from_epennies(20));
}

TEST_F(IspTest, UserBuyRefusedWhenAccountShort) {
  isp_.user(0).account = Money::from_epennies(5);
  EXPECT_FALSE(isp_.user_buy(0, 10));
  EXPECT_EQ(isp_.user(0).balance, 10);
}

TEST_F(IspTest, UserBuyRefusedWhenPoolShort) {
  isp_.set_avail(3);
  EXPECT_FALSE(isp_.user_buy(0, 10));
}

TEST_F(IspTest, UserSellRoundTripsBuy) {
  ASSERT_TRUE(isp_.user_buy(0, 20));
  ASSERT_TRUE(isp_.user_sell(0, 20));
  EXPECT_EQ(isp_.user(0).balance, 10);
  EXPECT_EQ(isp_.user(0).account, params_.initial_user_account);
  EXPECT_EQ(isp_.avail(), 100);
  EXPECT_TRUE(isp_.till().is_zero());
}

TEST_F(IspTest, UserSellRefusedBeyondBalance) {
  EXPECT_FALSE(isp_.user_sell(0, 11));
  EXPECT_TRUE(isp_.user_sell(0, 10));
  EXPECT_EQ(isp_.user(0).balance, 0);
}

TEST_F(IspTest, NonPositiveTradesRejected) {
  EXPECT_FALSE(isp_.user_buy(0, 0));
  EXPECT_FALSE(isp_.user_buy(0, -5));
  EXPECT_FALSE(isp_.user_sell(0, 0));
}

// --- Section 4.3: bank trades ----------------------------------------------

class IspBankTest : public IspTest {
 protected:
  IspBankTest() : bank_(params_, {keys_}, 7) {}

  // Routes the ISP's outbox through the bank and returns replies delivered.
  void pump_through_bank(Isp& isp) {
    for (const Outbound& o : isp.take_outbox()) {
      ASSERT_EQ(o.dest, Outbound::Dest::kBank);
      if (o.type == kMsgBuy) {
        const crypto::Bytes reply = bank_.on_buy(isp.index(), o.payload);
        if (!reply.empty()) isp.on_buyreply(reply);
      } else if (o.type == kMsgSell) {
        const crypto::Bytes reply = bank_.on_sell(isp.index(), o.payload);
        if (!reply.empty()) isp.on_sellreply(reply);
      }
    }
  }

  BankFederation bank_;
};

TEST_F(IspBankTest, RefillsPoolWhenBelowMinavail) {
  isp_.set_avail(10);  // below minavail=50
  isp_.maybe_trade_with_bank();
  EXPECT_EQ(isp_.metrics().bank_buys_attempted, 1u);
  pump_through_bank(isp_);
  EXPECT_EQ(isp_.avail(), params_.maxavail);  // refilled to the upper bound
  EXPECT_EQ(isp_.metrics().bank_buys_accepted, 1u);
  EXPECT_EQ(bank_.account(0), params_.initial_isp_bank_account -
                                  Money::from_epennies(params_.maxavail - 10));
}

TEST_F(IspBankTest, SellsSurplusAboveMaxavail) {
  isp_.set_avail(300);  // above maxavail=200
  isp_.maybe_trade_with_bank();
  EXPECT_EQ(isp_.metrics().bank_sells, 1u);
  EXPECT_EQ(isp_.avail(), 200);  // reserved at initiation (race fix)
  pump_through_bank(isp_);
  EXPECT_EQ(isp_.avail(), 200);
  EXPECT_EQ(bank_.account(0), params_.initial_isp_bank_account +
                                  Money::from_epennies(100));
}

TEST_F(IspBankTest, NoTradeInsideBand) {
  isp_.set_avail(100);
  isp_.maybe_trade_with_bank();
  EXPECT_TRUE(isp_.outbox_empty());
}

TEST_F(IspBankTest, BuyRejectedWhenBankAccountShort) {
  bank_.set_account(0, Money::from_epennies(5));
  isp_.set_avail(10);
  isp_.maybe_trade_with_bank();
  pump_through_bank(isp_);
  EXPECT_EQ(isp_.avail(), 10);  // rejected: nothing credited
  EXPECT_EQ(isp_.metrics().bank_buys_accepted, 0u);
  EXPECT_EQ(bank_.metrics().buys_rejected, 1u);
  // canbuy was restored: another attempt goes out.
  isp_.maybe_trade_with_bank();
  EXPECT_EQ(isp_.metrics().bank_buys_attempted, 2u);
}

TEST_F(IspBankTest, ReplayedBuyReplyIgnored) {
  isp_.set_avail(10);
  isp_.maybe_trade_with_bank();
  crypto::Bytes reply;
  for (const Outbound& o : isp_.take_outbox())
    reply = bank_.on_buy(0, o.payload);
  ASSERT_FALSE(reply.empty());
  isp_.on_buyreply(reply);
  const EPenny after_first = isp_.avail();
  // Replay the same (validly sealed) reply: the nonce no longer matches.
  isp_.on_buyreply(reply);
  EXPECT_EQ(isp_.avail(), after_first);
  EXPECT_EQ(isp_.metrics().bad_nonce_replies, 1u);
}

TEST_F(IspBankTest, ReplayedSellReplyIgnored) {
  isp_.set_avail(300);
  isp_.maybe_trade_with_bank();
  crypto::Bytes reply;
  for (const Outbound& o : isp_.take_outbox())
    reply = bank_.on_sell(0, o.payload);
  ASSERT_FALSE(reply.empty());
  isp_.on_sellreply(reply);
  const EPenny after_first = isp_.avail();
  isp_.on_sellreply(reply);
  EXPECT_EQ(isp_.avail(), after_first);
  EXPECT_EQ(isp_.metrics().bad_nonce_replies, 1u);
}

TEST_F(IspBankTest, GarbageBuyReplyCounted) {
  isp_.on_buyreply(crypto::Bytes{1, 2, 3});
  EXPECT_EQ(isp_.metrics().bad_envelopes, 1u);
}

// --- Section 4.4: snapshot -------------------------------------------------

class IspSnapshotTest : public IspBankTest {
 protected:
  crypto::Bytes make_request(std::uint64_t seq) {
    return seal(keys_.priv, SnapshotRequest{seq}.serialize(), req_rng_);
  }
  Rng req_rng_{303};
};

TEST_F(IspSnapshotTest, RequestQuiescesAndTimeoutReports) {
  isp_.user_send(0, 1, 0, mail(0, 0, 1, 0));
  isp_.take_outbox();
  EXPECT_EQ(isp_.credit()[1], 1);

  isp_.on_request(make_request(0));
  EXPECT_TRUE(isp_.in_quiesce());
  EXPECT_FALSE(isp_.cansend());

  isp_.on_quiesce_timeout();
  EXPECT_FALSE(isp_.in_quiesce());
  EXPECT_TRUE(isp_.cansend());
  EXPECT_EQ(isp_.seq(), 1u);
  EXPECT_EQ(isp_.credit()[1], 0);  // reset for the new billing period

  const auto out = isp_.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, kMsgReply);
  const auto plain = unseal(keys_.priv, out[0].payload);
  ASSERT_TRUE(plain.has_value());
  const auto report = CreditReport::deserialize(*plain);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->seq, 0u);
  EXPECT_EQ(report->credit[1], 1);
}

TEST_F(IspSnapshotTest, StaleSeqIgnored) {
  isp_.on_request(make_request(5));
  EXPECT_FALSE(isp_.in_quiesce());
  EXPECT_TRUE(isp_.cansend());
  EXPECT_EQ(isp_.metrics().stale_requests, 1u);
}

TEST_F(IspSnapshotTest, ReplayedRequestIgnoredAfterRound) {
  const crypto::Bytes req = make_request(0);
  isp_.on_request(req);
  isp_.on_quiesce_timeout();
  isp_.take_outbox();
  // Replay of round-0 request: seq is now 1, so it must be ignored.
  isp_.on_request(req);
  EXPECT_FALSE(isp_.in_quiesce());
  EXPECT_EQ(isp_.metrics().stale_requests, 1u);
}

TEST_F(IspSnapshotTest, MailBuffersDuringQuiesceAndFlushesAfter) {
  isp_.on_request(make_request(0));
  EXPECT_EQ(isp_.user_send(0, 1, 0, mail(0, 0, 1, 0)),
            SendResult::kBuffered);
  // Payment committed immediately; transmission withheld.
  EXPECT_EQ(isp_.user(0).balance, 9);
  EXPECT_EQ(isp_.buffered_paid(), 1);
  EXPECT_EQ(isp_.credit()[1], 0);  // credit only at transmission
  EXPECT_TRUE(isp_.outbox_empty());

  isp_.on_quiesce_timeout();
  EXPECT_EQ(isp_.buffered_paid(), 0);
  EXPECT_EQ(isp_.credit()[1], 1);  // next billing period carries it
  const auto out = isp_.take_outbox();
  ASSERT_EQ(out.size(), 2u);  // reply to bank + the flushed email
  EXPECT_EQ(out[0].type, kMsgReply);
  EXPECT_EQ(out[1].type, kMsgEmail);
}

TEST_F(IspSnapshotTest, FullQuiesceBufferShedsAndRefunds) {
  params_.max_buffered_sends = 1;
  Isp isp(0, params_, keys_.pub, 42);
  const EPenny start = isp.epennies_held();
  isp.on_request(make_request(0));
  ASSERT_FALSE(isp.cansend());

  EXPECT_EQ(isp.user_send(0, 1, 0, mail(0, 0, 1, 0)), SendResult::kBuffered);
  // The second paid send finds the buffer full: shed, payment undone.
  EXPECT_EQ(isp.user_send(0, 1, 1, mail(0, 0, 1, 1)), SendResult::kShed);
  EXPECT_EQ(isp.user(0).balance, params_.initial_user_balance - 1);
  EXPECT_EQ(isp.user(0).sent, 1);
  EXPECT_EQ(isp.user(0).lifetime_sent, 1);

  // A list message's generated ack is shed too; its e-penny stays with the
  // recipient who just earned it.
  net::EmailMessage list = mail(1, 0, 0, 2, net::MailClass::kMailingList);
  list.set_header("X-Zmail-Ack-To", net::make_user_address(1, 0).str());
  isp.on_email(1, list.serialize());
  EXPECT_EQ(isp.user(2).balance, params_.initial_user_balance + 1);
  EXPECT_EQ(isp.metrics().acks_generated, 0u);
  EXPECT_EQ(isp.metrics().emails_shed, 2u);
  EXPECT_EQ(isp.buffered_paid(), 1);

  // Once the round closes, every e-penny that left the ISP's users is in
  // the credit it reported or in the new period's credit.
  isp.on_quiesce_timeout();
  const auto out = isp.take_outbox();
  ASSERT_EQ(out.size(), 2u);  // reply to bank + the one buffered email
  const auto plain = unseal(keys_.priv, out[0].payload);
  ASSERT_TRUE(plain.has_value());
  const auto report = CreditReport::deserialize(*plain);
  ASSERT_TRUE(report.has_value());
  EPenny credit = 0;
  for (const EPenny c : report->credit) credit += c;
  for (const EPenny c : isp.credit()) credit += c;
  EXPECT_EQ(isp.epennies_held() + credit, start);
}

TEST_F(IspSnapshotTest, LocalDeliveryStillWorksDuringQuiesce) {
  isp_.on_request(make_request(0));
  EXPECT_EQ(isp_.user_send(0, 0, 1, mail(0, 0, 0, 1)),
            SendResult::kDeliveredLocally);
  EXPECT_EQ(isp_.user(1).balance, 11);
}

TEST_F(IspSnapshotTest, QuiesceTimeoutWithoutRequestIsNoop) {
  isp_.on_quiesce_timeout();
  EXPECT_TRUE(isp_.outbox_empty());
  EXPECT_EQ(isp_.seq(), 0u);
}

// --- Section 5: acknowledgments --------------------------------------------

TEST_F(IspTest, MailingListMailTriggersAutoAck) {
  // A list message arrives from ISP 1 carrying the ack header pointing at a
  // distributor on ISP 1.
  net::EmailMessage msg = mail(1, 0, 0, 2, net::MailClass::kMailingList);
  msg.set_header("X-Zmail-Ack-To", net::make_user_address(1, 0).str());
  isp_.on_email(1, msg.serialize());

  // Recipient got the e-penny then immediately spent it on the ack.
  EXPECT_EQ(isp_.user(2).balance, params_.initial_user_balance);
  EXPECT_EQ(isp_.metrics().acks_generated, 1u);
  // Ack goes back to ISP 1 as a paid email (credit 1 out, 1 in => 0 net...
  // here: -1 from receipt, +1 from ack).
  EXPECT_EQ(isp_.credit()[1], 0);
  const auto out = isp_.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  const auto ack = net::EmailMessage::deserialize(out[0].payload);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->header("X-Zmail-Acknowledgment").has_value());
  EXPECT_EQ(ack->truth, net::MailClass::kAcknowledgment);
}

TEST_F(IspTest, AckNotGeneratedWhenDisabled) {
  params_.auto_acknowledge_lists = false;
  Isp isp(0, params_, keys_.pub, 42);
  net::EmailMessage msg = mail(1, 0, 0, 2, net::MailClass::kMailingList);
  msg.set_header("X-Zmail-Ack-To", net::make_user_address(1, 0).str());
  isp.on_email(1, msg.serialize());
  EXPECT_EQ(isp.metrics().acks_generated, 0u);
  EXPECT_EQ(isp.user(2).balance, params_.initial_user_balance + 1);
}

TEST_F(IspTest, IncomingAckIsAbsorbedNotDelivered) {
  net::EmailMessage ack = mail(1, 3, 0, 1, net::MailClass::kAcknowledgment);
  ack.set_header("X-Zmail-Acknowledgment", "1");
  isp_.on_email(1, ack.serialize());
  EXPECT_EQ(isp_.metrics().acks_received, 1u);
  EXPECT_TRUE(isp_.inbox(1).empty());          // processed automatically
  EXPECT_EQ(isp_.user(1).balance, 11);         // but the e-penny arrived
}

TEST_F(IspTest, AckSinkObservesAcks) {
  UserId observed_user = kInvalidUser;
  isp_.set_ack_sink([&](UserId u, const net::EmailMessage&) {
    observed_user = u;
  });
  net::EmailMessage ack = mail(1, 3, 0, 1, net::MailClass::kAcknowledgment);
  ack.set_header("X-Zmail-Acknowledgment", "1");
  isp_.on_email(1, ack.serialize());
  EXPECT_EQ(observed_user, UserId(1));
}

TEST_F(IspTest, LocalListDeliveryAlsoAcks) {
  // Distributor and subscriber on the same ISP.
  net::EmailMessage msg = mail(0, 0, 0, 1, net::MailClass::kMailingList);
  msg.set_header("X-Zmail-Ack-To", net::make_user_address(0, 0).str());
  EXPECT_EQ(isp_.user_send(0, 0, 1, msg), SendResult::kDeliveredLocally);
  // Distributor paid 1 to send, got 1 back via the local ack.
  EXPECT_EQ(isp_.user(0).balance, 10);
  EXPECT_EQ(isp_.user(1).balance, 10);
  EXPECT_EQ(isp_.metrics().acks_generated, 1u);
  EXPECT_EQ(isp_.metrics().acks_received, 1u);
}

TEST_F(IspTest, AcksDoNotCountAgainstTheDailyLimit) {
  // A user at their sending limit still acknowledges list mail: acks are
  // ISP-generated and bounded by mail *received*, not sent.
  isp_.user(2).limit = 0;
  net::EmailMessage msg = mail(1, 0, 0, 2, net::MailClass::kMailingList);
  msg.set_header("X-Zmail-Ack-To", net::make_user_address(1, 0).str());
  isp_.on_email(1, msg.serialize());
  EXPECT_EQ(isp_.metrics().acks_generated, 1u);
  EXPECT_EQ(isp_.user(2).sent, 0);
}

TEST_F(IspTest, MalformedAckToHeaderIsIgnored) {
  net::EmailMessage msg = mail(1, 0, 0, 2, net::MailClass::kMailingList);
  msg.set_header("X-Zmail-Ack-To", "not-an-address");
  isp_.on_email(1, msg.serialize());
  EXPECT_EQ(isp_.metrics().acks_generated, 0u);
  // The e-penny still arrived; the message was still delivered.
  EXPECT_EQ(isp_.user(2).balance, params_.initial_user_balance + 1);
  EXPECT_EQ(isp_.inbox(2).size(), 1u);
}

TEST_F(IspTest, AckToForeignDomainIgnored) {
  net::EmailMessage msg = mail(1, 0, 0, 2, net::MailClass::kMailingList);
  msg.set_header("X-Zmail-Ack-To", "list@gmail.example");  // not simulated
  isp_.on_email(1, msg.serialize());
  EXPECT_EQ(isp_.metrics().acks_generated, 0u);
}

TEST_F(IspTest, AckToOutOfRangeIspIgnored) {
  net::EmailMessage msg = mail(1, 0, 0, 2, net::MailClass::kMailingList);
  msg.set_header("X-Zmail-Ack-To", net::make_user_address(99, 0).str());
  isp_.on_email(1, msg.serialize());
  EXPECT_EQ(isp_.metrics().acks_generated, 0u);
  EXPECT_TRUE(isp_.outbox_empty());
}

// --- Misbehavior -----------------------------------------------------------

TEST_F(IspTest, FreeRideMisbehaviorSkipsAccounting) {
  isp_.set_misbehavior(Isp::Misbehavior::kFreeRide);
  EXPECT_EQ(isp_.user_send(0, 1, 0, mail(0, 0, 1, 0)),
            SendResult::kSentPaid);
  EXPECT_EQ(isp_.user(0).balance, 10);  // not charged
  EXPECT_EQ(isp_.credit()[1], 0);       // no credit entry
  EXPECT_EQ(isp_.take_outbox().size(), 1u);  // mail still goes out
}

// --- Quarantine (Section 5 extension) ---------------------------------------

TEST_F(IspTest, QuarantineAfterRepeatedWarnings) {
  params_.quarantine_after_warnings = 2;
  params_.initial_user_balance = 100;  // the limit binds before the funds
  Isp isp(0, params_, keys_.pub, 42);
  // Day 1: hit the limit -> warning 1.
  for (int i = 0; i < 6; ++i) isp.user_send(0, 1, 0, mail(0, 0, 1, 0));
  EXPECT_EQ(isp.user(0).warnings, 1);
  EXPECT_FALSE(isp.user(0).quarantined);
  isp.end_of_day();
  // Day 2: again -> warning 2 -> quarantined.
  for (int i = 0; i < 6; ++i) isp.user_send(0, 1, 0, mail(0, 0, 1, 0));
  EXPECT_EQ(isp.user(0).warnings, 2);
  EXPECT_TRUE(isp.user(0).quarantined);
  // The quarantine survives the daily reset, unlike the limit block.
  isp.end_of_day();
  EXPECT_EQ(isp.user_send(0, 1, 0, mail(0, 0, 1, 0)),
            SendResult::kQuarantined);
  EXPECT_EQ(isp.user_send(0, 0, 1, mail(0, 0, 0, 1)),
            SendResult::kQuarantined);  // local sends blocked too
}

TEST_F(IspTest, ReleaseLiftsQuarantine) {
  params_.quarantine_after_warnings = 1;
  Isp isp(0, params_, keys_.pub, 42);
  for (int i = 0; i < 6; ++i) isp.user_send(0, 1, 0, mail(0, 0, 1, 0));
  ASSERT_TRUE(isp.user(0).quarantined);
  isp.release_user(0);
  isp.end_of_day();
  EXPECT_EQ(isp.user_send(0, 1, 0, mail(0, 0, 1, 0)),
            SendResult::kSentPaid);
  EXPECT_EQ(isp.user(0).warnings, 0);
}

TEST_F(IspTest, QuarantineDisabledByDefault) {
  isp_.user(0).balance = 100;  // the limit binds before the funds
  for (int day = 0; day < 3; ++day) {
    for (int i = 0; i < 6; ++i) isp_.user_send(0, 1, 0, mail(0, 0, 1, 0));
    isp_.end_of_day();
  }
  EXPECT_FALSE(isp_.user(0).quarantined);
  EXPECT_EQ(isp_.user(0).warnings, 3);
}

// --- Conservation helper ---------------------------------------------------

TEST_F(IspTest, EPenniesHeldSumsUsersAndPool) {
  EXPECT_EQ(isp_.epennies_held(),
            params_.initial_avail +
                4 * params_.initial_user_balance);
  isp_.user_buy(0, 10);  // internal move: total unchanged
  EXPECT_EQ(isp_.epennies_held(),
            params_.initial_avail + 4 * params_.initial_user_balance);
}

// The telemetry held gauge reads avail + users_balance(); every path that
// moves an e-penny between a user and anything else keeps that running
// total equal to a scan of the balance column.
TEST_F(IspTest, HeldGaugeTotalMatchesTheColumnThroughMixedTraffic) {
  params_.max_buffered_sends = 2;
  params_.default_daily_limit = 3;
  Isp isp(0, params_, keys_.pub, 42);
  const auto check = [&](const char* step) {
    EPenny column = 0;
    for (const EPenny b : isp.users().balances()) column += b;
    EXPECT_EQ(isp.users_balance(), column) << step;
    EXPECT_EQ(isp.avail() + isp.users_balance(), isp.epennies_held()) << step;
  };
  check("fresh");
  isp.user_send(0, 0, 1, mail(0, 0, 0, 1));
  check("local send");
  isp.user_send(1, 1, 2, mail(0, 1, 1, 2));
  check("remote send");
  isp.on_email(1, mail(1, 3, 0, 2).serialize());
  check("paid receive");
  net::EmailMessage list = mail(1, 0, 0, 3, net::MailClass::kMailingList);
  list.set_header("X-Zmail-Ack-To", net::make_user_address(0, 1).str());
  isp.on_email(1, list.serialize());
  check("list receive with a local ack");
  list.set_header("X-Zmail-Ack-To", net::make_user_address(1, 0).str());
  isp.on_email(1, list.serialize());
  check("list receive with a remote ack");
  ASSERT_TRUE(isp.user_buy(2, 5));
  ASSERT_TRUE(isp.user_sell(3, 4));
  check("buy and sell");
  isp.refund_lost_email(1, 1, true);
  check("refund");
  for (int i = 0; i < 4; ++i) isp.user_send(2, 1, 0, mail(0, 2, 1, 0));
  check("daily limit");

  isp.force_cansend(false);
  EXPECT_EQ(isp.user_send(0, 1, 0, mail(0, 0, 1, 0)), SendResult::kBuffered);
  check("buffered send");
  isp.on_email(1, list.serialize());
  check("buffered ack");
  EXPECT_EQ(isp.user_send(1, 1, 0, mail(0, 1, 1, 0)), SendResult::kShed);
  check("shed send");
  isp.on_email(1, list.serialize());
  check("shed ack");
  EXPECT_EQ(isp.buffered_paid(), 2);
  EXPECT_EQ(isp.metrics().emails_shed, 2u);
}

TEST(SendResultNames, AllDistinct) {
  EXPECT_STREQ(send_result_name(SendResult::kSentPaid), "sent-paid");
  EXPECT_STREQ(send_result_name(SendResult::kBuffered), "buffered");
  EXPECT_STREQ(send_result_name(SendResult::kNoBalance), "no-balance");
  EXPECT_STREQ(send_result_name(SendResult::kDailyLimit), "daily-limit");
}

// --- Receive path: message and wire overloads ------------------------------

// Keeps every WAL append in memory.
class RecordingWal : public store::WalSink {
 public:
  void append(std::uint8_t type,
              std::span<const std::uint8_t> payload) override {
    records.emplace_back(type, crypto::Bytes(payload.begin(), payload.end()));
  }
  std::vector<std::pair<std::uint8_t, crypto::Bytes>> records;
};

TEST_F(IspTest, LoggedUserSendCarriesTheOutboxBytes) {
  // The kUserSend record serializes the message once; the outbox payload
  // is copied from those bytes, so both equal msg.serialize(), and the
  // outbox matches an ISP without a WAL.
  Isp plain{0, params_, keys_.pub, 42};
  RecordingWal wal;
  isp_.attach_wal(&wal);
  struct Send {
    UserId from;
    std::size_t dest;
    UserId to;
    net::EmailMessage msg;
  };
  std::vector<Send> sends;
  sends.push_back({0, 1, 2, mail(0, 0, 1, 2)});
  sends.push_back({1, 2, 3, mail(0, 1, 2, 3, net::MailClass::kSpam)});
  sends.back().msg.trace_id = 9;  // serialized as the optional tail
  sends.push_back({2, 0, 3, mail(0, 2, 0, 3)});  // local: no outbox entry
  for (const Send& s : sends)
    EXPECT_EQ(isp_.user_send(s.from, s.dest, s.to, s.msg),
              plain.user_send(s.from, s.dest, s.to, s.msg));
  const auto out = isp_.take_outbox();
  const auto out_plain = plain.take_outbox();
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out_plain.size(), 2u);
  ASSERT_EQ(wal.records.size(), 3u);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const crypto::Bytes want = sends[k].msg.serialize();
    EXPECT_EQ(out[k].payload, want);
    EXPECT_EQ(out_plain[k].payload, want);
    const auto& [type, payload] = wal.records[k];
    EXPECT_EQ(type, static_cast<std::uint8_t>(Isp::WalOp::kUserSend));
    crypto::ByteReader r(payload);
    r.get_u64();
    r.get_u64();
    r.get_u64();
    EXPECT_EQ(r.get_bytes(), want);
    EXPECT_TRUE(r.ok() && r.at_end());
  }
  EXPECT_EQ(isp_image(isp_), isp_image(plain));
}

TEST_F(IspTest, InboxesAreKeptOnlyWhenRecorded) {
  ZmailParams p = params_;
  p.record_inboxes = false;
  Isp counting{0, p, keys_.pub, 42};
  ASSERT_EQ(counting.user_send(0, 0, 1, mail(0, 0, 0, 1)),
            SendResult::kDeliveredLocally);
  EXPECT_TRUE(counting.inbox(1).empty());
  EXPECT_EQ(counting.metrics().emails_delivered, 1u);
  counting.clear_inbox(1);

  // A restore builds the table for an ISP that records, and none for one
  // that does not.
  crypto::Bytes scalars;
  store::SnapshotData snap;
  counting.serialize_sections(scalars, snap.sections);
  Isp recording{0, params_, keys_.pub, 1};
  ASSERT_TRUE(recording.restore_snapshot(snap));
  ASSERT_EQ(recording.user_send(0, 0, 1, mail(0, 0, 0, 1)),
            SendResult::kDeliveredLocally);
  EXPECT_EQ(recording.inbox(1).size(), 1u);
  Isp counting_again{0, p, keys_.pub, 1};
  ASSERT_TRUE(counting_again.restore_snapshot(snap));
  ASSERT_EQ(counting_again.user_send(0, 0, 1, mail(0, 0, 0, 1)),
            SendResult::kDeliveredLocally);
  EXPECT_TRUE(counting_again.inbox(1).empty());
}

TEST_F(IspTest, OnEmailMessageAndWireOverloadsAreEquivalent) {
  // The SMTP layer hands Isp the parsed message; WAL replay and older
  // callers hand it the serialized wire.  Both must leave the same state
  // and write byte-identical kOnEmail records.
  std::vector<std::pair<std::size_t, net::EmailMessage>> inputs;
  inputs.emplace_back(1, mail(1, 3, 0, 2));
  inputs.emplace_back(2, mail(2, 0, 0, 1, net::MailClass::kSpam));
  inputs.emplace_back(1, mail(1, 0, 1, 2));  // misrouted: bad envelope
  {
    net::EmailMessage traced = mail(1, 1, 0, 3);
    traced.trace_id = 77;  // serialized as the optional tail
    inputs.emplace_back(1, std::move(traced));
  }
  {
    net::EmailMessage list = mail(1, 0, 0, 2, net::MailClass::kMailingList);
    list.set_header("X-Zmail-Ack-To", net::make_user_address(1, 0).str());
    inputs.emplace_back(1, std::move(list));
  }

  Isp by_msg{0, params_, keys_.pub, 42};
  Isp by_wire{0, params_, keys_.pub, 42};
  const crypto::Bytes initial = isp_image(by_msg);
  RecordingWal wal_msg, wal_wire;
  by_msg.attach_wal(&wal_msg);
  by_wire.attach_wal(&wal_wire);
  for (const auto& [from, m] : inputs) {
    by_msg.on_email(from, m);
    by_wire.on_email(from, m.serialize());
  }

  EXPECT_EQ(isp_image(by_msg), isp_image(by_wire));
  EXPECT_EQ(by_msg.metrics().bad_envelopes, 1u);
  for (std::size_t u = 0; u < params_.users_per_isp; ++u) {
    const auto& a = by_msg.inbox(UserId(u));
    const auto& b = by_wire.inbox(UserId(u));
    ASSERT_EQ(a.size(), b.size()) << "user " << u;
    for (std::size_t k = 0; k < a.size(); ++k)
      EXPECT_EQ(a[k].msg.serialize(), b[k].msg.serialize());
  }
  const auto out_msg = by_msg.take_outbox();
  const auto out_wire = by_wire.take_outbox();
  ASSERT_EQ(out_msg.size(), out_wire.size());
  for (std::size_t k = 0; k < out_msg.size(); ++k)
    EXPECT_EQ(out_msg[k].payload, out_wire[k].payload);

  ASSERT_EQ(wal_msg.records.size(), inputs.size());
  EXPECT_EQ(wal_msg.records, wal_wire.records);
  for (const auto& [type, payload] : wal_msg.records)
    EXPECT_EQ(type, static_cast<std::uint8_t>(Isp::WalOp::kOnEmail));

  // Replaying the log from the initial state restores the same ISP.
  Isp replayed{0, params_, keys_.pub, 42};
  ASSERT_EQ(isp_image(replayed), initial);
  for (const auto& [type, payload] : wal_msg.records)
    replayed.apply_wal_record(type, payload);
  EXPECT_EQ(isp_image(replayed), isp_image(by_msg));
}

}  // namespace
}  // namespace zmail::core
