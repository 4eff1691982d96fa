// Zero-sum invariants under failure: the InvariantAuditor, the bank's
// idempotent trade ledger and the ISP's retry/backoff machinery.  Whole
// worlds under faults are the rows of core_chaos_test.
#include "core/invariants.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/federation.hpp"
#include "core/isp.hpp"
#include "core/system.hpp"
#include "net/address.hpp"

namespace zmail::core {
namespace {

ZmailParams small_params() {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 2;
  p.initial_user_balance = 50;
  p.default_daily_limit = 100;
  p.initial_avail = 100;
  p.minavail = 50;
  p.maxavail = 200;
  return p;
}

net::EmailMessage mail(std::size_t fi, std::size_t fu, std::size_t ti,
                       std::size_t tu) {
  return net::make_email(net::make_user_address(fi, fu),
                         net::make_user_address(ti, tu), "s", "b",
                         net::MailClass::kLegitimate);
}

std::string first_message(const InvariantAuditor& aud) {
  return aud.report().messages.empty() ? "" : aud.report().messages.front();
}

TEST(InvariantAuditorTest, CleanTimedRunAuditsGreen) {
  ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 4;
  p.initial_user_balance = 1'000;
  p.default_daily_limit = 10'000;
  p.record_inboxes = false;
  ZmailSystem sys(p, 21);
  sys.enable_bank_trading();

  InvariantAuditor auditor(sys);
  auditor.run_continuously(sim::kMinute);

  Rng rng(22);
  for (int i = 0; i < 60; ++i) {
    const std::size_t src = rng.next_below(p.n_isps);
    const std::size_t dst = (src + 1) % p.n_isps;
    sys.send_email(net::make_user_address(src, rng.next_below(p.users_per_isp)),
                   net::make_user_address(dst, rng.next_below(p.users_per_isp)),
                   "t", std::string("b").append(std::to_string(i)));
    sys.run_for(sim::kMinute);
  }
  sys.start_snapshot();
  sys.run_for(sim::kHour);

  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok()) << first_message(auditor);
  EXPECT_GT(auditor.report().checks, 60u);
  EXPECT_EQ(auditor.report().replays_absorbed, 0u);
}

TEST(InvariantAuditorTest, IspAdoptingZmailJoinsTheRealMoneyBaseline) {
  ZmailParams p = small_params();
  p.n_isps = 3;
  p.compliant = {true, true, false};
  ZmailSystem sys(p, 23);
  InvariantAuditor auditor(sys);
  sys.send_email(net::make_user_address(0, 0), net::make_user_address(1, 1),
                 "t", "b");
  sys.run_for(sim::kMinute);
  sys.make_compliant(2);  // its users' fresh accounts enter the books
  sys.send_email(net::make_user_address(2, 0), net::make_user_address(0, 1),
                 "t", "b");
  sys.run_for(sim::kMinute);
  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok()) << first_message(auditor);
}

TEST(InvariantAuditorTest, TradeTotalsThatDriftFromTheColumnsAreFlagged) {
  ZmailSystem sys(small_params(), 24);
  InvariantAuditor auditor(sys);
  ASSERT_TRUE(sys.buy_epennies(net::make_user_address(0, 0), 5));
  ASSERT_TRUE(sys.sell_epennies(net::make_user_address(0, 1), 2));
  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok()) << first_message(auditor);
  // A column write that bypasses user_sell leaves the running total stale.
  sys.isp(0).user(1).lifetime_epennies_sold += 1;
  auditor.check_now();
  EXPECT_FALSE(auditor.report().ok());
  EXPECT_NE(first_message(auditor).find("running trade totals"),
            std::string::npos)
      << first_message(auditor);
}

TEST(InvariantAuditorTest, BalanceTotalThatDriftsFromTheColumnIsFlagged) {
  ZmailSystem sys(small_params(), 25);
  InvariantAuditor auditor(sys);
  sys.send_email(net::make_user_address(0, 0), net::make_user_address(1, 1),
                 "t", "b");
  sys.run_for(sim::kMinute);
  auditor.check_now();
  EXPECT_TRUE(auditor.report().ok()) << first_message(auditor);
  // A balance written straight into the column bypasses Isp::add_balance,
  // so the running total the held gauge reads is stale.
  sys.isp(1).users().at(0).balance += 3;
  auditor.check_now();
  const auto& msgs = auditor.report().messages;
  EXPECT_NE(std::find_if(msgs.begin(), msgs.end(),
                         [](const std::string& m) {
                           return m.find("running balance total drifted") !=
                                  std::string::npos;
                         }),
            msgs.end())
      << first_message(auditor);
}

TEST(BankIdempotencyTest, DuplicatedBuyMintsOnceAndReplaysTheReply) {
  Rng rng(101);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const ZmailParams p = small_params();
  Isp isp(0, p, keys.pub, 7);
  BankFederation bank(p, {keys}, 8);

  isp.set_avail(10);  // below minavail: triggers a buy of 190
  isp.maybe_trade_with_bank();
  crypto::Bytes wire;
  for (const auto& o : isp.take_outbox()) wire = o.payload;
  ASSERT_FALSE(wire.empty());

  const crypto::Bytes r1 = bank.on_buy(0, wire);
  const crypto::Bytes r2 = bank.on_buy(0, wire);  // network duplicate
  EXPECT_EQ(r1, r2);  // the cached sealed reply is replayed byte-for-byte
  EXPECT_EQ(bank.metrics().duplicate_buys, 1u);
  EXPECT_EQ(bank.metrics().epennies_minted, 190);  // once, not twice

  isp.on_buyreply(r1);
  EXPECT_EQ(isp.avail(), 200);
  isp.on_buyreply(r2);  // duplicate reply: nonce already consumed
  EXPECT_EQ(isp.avail(), 200);
  EXPECT_EQ(isp.metrics().bad_nonce_replies, 1u);
}

TEST(BankIdempotencyTest, OutOfDateTradeWireIsDropped) {
  Rng rng(102);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const ZmailParams p = small_params();
  Isp isp(0, p, keys.pub, 9);
  BankFederation bank(p, {keys}, 10);

  isp.set_avail(10);
  isp.maybe_trade_with_bank();
  crypto::Bytes wire1;
  for (const auto& o : isp.take_outbox()) wire1 = o.payload;
  isp.on_buyreply(bank.on_buy(0, wire1));

  isp.set_avail(10);  // a second, newer buy
  isp.maybe_trade_with_bank();
  crypto::Bytes wire2;
  for (const auto& o : isp.take_outbox()) wire2 = o.payload;
  isp.on_buyreply(bank.on_buy(0, wire2));
  const EPenny minted = bank.metrics().epennies_minted;

  // A straggler copy of the *older* wire must be dropped, not re-applied
  // and not answered from the (newer) cache.
  EXPECT_TRUE(bank.on_buy(0, wire1).empty());
  EXPECT_EQ(bank.metrics().stale_trades, 1u);
  EXPECT_EQ(bank.metrics().epennies_minted, minted);
}

// Drives one complete snapshot round at the unit level (no network).
void run_round(BankFederation& bank, Isp& isp0, Isp& isp1,
               std::vector<Outbound>* mail_out = nullptr) {
  auto requests = bank.start_snapshot();
  for (auto& [idx, wire] : requests) (idx == 0 ? isp0 : isp1).on_request(wire);
  isp0.on_quiesce_timeout();
  isp1.on_quiesce_timeout();
  for (auto& o : isp0.take_outbox()) {
    if (o.type == kMsgReply)
      bank.on_reply(0, o.payload);
    else if (mail_out)
      mail_out->push_back(std::move(o));
  }
  for (auto& o : isp1.take_outbox())
    if (o.type == kMsgReply) bank.on_reply(1, o.payload);
}

TEST(PersistentDriftTest, SingleRoundSkewSelfCancels) {
  Rng rng(104);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const ZmailParams p = small_params();
  Isp isp0(0, p, keys.pub, 13);
  Isp isp1(1, p, keys.pub, 14);
  BankFederation bank(p, {keys}, 15);

  // isp0 pays for a send whose delivery straggles past the next round: the
  // +1 is reported this round, the -1 only in the following one.
  EXPECT_EQ(isp0.user_send(0, 1, 0, mail(0, 0, 1, 0)), SendResult::kSentPaid);
  crypto::Bytes in_flight;
  for (const auto& o : isp0.take_outbox()) in_flight = o.payload;

  run_round(bank, isp0, isp1);
  EXPECT_EQ(bank.metrics().inconsistent_pairs_found, 1u);
  EXPECT_EQ(bank.persistent_drift_pairs(), 0u);  // streak of one round

  isp1.on_email(0, in_flight);  // the straggler lands: -1 in the new epoch
  run_round(bank, isp0, isp1);
  EXPECT_EQ(bank.metrics().inconsistent_pairs_found, 2u);
  EXPECT_EQ(bank.persistent_drift_pairs(), 0u);  // drift netted to zero

  run_round(bank, isp0, isp1);  // and stays clean from here on
  EXPECT_EQ(bank.metrics().inconsistent_pairs_found, 2u);
  EXPECT_EQ(bank.persistent_drift_pairs(), 0u);
}

TEST(PersistentDriftTest, FreeRidingPairStaysFlagged) {
  Rng rng(105);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const ZmailParams p = small_params();
  Isp isp0(0, p, keys.pub, 16);
  Isp isp1(1, p, keys.pub, 17);
  BankFederation bank(p, {keys}, 18);
  isp0.set_misbehavior(Isp::Misbehavior::kFreeRide);

  const auto cheat_once = [&] {
    isp0.user_send(0, 1, 0, mail(0, 0, 1, 0));
    for (const auto& o : isp0.take_outbox())
      if (o.type == kMsgEmail) isp1.on_email(0, o.payload);
  };

  cheat_once();
  run_round(bank, isp0, isp1);
  EXPECT_EQ(bank.persistent_drift_pairs(), 0u);  // one round could be skew

  cheat_once();
  run_round(bank, isp0, isp1);
  EXPECT_EQ(bank.persistent_drift_pairs(), 1u);  // two rounds cannot

  cheat_once();
  run_round(bank, isp0, isp1);
  EXPECT_EQ(bank.persistent_drift_pairs(), 1u);  // counted once per episode
}

}  // namespace
}  // namespace zmail::core
