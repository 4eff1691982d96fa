// End-to-end property tests: a full Zmail deployment under mixed workloads,
// checked against the paper's global invariants after every run.
#include <gtest/gtest.h>

#include "core/mailing_list.hpp"
#include "core/system.hpp"
#include "workload/corpus.hpp"
#include "workload/traffic.hpp"

namespace zmail::core {
namespace {

net::EmailAddress user(std::size_t i, std::size_t u) {
  return net::make_user_address(i, u);
}

ZmailParams world_params() {
  ZmailParams p;
  p.n_isps = 4;
  p.users_per_isp = 8;
  p.initial_user_balance = 200;
  p.default_daily_limit = 500;
  p.initial_avail = 2'000;
  p.minavail = 500;
  p.maxavail = 5'000;
  return p;
}

// A seeded week of life: traffic, user trades, bank trades, daily resets,
// periodic snapshots.  Afterwards every invariant must hold.
class FullWeekTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FullWeekTest, InvariantsSurviveAWeekOfTraffic) {
  const std::uint64_t seed = GetParam();
  ZmailSystem sys(world_params(), seed);
  sys.enable_daily_resets();
  sys.enable_bank_trading(30 * sim::kMinute);
  sys.enable_periodic_snapshots(sim::kDay);

  workload::CorpusGenerator corpus(workload::CorpusParams{},
                                   Rng(seed ^ 0xC0));
  workload::TrafficParams tp;
  tp.mean_sends_per_user_day = 6.0;
  workload::TrafficGenerator traffic(sys, tp, corpus, Rng(seed ^ 0x7A));
  traffic.build_contacts();

  Rng trade_rng(seed ^ 0x7E);
  for (int day = 0; day < 7; ++day) {
    traffic.schedule_day();
    // A few user trades sprinkled in.
    for (int k = 0; k < 10; ++k) {
      const auto i = trade_rng.next_below(4);
      const auto u = trade_rng.next_below(8);
      if (trade_rng.bernoulli(0.5))
        sys.buy_epennies(user(i, u), trade_rng.uniform_int(1, 30));
      else
        sys.sell_epennies(user(i, u), trade_rng.uniform_int(1, 30));
    }
    sys.run_for(sim::kDay);
  }
  sys.run_for(sim::kHour);  // drain stragglers

  // Conservation of e-pennies and of real money.
  EXPECT_EQ(sys.epennies_in_flight(), 0);
  EXPECT_TRUE(sys.conservation_holds());
  const Money expected_money =
      kInitialIspBankAccount * std::int64_t{4} +
      kInitialUserAccount * std::int64_t{32};
  EXPECT_EQ(sys.total_real_money(), expected_money);

  // Snapshot rounds completed and found an honest world.
  EXPECT_GE(sys.bank().metrics().snapshot_rounds, 5u);
  EXPECT_TRUE(sys.bank().last_violations().empty());
  EXPECT_EQ(sys.bank().metrics().inconsistent_pairs_found, 0u);

  // Mail volume flowed.
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < 4; ++i)
    delivered += sys.isp(i).metrics().emails_delivered;
  EXPECT_GT(delivered, 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullWeekTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Integration, ZeroSumForBalancedUsersOverAMonth) {
  // The paper's claim 2: users who receive as much as they send neither pay
  // nor profit.  Build a perfectly balanced ring of senders and check every
  // balance returns to its starting point.
  ZmailParams p = world_params();
  ZmailSystem sys(p, 99);
  sys.enable_daily_resets();
  for (int day = 0; day < 30; ++day) {
    // Each user sends one message to the "next" user across ISPs.
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t u = 0; u < 8; ++u)
        sys.send_email(user(i, u), user((i + 1) % 4, u), "daily", "note");
    sys.run_for(sim::kDay);
  }
  sys.run_for(sim::kHour);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t u = 0; u < 8; ++u)
      EXPECT_EQ(sys.isp(i).user(u).balance, p.initial_user_balance)
          << "isp " << i << " user " << u;
}

TEST(Integration, SpammerDrainsOwnBalanceIntoVictims) {
  ZmailParams p = world_params();
  ZmailSystem sys(p, 100);
  workload::CorpusGenerator corpus(workload::CorpusParams{}, Rng(101));
  workload::SpamCampaignParams cp;
  cp.messages = 500;
  Rng rng(102);
  const auto result = workload::run_spam_campaign(sys, cp, corpus, rng);
  sys.run_for(sim::kHour);

  // The spammer paid for every accepted message (some of the random
  // recipients are the spammer itself, which pays that e-penny right back).
  const auto spammer = sys.isp(0).user(0);
  EXPECT_EQ(spammer.balance, p.initial_user_balance - spammer.lifetime_sent +
                                 spammer.lifetime_received_paid);
  EXPECT_EQ(spammer.lifetime_sent, static_cast<std::int64_t>(result.sent));
  // ...and the victims were compensated exactly (zero-sum).
  EXPECT_TRUE(sys.conservation_holds());
  // Campaign mostly refused once the balance ran dry.
  EXPECT_GT(result.refused_balance, 0u);
}

TEST(Integration, SnapshotDuringHeavyTrafficStaysConsistent) {
  ZmailParams p = world_params();
  ZmailSystem sys(p, 103);
  workload::CorpusGenerator corpus(workload::CorpusParams{}, Rng(104));
  workload::TrafficGenerator traffic(sys, workload::TrafficParams{}, corpus,
                                     Rng(105));
  traffic.build_contacts();
  traffic.schedule_day();
  // Fire snapshots into the middle of the day's traffic.
  sys.simulator().schedule_at(6 * sim::kHour, [&] { sys.start_snapshot(); });
  sys.simulator().schedule_at(18 * sim::kHour, [&] { sys.start_snapshot(); });
  sys.run_for(sim::kDay + sim::kHour);
  EXPECT_EQ(sys.bank().metrics().snapshot_rounds, 2u);
  EXPECT_TRUE(sys.bank().last_violations().empty());
  EXPECT_TRUE(sys.conservation_holds());
}

// Topology sweep: the invariants are size-independent.
struct Topology {
  std::size_t n_isps;
  std::size_t users;
};

class TopologySweepTest : public ::testing::TestWithParam<Topology> {};

TEST_P(TopologySweepTest, InvariantsHoldAtEveryScale) {
  const Topology t = GetParam();
  ZmailParams p;
  p.n_isps = t.n_isps;
  p.users_per_isp = t.users;
  p.initial_user_balance = 50;
  p.record_inboxes = false;
  ZmailSystem sys(p, 1'000 + t.n_isps * 31 + t.users);

  workload::CorpusGenerator corpus(workload::CorpusParams{}, Rng(7));
  workload::TrafficGenerator traffic(sys, workload::TrafficParams{}, corpus,
                                     Rng(8));
  traffic.build_contacts();
  traffic.burst(20 * t.n_isps * t.users / 4 + 50);
  sys.run_for(2 * sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);

  EXPECT_TRUE(sys.conservation_holds());
  EXPECT_TRUE(sys.bank().last_violations().empty());
  EXPECT_EQ(sys.bank().seq(), 1u);
  // Credit antisymmetry directly, post-reset: all zeros.
  for (std::size_t i = 0; i < t.n_isps; ++i)
    for (EPenny c : sys.isp(i).credit()) EXPECT_EQ(c, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologySweepTest,
    ::testing::Values(Topology{2, 2}, Topology{2, 50}, Topology{8, 4},
                      Topology{16, 2}, Topology{5, 20}),
    [](const ::testing::TestParamInfo<Topology>& info) {
      return std::to_string(info.param.n_isps) + "isps_" +
             std::to_string(info.param.users) + "users";
    });

TEST(Integration, MixedDeploymentEndToEnd) {
  // Half the world is compliant; mail crosses the boundary in both
  // directions; a mailing list and a spam campaign run concurrently.
  ZmailParams p = world_params();
  p.compliant = {true, true, false, false};
  p.noncompliant_policy = NonCompliantPolicy::kSegregate;
  ZmailSystem sys(p, 106);

  MailingList list(sys, user(0, 0), "announce");
  for (std::size_t u = 0; u < 8; ++u) list.subscribe(user(1, u));
  list.post("hello", "world");

  workload::CorpusGenerator corpus(workload::CorpusParams{}, Rng(107));
  workload::SpamCampaignParams cp;
  cp.spammer_isp = 2;  // legacy spammer: free mail
  cp.messages = 200;
  Rng rng(108);
  workload::run_spam_campaign(sys, cp, corpus, rng);

  sys.run_for(2 * sim::kHour);
  list.reconcile_and_prune();

  EXPECT_EQ(list.net_epenny_cost(), 0);
  // Legacy spam reaching compliant users was segregated, not paid for.
  std::uint64_t segregated = sys.isp(0).metrics().emails_segregated +
                             sys.isp(1).metrics().emails_segregated;
  EXPECT_GT(segregated, 0u);
  EXPECT_TRUE(sys.conservation_holds());
}

}  // namespace
}  // namespace zmail::core
