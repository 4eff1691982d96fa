#include "core/mailing_list.hpp"

#include <gtest/gtest.h>

namespace zmail::core {
namespace {

ZmailParams list_params() {
  ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 10;
  p.initial_user_balance = 100;
  p.default_daily_limit = 1'000;
  return p;
}

net::EmailAddress user(std::size_t i, std::size_t u) {
  return net::make_user_address(i, u);
}

std::size_t active_subscribers(const MailingList& list) {
  std::size_t n = 0;
  for (const SubscriberRecord& sub : list.subscribers()) n += sub.active;
  return n;
}

class MailingListTest : public ::testing::Test {
 protected:
  MailingListTest() : sys_(list_params(), 21), list_(sys_, user(0, 0), "dev") {
    // Subscribers across all three ISPs, skipping the distributor.
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t u = 0; u < 5; ++u)
        if (!(i == 0 && u == 0)) list_.subscribe(user(i, u));
  }

  ZmailSystem sys_;
  MailingList list_;
};

TEST_F(MailingListTest, PostReachesEveryActiveSubscriber) {
  const std::size_t sent = list_.post("release", "v1.0 is out");
  EXPECT_EQ(sent, 14u);
  sys_.run_for(sim::kHour);
  ASSERT_EQ(sys_.isp(1).inbox(0).size(), 1u);
  EXPECT_EQ(sys_.isp(1).inbox(0)[0].msg.subject(), "[dev] release");
}

TEST_F(MailingListTest, AcknowledgmentsReturnEveryEPenny) {
  const EPenny before = sys_.isp(0).user(0).balance;
  list_.post("n1", "b");
  sys_.run_for(sim::kHour);
  list_.reconcile_and_prune();
  // Every subscriber's ISP acknowledged: distributor net cost is zero.
  EXPECT_EQ(list_.net_epenny_cost(), 0);
  EXPECT_EQ(sys_.isp(0).user(0).balance, before);
  EXPECT_TRUE(sys_.conservation_holds());
}

TEST_F(MailingListTest, WithoutAcksDistributorPaysFullFreight) {
  ZmailParams p = list_params();
  p.auto_acknowledge_lists = false;
  ZmailSystem sys(p, 22);
  MailingList list(sys, user(0, 0), "dev");
  for (std::size_t u = 1; u < 6; ++u) list.subscribe(user(1, u));
  const EPenny before = sys.isp(0).user(0).balance;
  list.post("n", "b");
  sys.run_for(sim::kHour);
  EXPECT_EQ(sys.isp(0).user(0).balance, before - 5);
  EXPECT_EQ(list.net_epenny_cost(), 5);
}

TEST_F(MailingListTest, DeadSubscribersArePruned) {
  // ISP 2 does not run Zmail, so its deliveries never generate acks.
  ZmailParams p = list_params();
  p.compliant = {true, true, false};
  ZmailSystem sys(p, 24);
  MailingList list(sys, user(0, 0), "dev", /*prune_after=*/2);
  for (std::size_t u = 1; u < 4; ++u) list.subscribe(user(1, u));
  for (std::size_t u = 0; u < 3; ++u) list.subscribe(user(2, u));

  EXPECT_EQ(active_subscribers(list), 6u);
  for (int post = 0; post < 2; ++post) {
    list.post("n", "b");
    sys.run_for(sim::kHour);
  }
  const std::size_t pruned = list.reconcile_and_prune();
  EXPECT_EQ(pruned, 3u);  // the three silent ISP-2 subscribers
  EXPECT_EQ(active_subscribers(list), 3u);
  // Next post only goes to live subscribers.
  EXPECT_EQ(list.post("n2", "b"), 3u);
  // Subscribing again reactivates a pruned address.
  list.subscribe(user(2, 0));
  EXPECT_EQ(active_subscribers(list), 4u);
}

TEST_F(MailingListTest, PostsAreCounted) {
  list_.post("a", "1");
  list_.post("b", "2");
  EXPECT_EQ(list_.posts(), 2u);
}

TEST_F(MailingListTest, AckTracksPerSubscriberCounts) {
  list_.post("n", "b");
  sys_.run_for(sim::kHour);
  list_.reconcile_and_prune();
  for (const auto& sub : list_.subscribers()) {
    EXPECT_EQ(sub.posts_sent, 1u) << sub.address.str();
    EXPECT_EQ(sub.acks_received, 1u) << sub.address.str();
    EXPECT_TRUE(sub.active);
  }
}

// A distributor quarantined by its own limit's warning sends no copies, so
// a post counts none and the list's net cost matches the balance.
TEST(MailingListQuarantine, AQuarantinedPostSendsAndCostsNothing) {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 4;
  p.initial_user_balance = 100;
  p.default_daily_limit = 2;
  p.quarantine_after_warnings = 1;
  ZmailSystem sys(p, 23);
  MailingList list(sys, user(0, 0), "q");
  list.subscribe(user(1, 0));
  list.subscribe(user(1, 1));
  list.subscribe(user(0, 1));
  const EPenny before = sys.isp(0).user(0).balance;

  EXPECT_EQ(list.post("first", "b"), 2u);  // the third hits the limit
  ASSERT_TRUE(sys.isp(0).user(0).quarantined);
  EXPECT_EQ(list.post("second", "b"), 0u);
  sys.run_for(sim::kHour);
  list.reconcile_and_prune();

  std::uint64_t posts_sent = 0;
  for (const SubscriberRecord& sub : list.subscribers())
    posts_sent += sub.posts_sent;
  EXPECT_EQ(posts_sent, 2u);
  EXPECT_EQ(active_subscribers(list), 3u);
  EXPECT_EQ(list.net_epenny_cost(), before - sys.isp(0).user(0).balance);
  EXPECT_TRUE(sys.conservation_holds());
}

}  // namespace
}  // namespace zmail::core
