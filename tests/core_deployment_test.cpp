// Runtime deployment dynamics: legacy ISPs flipping compliant mid-run
// (paper Section 4's compliant-array broadcast + Section 5's incremental
// deployment), and multi-recipient send semantics.
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace zmail::core {
namespace {

net::EmailAddress user(std::size_t i, std::size_t u) {
  return net::make_user_address(i, u);
}

ZmailParams mixed_params() {
  ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 4;
  p.compliant = {true, true, false};
  p.initial_user_balance = 50;
  return p;
}

TEST(MakeCompliant, LegacyIspStartsRunningZmail) {
  ZmailSystem sys(mixed_params(), 1);
  // Before: mail from ISP 2 is free.
  EXPECT_EQ(sys.send_email(user(2, 0), user(0, 0), "s", "b"),
            SendResult::kSentFree);
  sys.run_for(sim::kMinute);

  sys.make_compliant(2);
  EXPECT_TRUE(sys.is_compliant(2));
  // After: the same sender pays like everyone else.
  EXPECT_EQ(sys.send_email(user(2, 0), user(0, 0), "s", "b"),
            SendResult::kSentPaid);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(2).user(0).balance,
            mixed_params().initial_user_balance - 1);
  EXPECT_EQ(sys.isp(2).credit()[0], 1);
  EXPECT_EQ(sys.isp(0).credit()[2], -1);
}

TEST(MakeCompliant, ExistingIspsSeeTheBroadcastImmediately) {
  ZmailSystem sys(mixed_params(), 2);
  sys.make_compliant(2);
  // A compliant ISP now charges for mail toward ISP 2.
  EXPECT_EQ(sys.send_email(user(0, 0), user(2, 0), "s", "b"),
            SendResult::kSentPaid);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(2).user(0).balance,
            mixed_params().initial_user_balance + 1);
}

TEST(MakeCompliant, IdempotentOnAlreadyCompliant) {
  ZmailSystem sys(mixed_params(), 3);
  sys.make_compliant(0);
  EXPECT_TRUE(sys.is_compliant(0));
  sys.make_compliant(2);
  sys.make_compliant(2);
  EXPECT_TRUE(sys.is_compliant(2));
}

TEST(MakeCompliant, JoinerParticipatesInNextSnapshotCleanly) {
  ZmailSystem sys(mixed_params(), 4);
  // Run a first snapshot with the original pair.
  sys.send_email(user(0, 0), user(1, 0), "s", "b");
  sys.run_for(sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  EXPECT_EQ(sys.bank().seq(), 1u);

  sys.make_compliant(2);
  EXPECT_EQ(sys.isp(2).seq(), 1u);  // joined the current billing period
  sys.send_email(user(2, 0), user(1, 0), "s", "b");
  sys.send_email(user(0, 1), user(2, 1), "s", "b");
  sys.run_for(sim::kHour);
  sys.start_snapshot();
  sys.run_for(30 * sim::kMinute);
  EXPECT_EQ(sys.bank().seq(), 2u);
  EXPECT_TRUE(sys.bank().last_violations().empty());
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(MakeCompliant, AllCompliantWorldFromEmptyArray) {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 2;
  // Empty compliant array means "all compliant": flipping is a no-op.
  ZmailSystem sys(p, 5);
  sys.make_compliant(1);
  EXPECT_TRUE(sys.is_compliant(0));
  EXPECT_TRUE(sys.is_compliant(1));
}

// A message to several recipients is one send_email per recipient (RFC-821
// RCPT fan-out with Zmail's per-receiver payment); the counts add up.
SendOutcome send_to_all(ZmailSystem& sys, const net::EmailAddress& from,
                        const std::vector<net::EmailAddress>& to) {
  SendOutcome total;
  for (const net::EmailAddress& r : to) {
    const SendOutcome o = sys.send_email(from, r, "all", "b");
    total.sent += o.sent;
    total.refused += o.refused;
  }
  return total;
}

TEST(MultiRecipient, ChargesOneEPennyPerRecipient) {
  ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 4;
  p.initial_user_balance = 50;
  ZmailSystem sys(p, 6);

  const auto r = send_to_all(
      sys, user(0, 0),
      {user(1, 0), user(1, 1), user(2, 2), user(0, 3)});  // one local
  EXPECT_EQ(r.sent, 4u);
  EXPECT_EQ(r.refused, 0u);
  EXPECT_EQ(sys.isp(0).user(0).balance, 50 - 4);
  sys.run_for(sim::kMinute);
  EXPECT_EQ(sys.isp(1).user(0).balance, 51);
  EXPECT_EQ(sys.isp(1).user(1).balance, 51);
  EXPECT_EQ(sys.isp(2).user(2).balance, 51);
  EXPECT_EQ(sys.isp(0).user(3).balance, 51);
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(MultiRecipient, PartialRefusalWhenBalanceRunsOut) {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 5;
  p.initial_user_balance = 2;
  ZmailSystem sys(p, 7);

  const auto r =
      send_to_all(sys, user(0, 0), {user(1, 0), user(1, 1), user(1, 2)});
  EXPECT_EQ(r.sent, 2u);
  EXPECT_EQ(r.refused, 1u);
  EXPECT_EQ(sys.isp(0).user(0).balance, 0);
}

TEST(MultiRecipient, DailyLimitAppliesPerRecipient) {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 5;
  p.initial_user_balance = 100;
  p.default_daily_limit = 2;
  ZmailSystem sys(p, 8);

  const auto r = send_to_all(sys, user(0, 0),
                             {user(1, 0), user(1, 1), user(1, 2), user(1, 3)});
  EXPECT_EQ(r.sent, 2u);
  EXPECT_EQ(r.refused, 2u);
}

}  // namespace
}  // namespace zmail::core
