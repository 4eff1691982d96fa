#include "core/audit.hpp"

#include <gtest/gtest.h>

#include "core/system.hpp"

namespace zmail::core {
namespace {

net::EmailAddress user(std::size_t i, std::size_t u) {
  return net::make_user_address(i, u);
}

ZmailParams params2() {
  ZmailParams p;
  p.n_isps = 2;
  p.users_per_isp = 3;
  p.initial_user_balance = 20;
  p.minavail = 50;
  p.maxavail = 200;
  p.initial_avail = 100;
  return p;
}

TEST(AuditJournal, RecordsAndCounts) {
  AuditJournal j;
  j.record({AuditKind::kMint, 0, 1, 0, 100});
  j.record({AuditKind::kBurn, 0, 1, 0, 30});
  j.record({AuditKind::kMint, 1, 2, 0, 50});
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.count(AuditKind::kMint), 2u);
  EXPECT_EQ(j.count(AuditKind::kBurn), 1u);
  EXPECT_EQ(j.count(AuditKind::kSettlement), 0u);
  EXPECT_EQ(j.net_minted(), 120);
}

TEST(AuditJournal, SettlementVolumeIsAbsolute) {
  AuditJournal j;
  j.record({AuditKind::kSettlement, 0, 0, 1, 10});
  j.record({AuditKind::kSettlement, 0, 1, 0, -4});
  EXPECT_EQ(j.settlement_volume(), 14);
}

TEST(AuditKindNames, AllNamed) {
  EXPECT_STREQ(audit_kind_name(AuditKind::kMint), "mint");
  EXPECT_STREQ(audit_kind_name(AuditKind::kRoundCompleted),
               "round-completed");
  EXPECT_STREQ(audit_kind_name(AuditKind::kStaleReport), "stale-report");
}

class BankAuditTest : public ::testing::Test {
 protected:
  BankAuditTest() : sys_(params2(), 61) {
    sys_.bank().attach_journal(&journal_);
  }
  AuditJournal journal_;
  ZmailSystem sys_;
};

TEST_F(BankAuditTest, SnapshotRoundLeavesAFullTrail) {
  sys_.send_email(user(0, 0), user(1, 0), "s", "b");
  sys_.run_for(sim::kHour);
  sys_.start_snapshot();
  sys_.run_for(30 * sim::kMinute);

  EXPECT_EQ(journal_.count(AuditKind::kRoundStarted), 1u);
  EXPECT_EQ(journal_.count(AuditKind::kReportReceived), 2u);
  EXPECT_EQ(journal_.count(AuditKind::kRoundCompleted), 1u);
  EXPECT_EQ(journal_.count(AuditKind::kSettlement), 1u);
  EXPECT_EQ(journal_.count(AuditKind::kViolationFlagged), 0u);
  EXPECT_EQ(journal_.settlement_volume(), 1);
}

TEST_F(BankAuditTest, MintAndBurnRederiveOutstandingSupply) {
  sys_.enable_bank_trading(sim::kMinute);
  // Deplete below minavail to force a mint, then inflate above maxavail to
  // force a burn.
  sys_.buy_epennies(user(0, 0), 60);  // avail 100 -> 40 < 50
  sys_.run_for(10 * sim::kMinute);
  sys_.isp(1).set_avail(500);  // > 200: will sell 300 back
  sys_.run_for(10 * sim::kMinute);

  EXPECT_GE(journal_.count(AuditKind::kMint), 1u);
  EXPECT_GE(journal_.count(AuditKind::kBurn), 1u);
  // The journal alone reproduces the bank's supply accounting.
  EXPECT_EQ(journal_.net_minted(), sys_.bank().epennies_outstanding());
}

TEST_F(BankAuditTest, ViolationsAreJournaled) {
  sys_.isp(0).set_misbehavior(Isp::Misbehavior::kFreeRide);
  for (int i = 0; i < 3; ++i) sys_.send_email(user(0, 0), user(1, 0), "s", "b");
  sys_.run_for(sim::kHour);
  sys_.start_snapshot();
  sys_.run_for(30 * sim::kMinute);
  ASSERT_EQ(journal_.count(AuditKind::kViolationFlagged), 1u);
  for (const auto& e : journal_.events()) {
    if (e.kind != AuditKind::kViolationFlagged) continue;
    EXPECT_EQ(e.a, 0u);
    EXPECT_EQ(e.b, 1u);
    EXPECT_EQ(e.amount, -3);
  }
  // Disputed pair: no settlement recorded.
  EXPECT_EQ(journal_.count(AuditKind::kSettlement), 0u);
}

TEST_F(BankAuditTest, DetachingStopsRecording) {
  sys_.bank().attach_journal(nullptr);
  sys_.start_snapshot();
  sys_.run_for(30 * sim::kMinute);
  EXPECT_EQ(journal_.size(), 0u);
}

}  // namespace
}  // namespace zmail::core
