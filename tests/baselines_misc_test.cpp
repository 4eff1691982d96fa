#include <gtest/gtest.h>

#include "baselines/blacklist.hpp"
#include "baselines/challenge.hpp"
#include "baselines/pipeline.hpp"
#include "baselines/pow_mail.hpp"
#include "baselines/shred.hpp"

namespace zmail::baselines {
namespace {

net::EmailAddress addr(const char* s) { return *net::parse_address(s); }

// --- Blacklist / whitelist ---------------------------------------------------

TEST(Blacklist, BlocksListedDomains) {
  Blacklist bl;
  bl.add_domain("spamhaus.example");
  EXPECT_TRUE(bl.blocked(addr("a@spamhaus.example")));
  EXPECT_FALSE(bl.blocked(addr("a@clean.example")));
  bl.remove_domain("spamhaus.example");
  EXPECT_FALSE(bl.blocked(addr("a@spamhaus.example")));
}

TEST(Whitelist, AllowsExactAddressesOnly) {
  Whitelist wl;
  wl.add(addr("friend@x.example"));
  EXPECT_TRUE(wl.allowed(addr("friend@x.example")));
  EXPECT_FALSE(wl.allowed(addr("stranger@x.example")));
  EXPECT_FALSE(wl.allowed(addr("friend@y.example")));
  wl.remove(addr("friend@x.example"));
  EXPECT_FALSE(wl.allowed(addr("friend@x.example")));
}

// --- Challenge-response ------------------------------------------------------

TEST(Challenge, FirstContactIsChallengedThenWhitelisted) {
  ChallengeParams p;
  p.human_response_prob = 1.0;
  ChallengeResponse cr(p, zmail::Rng(1));
  EXPECT_TRUE(cr.process(addr("a@x.example"), false));
  EXPECT_EQ(cr.stats().challenges_issued, 1u);
  EXPECT_EQ(cr.stats().delivered_after_challenge, 1u);
  // Second mail from the same sender flows freely.
  EXPECT_TRUE(cr.process(addr("a@x.example"), false));
  EXPECT_EQ(cr.stats().challenges_issued, 1u);
  EXPECT_EQ(cr.stats().delivered_whitelisted, 1u);
}

TEST(Challenge, SpamMostlyBlocked) {
  ChallengeParams p;
  p.spammer_solve_prob = 0.0;
  ChallengeResponse cr(p, zmail::Rng(2));
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(cr.process(
        addr(std::string("s").append(std::to_string(i) + "@z.ex").c_str()),
        true));
  EXPECT_EQ(cr.stats().spam_blocked, 100u);
  EXPECT_EQ(cr.stats().spam_delivered, 0u);
}

TEST(Challenge, LegitimateMailIsLostWhenSendersIgnoreChallenges) {
  ChallengeParams p;
  p.human_response_prob = 0.0;  // nobody answers
  ChallengeResponse cr(p, zmail::Rng(3));
  EXPECT_FALSE(cr.process(addr("a@x.example"), false));
  EXPECT_EQ(cr.stats().lost_no_response, 1u);
}

TEST(Challenge, HumanEffortAccumulates) {
  ChallengeParams p;
  p.human_response_prob = 1.0;
  p.human_seconds_per_challenge = 10.0;
  ChallengeResponse cr(p, zmail::Rng(4));
  for (int i = 0; i < 5; ++i)
    cr.process(
        addr(std::string("u").append(std::to_string(i) + "@x.ex").c_str()),
        false);
  EXPECT_DOUBLE_EQ(cr.stats().human_seconds, 50.0);
  EXPECT_EQ(cr.whitelist_size(), 5u);
}

// --- Proof-of-work -----------------------------------------------------------

TEST(PowMailer, ExpectedAttemptsDoublePerBit) {
  EXPECT_DOUBLE_EQ(PowMailer(PowMailParams{10, 1e6}).expected_attempts(),
                   1024.0);
  EXPECT_DOUBLE_EQ(PowMailer(PowMailParams{11, 1e6}).expected_attempts(),
                   2048.0);
}

TEST(PowMailer, MaxDailyRateFallsExponentially) {
  const double easy = PowMailer(PowMailParams{10, 1e6}).max_daily_rate();
  const double hard = PowMailer(PowMailParams{20, 1e6}).max_daily_rate();
  EXPECT_NEAR(easy / hard, 1024.0, 1.0);
}

// --- SHRED / Vanquish --------------------------------------------------------

TEST(Shred, OnlyReportedSpamCostsTheSpammer) {
  ShredParams p;
  p.report_prob = 1.0;
  ShredScheme shred(p, zmail::Rng(5));
  for (int i = 0; i < 100; ++i) shred.process(true);
  for (int i = 0; i < 100; ++i) shred.process(false);
  EXPECT_EQ(shred.stats().reports, 100u);
  EXPECT_EQ(shred.stats().spammer_paid, Money::from_cents(100));
  EXPECT_EQ(shred.stats().messages, 200u);
}

TEST(Shred, LowMotivationMeansLowDeterrence) {
  // Paper weakness 2: receivers aren't rewarded, so few report.
  ShredParams p;
  p.report_prob = 0.1;
  ShredScheme shred(p, zmail::Rng(6));
  for (int i = 0; i < 10'000; ++i) shred.process(true);
  const double paid = shred.stats().spammer_paid.dollars();
  EXPECT_NEAR(paid, 10.0, 3.0);  // ~10% of $100
}

TEST(Shred, CollusionZeroesDeterrenceButNotReceiverEffort) {
  // Paper weakness 3.
  ShredParams p;
  p.report_prob = 1.0;
  p.isp_colludes = true;
  ShredScheme shred(p, zmail::Rng(7));
  for (int i = 0; i < 100; ++i) shred.process(true);
  EXPECT_TRUE(shred.stats().spammer_paid.is_zero());
  EXPECT_GT(shred.stats().receiver_human_seconds, 0.0);
}

TEST(Shred, HandlingCostCanExceedPaymentValue) {
  // Paper weakness 4: 2-cent handling per 1-cent payment.
  ShredParams p;
  p.report_prob = 1.0;
  ShredScheme shred(p, zmail::Rng(8));
  for (int i = 0; i < 50; ++i) shred.process(true);
  EXPECT_GT(shred.stats().isp_handling_cost, shred.stats().isp_revenue);
  EXPECT_EQ(shred.stats().ledger_operations, 50u);
}

TEST(Vanquish, HigherParticipationCheaperReports) {
  const ShredParams v = vanquish_as_shred(VanquishParams{});
  EXPECT_GT(v.report_prob, ShredParams{}.report_prob);
  EXPECT_LT(v.human_seconds_per_report,
            ShredParams{}.human_seconds_per_report);
}

// --- Pipeline ----------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    pipeline_.whitelist().add(addr("boss@corp.example"));
    pipeline_.blacklist().add_domain("spamhaus.example");
    for (int i = 0; i < 50; ++i) {
      pipeline_.content().train("zxcasino zxpills zxwinner", true);
      pipeline_.content().train("wreport wmeeting wbudget", false);
    }
  }
  FilterPipeline pipeline_;

  net::EmailMessage msg(const char* from, const char* body) {
    return net::make_email(addr(from), addr("me@corp.example"), "s", body);
  }
};

TEST_F(PipelineTest, WhitelistShortCircuitsEverything) {
  // Even spammy content from a whitelisted sender is delivered.
  EXPECT_EQ(pipeline_.classify(msg("boss@corp.example", "zxcasino zxpills")),
            FilterVerdict::kDeliverWhitelisted);
}

TEST_F(PipelineTest, BlacklistBeatsContent) {
  EXPECT_EQ(pipeline_.classify(msg("x@spamhaus.example", "wreport wmeeting")),
            FilterVerdict::kRejectBlacklisted);
}

TEST_F(PipelineTest, ContentFilterCatchesTheRest) {
  EXPECT_EQ(pipeline_.classify(msg("new@other.example", "zxcasino zxwinner")),
            FilterVerdict::kRejectContent);
  EXPECT_EQ(pipeline_.classify(msg("new@other.example", "wreport wbudget")),
            FilterVerdict::kDeliver);
}

TEST_F(PipelineTest, RejectsHelper) {
  EXPECT_TRUE(pipeline_.rejects(msg("x@spamhaus.example", "hi")));
  EXPECT_FALSE(pipeline_.rejects(msg("boss@corp.example", "zxcasino")));
}

}  // namespace
}  // namespace zmail::baselines
