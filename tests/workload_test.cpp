#include <gtest/gtest.h>

#include "workload/corpus.hpp"
#include "workload/traffic.hpp"
#include "workload/virus.hpp"

namespace zmail::workload {
namespace {

// --- Corpus -----------------------------------------------------------------

TEST(Corpus, TokenizeBasics) {
  const auto t = tokenize("Hello, World! a b2c x");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "hello");
  EXPECT_EQ(t[1], "world");
  EXPECT_EQ(t[2], "b2c");  // single chars dropped
}

TEST(Corpus, TokenizeEmptyAndPunctuation) {
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("!!! . , ;").empty());
}

TEST(Corpus, HamBodyHasNoSpamTokens) {
  CorpusGenerator gen(CorpusParams{}, zmail::Rng(1));
  for (int i = 0; i < 20; ++i) {
    for (const auto& tok : tokenize(gen.ham_body()))
      EXPECT_FALSE(gen.is_spam_token(tok)) << tok;
  }
}

TEST(Corpus, SpamBodyIsMostlySpamVocabulary) {
  CorpusParams p;
  p.spam_ham_mix = 0.3;
  CorpusGenerator gen(p, zmail::Rng(2));
  std::size_t spam_tokens = 0, total = 0;
  for (int i = 0; i < 50; ++i) {
    for (const auto& tok : tokenize(gen.spam_body())) {
      ++total;
      if (gen.is_spam_token(tok)) ++spam_tokens;
    }
  }
  const double frac = static_cast<double>(spam_tokens) /
                      static_cast<double>(total);
  EXPECT_NEAR(frac, 0.7, 0.05);
}

TEST(Corpus, NewsletterIsLightlyContaminated) {
  CorpusParams p;
  p.newsletter_spam_mix = 0.25;
  CorpusGenerator gen(p, zmail::Rng(3));
  std::size_t spam_tokens = 0, total = 0;
  for (int i = 0; i < 50; ++i) {
    for (const auto& tok : tokenize(gen.newsletter_body())) {
      ++total;
      if (gen.is_spam_token(tok)) ++spam_tokens;
    }
  }
  EXPECT_NEAR(static_cast<double>(spam_tokens) / static_cast<double>(total),
              0.25, 0.05);
}

TEST(Corpus, EvadeMutatesSpamTokensOnly) {
  CorpusGenerator gen(CorpusParams{}, zmail::Rng(4));
  const std::string ham = gen.ham_body();
  EXPECT_EQ(gen.evade(ham, 1.0), ham);  // nothing to obfuscate
  const std::string spam = gen.spam_body();
  const std::string evaded = gen.evade(spam, 1.0);
  EXPECT_NE(evaded, spam);
  // Obfuscated tokens no longer look like spam vocabulary to the filter's
  // tokenizer (a digit splits/changes the token).
  std::size_t surviving = 0;
  for (const auto& tok : tokenize(evaded))
    if (gen.is_spam_token(tok) && tok.find('0') == std::string::npos)
      ++surviving;
  EXPECT_EQ(surviving, 0u);
}

TEST(Corpus, EvadeStrengthZeroIsIdentity) {
  CorpusGenerator gen(CorpusParams{}, zmail::Rng(5));
  const std::string spam = gen.spam_body();
  EXPECT_EQ(gen.evade(spam, 0.0), spam);
}

TEST(Corpus, MakeMessageSetsClassAndTruth) {
  CorpusGenerator gen(CorpusParams{}, zmail::Rng(6));
  const net::EmailMessage m = gen.make_message(
      {"a", "x.example"}, {"b", "y.example"}, net::MailClass::kSpam);
  EXPECT_EQ(m.truth, net::MailClass::kSpam);
  EXPECT_FALSE(m.subject().empty());
  EXPECT_FALSE(m.body.empty());
}

// --- Traffic ----------------------------------------------------------------

core::ZmailParams traffic_params() {
  core::ZmailParams p;
  p.n_isps = 3;
  p.users_per_isp = 10;
  p.initial_user_balance = 1'000;
  p.default_daily_limit = 10'000;
  return p;
}

TEST(Traffic, BurstDeliversMail) {
  core::ZmailSystem sys(traffic_params(), 11);
  CorpusGenerator corpus(CorpusParams{}, zmail::Rng(12));
  TrafficGenerator gen(sys, TrafficParams{}, corpus, zmail::Rng(13));
  gen.build_contacts();
  gen.burst(100);
  sys.run_for(sim::kHour);
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < 3; ++i)
    delivered += sys.isp(i).metrics().emails_delivered;
  EXPECT_EQ(delivered, 100u);
  EXPECT_TRUE(sys.conservation_holds());
}

TEST(Traffic, ScheduleDaySpreadsEventsOverTheDay) {
  core::ZmailSystem sys(traffic_params(), 14);
  CorpusGenerator corpus(CorpusParams{}, zmail::Rng(15));
  TrafficParams tp;
  tp.mean_sends_per_user_day = 4.0;
  TrafficGenerator gen(sys, tp, corpus, zmail::Rng(16));
  gen.build_contacts();
  const std::size_t scheduled = gen.schedule_day();
  EXPECT_GT(scheduled, 30u);  // 30 users * ~4
  // Nothing delivered yet.
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < 3; ++i)
    delivered += sys.isp(i).metrics().emails_delivered;
  EXPECT_EQ(delivered, 0u);
  sys.run_for(sim::kDay + sim::kHour);
  delivered = 0;
  for (std::size_t i = 0; i < 3; ++i)
    delivered += sys.isp(i).metrics().emails_delivered;
  EXPECT_EQ(delivered, scheduled);
}

TEST(Traffic, SpamCampaignCountsOutcomes) {
  core::ZmailParams p = traffic_params();
  p.initial_user_balance = 50;
  p.default_daily_limit = 200;
  core::ZmailSystem sys(p, 17);
  CorpusGenerator corpus(CorpusParams{}, zmail::Rng(18));
  SpamCampaignParams cp;
  cp.messages = 300;
  zmail::Rng rng(19);
  const SpamCampaignResult r = run_spam_campaign(sys, cp, corpus, rng);
  EXPECT_EQ(r.attempted, 300u);
  // The spammer has 50 e-pennies (some sends are local/free-ish... local
  // still paid) — most of the campaign is refused for lack of balance.
  EXPECT_LE(r.sent, 60u);
  EXPECT_GT(r.refused_balance, 200u);
}

TEST(Traffic, CampaignLimitBlocksBeforeBalanceWhenLimitIsTight) {
  core::ZmailParams p = traffic_params();
  p.initial_user_balance = 10'000;
  p.default_daily_limit = 25;
  core::ZmailSystem sys(p, 20);
  CorpusGenerator corpus(CorpusParams{}, zmail::Rng(21));
  SpamCampaignParams cp;
  cp.messages = 100;
  zmail::Rng rng(22);
  const SpamCampaignResult r = run_spam_campaign(sys, cp, corpus, rng);
  EXPECT_EQ(r.sent, 25u);
  EXPECT_EQ(r.refused_limit, 75u);
}

// The limit's warning quarantines the spammer (one warning is enough), so
// every later send is blocked: neither sent nor refused for the limit.
TEST(Traffic, QuarantinedSendsAreNotCountedAsSent) {
  core::ZmailParams p = traffic_params();
  p.initial_user_balance = 10'000;
  p.default_daily_limit = 25;
  p.quarantine_after_warnings = 1;
  core::ZmailSystem sys(p, 20);
  CorpusGenerator corpus(CorpusParams{}, zmail::Rng(21));
  SpamCampaignParams cp;
  cp.messages = 100;
  zmail::Rng rng(22);
  const SpamCampaignResult r = run_spam_campaign(sys, cp, corpus, rng);
  EXPECT_EQ(r.sent, 25u);
  EXPECT_EQ(r.refused_limit, 1u);
  EXPECT_EQ(r.refused_balance, 0u);
}

TEST(Traffic, DiurnalProfileConcentratesDaytimeSends) {
  core::ZmailSystem sys(traffic_params(), 51);
  CorpusGenerator corpus(CorpusParams{}, zmail::Rng(52));
  TrafficParams tp;
  tp.mean_sends_per_user_day = 30.0;
  tp.diurnal = true;
  tp.diurnal_amplitude = 0.9;
  tp.peak_hour = 14.0;
  TrafficGenerator gen(sys, tp, corpus, zmail::Rng(53));
  gen.build_contacts();
  gen.schedule_day();

  // Count deliveries in the peak window (12:00-16:00) vs the trough
  // (00:00-04:00) by running the clock in slices.
  auto delivered_total = [&] {
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < 3; ++i)
      d += sys.isp(i).metrics().emails_delivered;
    return d;
  };
  sys.run_for(4 * sim::kHour);
  const std::uint64_t trough = delivered_total();
  sys.run_for(8 * sim::kHour);  // through 12:00
  const std::uint64_t before_peak = delivered_total();
  sys.run_for(4 * sim::kHour);  // through 16:00
  const std::uint64_t after_peak = delivered_total();
  const std::uint64_t peak = after_peak - before_peak;
  EXPECT_GT(peak, 3 * std::max<std::uint64_t>(trough, 1));
}

TEST(Traffic, ZipfPopularityConcentratesReceipts) {
  core::ZmailParams p = traffic_params();
  p.users_per_isp = 50;
  core::ZmailSystem sys(p, 54);
  CorpusGenerator corpus(CorpusParams{}, zmail::Rng(55));
  TrafficParams tp;
  tp.zipf_popularity = 1.2;
  TrafficGenerator gen(sys, tp, corpus, zmail::Rng(56));
  gen.build_contacts();
  gen.burst(2'000);
  sys.run_for(2 * sim::kHour);

  // The top decile of user indices should receive the majority of mail.
  std::int64_t top_decile = 0, total = 0;
  for (std::size_t i = 0; i < p.n_isps; ++i) {
    for (std::size_t u = 0; u < p.users_per_isp; ++u) {
      const auto received = sys.isp(i).user(u).lifetime_received_paid;
      total += received;
      if (u < p.users_per_isp / 10) top_decile += received;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(top_decile) / static_cast<double>(total),
            0.5);
}

// --- Virus / zombies ----------------------------------------------------------

TEST(Virus, TightLimitContainsOutbreak) {
  core::ZmailParams p = traffic_params();
  p.users_per_isp = 20;
  p.default_daily_limit = 20;  // tight: a zombie is cut off quickly
  p.initial_user_balance = 10'000;
  core::ZmailSystem tight(p, 23);
  OutbreakParams op;
  op.initial_infected = 2;
  op.virus_sends_per_day = 500;
  op.infect_prob = 0.08;
  op.days = 8;
  ZombieOutbreak outbreak(tight, op, zmail::Rng(24));
  const auto days = outbreak.run();
  ASSERT_EQ(days.size(), 8u);
  // Each zombie is stopped at the limit: per-day accepted virus mail is
  // bounded by infected * limit.
  for (const auto& d : days)
    EXPECT_LE(d.virus_sent, static_cast<std::uint64_t>(d.infected + 2) * 20);
  // Warnings fired, and infections were disinfected along the way.
  std::uint64_t total_warnings = 0;
  for (const auto& d : days) total_warnings += d.warnings;
  EXPECT_GT(total_warnings, 0u);
}

TEST(Virus, LooseLimitLetsOutbreakSpendMore) {
  core::ZmailParams base = traffic_params();
  base.users_per_isp = 20;
  base.initial_user_balance = 10'000;

  auto drained_with_limit = [&](std::int64_t limit, std::uint64_t seed) {
    core::ZmailParams p = base;
    p.default_daily_limit = limit;
    core::ZmailSystem sys(p, seed);
    OutbreakParams op;
    op.initial_infected = 2;
    op.virus_sends_per_day = 300;
    op.infect_prob = 0.02;
    op.patch_prob_after_warning = 1.0;
    op.days = 5;
    ZombieOutbreak outbreak(sys, op, zmail::Rng(seed));
    return outbreak.run().back().epennies_drained;
  };

  EXPECT_LT(drained_with_limit(20, 31), drained_with_limit(5'000, 31) / 3);
}

}  // namespace
}  // namespace zmail::workload
