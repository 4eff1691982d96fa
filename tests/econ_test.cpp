#include <gtest/gtest.h>

#include <cmath>

#include "econ/adoption.hpp"
#include "econ/isp_cost.hpp"
#include "econ/legal.hpp"
#include "econ/spammer.hpp"

namespace zmail::econ {
namespace {

// --- Spammer economics (E1 foundations) -------------------------------------

TEST(Spammer, SmtpCampaignIsProfitableAtTinyResponseRates) {
  Campaign c;  // 1M messages, 1e-5 response, $25/response
  const CampaignOutcome smtp = evaluate(c, smtp_regime());
  EXPECT_GT(smtp.profit.dollars(), 0.0);
}

TEST(Spammer, SameCampaignLosesMoneyUnderZmail) {
  Campaign c;
  const CampaignOutcome zm = evaluate(c, zmail_regime());
  EXPECT_LT(zm.profit.dollars(), 0.0);
}

TEST(Spammer, SendingCostRatioIsAtLeastTwoOrdersOfMagnitude) {
  // The paper's headline claim.
  const double ratio = zmail_regime().cost_per_message.dollars() /
                       smtp_regime().cost_per_message.dollars();
  EXPECT_GE(ratio, 100.0);
}

TEST(Spammer, BreakEvenResponseRateRisesByTheSameFactor) {
  Campaign c;
  c.fixed_costs = Money::zero();  // isolate the marginal effect
  const double ratio = break_even_ratio(c);
  EXPECT_NEAR(ratio, 100.0, 1.0);
}

TEST(Spammer, BreakEvenIsExactlyBreakEven) {
  Campaign c;
  const SendingRegime r = zmail_regime();
  c.response_rate = break_even_response_rate(c, r);
  const CampaignOutcome out = evaluate(c, r);
  EXPECT_NEAR(out.profit.dollars(), 0.0, 0.01);
}

TEST(Spammer, PartialDeploymentInterpolatesCost) {
  const Money full = zmail_regime().cost_per_message;
  const Money none = smtp_regime().cost_per_message;
  const Money half = zmail_partial_regime(0.5).cost_per_message;
  EXPECT_GT(half, none);
  EXPECT_LT(half, full);
  EXPECT_EQ(zmail_partial_regime(0.0).cost_per_message, none);
  EXPECT_EQ(zmail_partial_regime(1.0).cost_per_message, full);
}

TEST(Spammer, DeliveryRateScalesRevenue) {
  Campaign c;
  SendingRegime r = smtp_regime();
  const Money rev_full = evaluate(c, r).revenue;
  r.delivery_rate = 0.5;
  EXPECT_EQ(evaluate(c, r).revenue, rev_full * 0.5);
}

TEST(Spammer, TargetedCampaignCanStillWorkUnderZmail) {
  // The paper: "incentives will favor more targeted advertising".  A 2%
  // response-rate targeted campaign clears the e-penny bar.
  Campaign c;
  c.messages = 10'000;
  c.response_rate = 0.02;
  EXPECT_GT(evaluate(c, zmail_regime()).profit.dollars(), 0.0);
}

TEST(Spammer, RoiIsNegativeWhenProfitNegative) {
  Campaign c;
  const CampaignOutcome zm = evaluate(c, zmail_regime());
  EXPECT_LT(zm.roi, 0.0);
}

TEST(Spammer, PricedRegimeScalesDeterrence) {
  Campaign c;
  c.fixed_costs = Money::zero();
  const double be_cheap = break_even_response_rate(
      c, zmail_priced_regime(Money::from_micros(1'000)));
  const double be_paper =
      break_even_response_rate(c, zmail_priced_regime(Money::from_cents(1)));
  EXPECT_NEAR(be_paper / be_cheap, 10.0, 0.01);  // linear in price
  EXPECT_EQ(zmail_priced_regime(Money::from_cents(1)).cost_per_message,
            zmail_regime().cost_per_message);
}

// --- Market equilibrium ------------------------------------------------------

TEST(Equilibrium, FreeMailMeansAllSpamSurvives) {
  CampaignPopulation pop;
  EXPECT_DOUBLE_EQ(surviving_spam_share(pop, Money::zero()), 1.0);
}

TEST(Equilibrium, SurvivalIsMonotoneDecreasingInPrice) {
  CampaignPopulation pop;
  double prev = 1.0;
  for (Money price : {Money::from_micros(10), Money::from_micros(1'000),
                      Money::from_cents(1), Money::from_cents(100)}) {
    const double share = surviving_spam_share(pop, price);
    EXPECT_LE(share, prev);
    EXPECT_GE(share, 0.0);
    prev = share;
  }
}

TEST(Equilibrium, MedianCampaignDiesAtItsBreakEvenPrice) {
  // At price = median_response * revenue, exactly half the campaign mass
  // survives (the lognormal median).
  CampaignPopulation pop;
  const double median_response = std::exp(pop.log_response_mu);
  const Money price =
      pop.revenue_per_response * median_response;
  EXPECT_NEAR(surviving_spam_share(pop, price), 0.5, 0.01);
}

TEST(Equilibrium, PaperPriceKillsAlmostAllSpam) {
  CampaignPopulation pop;
  const double share = surviving_spam_share(pop, Money::from_cents(1));
  EXPECT_LT(share, 0.05);
  EXPECT_GT(share, 0.0);  // targeted campaigns survive, as the paper wants
}

TEST(Equilibrium, PriceSearchInvertsTheCurve) {
  CampaignPopulation pop;
  const Money p90 = price_for_spam_reduction(pop, 0.10);
  EXPECT_LE(surviving_spam_share(pop, p90), 0.10);
  EXPECT_GT(surviving_spam_share(
                pop, Money::from_micros(p90.micros() / 2)),
            0.10);
  // Deeper cuts need higher prices.
  EXPECT_GT(price_for_spam_reduction(pop, 0.01), p90);
}

// --- ISP cost model (E3 foundations) ----------------------------------------

TEST(IspCost, CostGrowsWithSpamShare) {
  MessageProfile prof;
  ResourcePrices prices;
  const IspLoad clean{1'000'000, 0};
  const IspLoad spammy{1'000'000, 1'500'000};  // 60% spam
  const Money clean_cost = isp_cost(clean, prof, prices).total;
  const Money spam_cost = isp_cost(spammy, prof, prices).total;
  EXPECT_GT(spam_cost, clean_cost * std::int64_t{2});
}

TEST(IspCost, AttributableSpamCostIsMarginal) {
  MessageProfile prof;
  ResourcePrices prices;
  const IspLoad load{1'000'000, 500'000};
  const IspCostBreakdown b = isp_cost(load, prof, prices);
  const IspCostBreakdown clean =
      isp_cost({load.legit_messages, 0}, prof, prices);
  EXPECT_EQ(b.attributable_to_spam, b.total - clean.total);
}

TEST(IspCost, FilteredSpamStillCostsBandwidthAndCpu) {
  MessageProfile prof;
  ResourcePrices prices;
  const IspLoad load{0, 1'000'000};
  // Filter discards everything before storage.
  const IspCostBreakdown b = isp_cost(load, prof, prices, 0.0);
  EXPECT_GT(b.bandwidth.dollars(), 0.0);
  EXPECT_GT(b.filter_cpu.dollars(), 0.0);
  EXPECT_TRUE(b.storage.is_zero());
}

TEST(IspCost, NoFilterNoCpuCost) {
  MessageProfile prof;
  prof.filtered = false;
  const IspCostBreakdown b =
      isp_cost({1'000'000, 0}, prof, ResourcePrices{});
  EXPECT_TRUE(b.filter_cpu.is_zero());
}

TEST(IspCost, ComponentsSumToTotal) {
  const IspCostBreakdown b =
      isp_cost({123'456, 654'321}, MessageProfile{}, ResourcePrices{});
  EXPECT_EQ(b.total, b.bandwidth + b.storage + b.filter_cpu);
}

// --- Adoption dynamics (E6 foundations) --------------------------------------

TEST(Adoption, BootstrapsFromTwoIspsToMajority) {
  AdoptionParams p;
  Rng rng(77);
  const auto trace = simulate_adoption(p, rng);
  ASSERT_EQ(trace.size(), p.steps + 1);
  EXPECT_EQ(trace.front().compliant_isps, 2u);
  EXPECT_GT(trace.back().compliant_user_share, 0.9);
}

TEST(Adoption, ShareIsMonotonicallyNonDecreasing) {
  AdoptionParams p;
  Rng rng(78);
  const auto trace = simulate_adoption(p, rng);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].compliant_user_share + 1e-9,
              trace[i - 1].compliant_user_share);
}

TEST(Adoption, PositiveFeedbackAcceleratesGrowth) {
  // The S-curve: the steepest growth happens in the interior, after the
  // bootstrap phase and before saturation — the signature of the positive
  // feedback the paper predicts.
  AdoptionParams p;
  Rng rng(79);
  const auto trace = simulate_adoption(p, rng);
  double max_gain = 0.0;
  double share_at_max = 0.0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const double gain = trace[i].compliant_user_share -
                        trace[i - 1].compliant_user_share;
    if (gain > max_gain) {
      max_gain = gain;
      share_at_max = trace[i - 1].compliant_user_share;
    }
  }
  EXPECT_GT(share_at_max, trace.front().compliant_user_share + 0.01);
  EXPECT_LT(share_at_max, 0.95);
  // And growth genuinely accelerated relative to the first step.
  const double first_gain =
      trace[1].compliant_user_share - trace[0].compliant_user_share;
  EXPECT_GT(max_gain, first_gain * 1.5);
}

TEST(Adoption, CompliantUsersSeeLessSpam) {
  AdoptionParams p;
  Rng rng(80);
  const auto trace = simulate_adoption(p, rng);
  for (const auto& s : trace)
    EXPECT_LT(s.avg_spam_compliant, s.avg_spam_noncompliant);
}

TEST(Adoption, SpamConcentratesOnShrinkingFreeWorld) {
  AdoptionParams p;
  Rng rng(81);
  const auto trace = simulate_adoption(p, rng);
  EXPECT_GT(trace.back().avg_spam_noncompliant,
            trace.front().avg_spam_noncompliant);
}

// --- Legal baseline (Section 2.1) --------------------------------------------

TEST(Legal, WeakEnforcementChangesNothing) {
  LegalParams p;
  p.enforcement_prob = 0.001;  // fines are noise next to campaign profit
  const LegalOutcome o = evaluate_legal(p);
  EXPECT_EQ(o.spam_suppressed, 0.0);
  EXPECT_EQ(o.relocated, 0.0);
}

TEST(Legal, StrongEnforcementJustMovesSpammersOffshore) {
  LegalParams p;
  p.enforcement_prob = 0.5;  // staying is ruinous...
  const LegalOutcome o = evaluate_legal(p);
  EXPECT_EQ(o.relocated, 1.0);  // ...so they relocate
  EXPECT_EQ(o.spam_suppressed, 0.0);
  EXPECT_EQ(o.spam_change, 0.0);
}

TEST(Legal, SpamStopsOnlyWhenRelocationIsAlsoUnprofitable) {
  LegalParams p;
  p.enforcement_prob = 0.5;
  p.relocation_cost = Money::from_dollars(1e9);  // hypothetical wall
  const LegalOutcome o = evaluate_legal(p);
  EXPECT_EQ(o.covered_compliance, 1.0);
  // But coverage is only ~43% of origin, so most spam survives anyway.
  EXPECT_NEAR(o.spam_suppressed, 0.4253, 1e-3);
  EXPECT_GT(-o.spam_change, 0.4);
}

TEST(Legal, RegistryCanIncreaseSpam) {
  // The FTC conclusion the paper cites: the registry "would fail to reduce
  // the amount of spam consumers receive, might increase it".
  LegalParams p;
  p.registry = true;
  p.enforcement_prob = 0.05;  // realistic: staying still pays
  const LegalOutcome o = evaluate_legal(p);
  EXPECT_GT(o.spam_change, 0.0);  // net spam goes UP
}

TEST(Legal, SpamChangeIsBoundedBelow) {
  LegalParams p;
  p.covered_origin_share = 1.0;
  p.enforcement_prob = 1.0;
  p.relocation_cost = Money::from_dollars(1e12);
  const LegalOutcome o = evaluate_legal(p);
  EXPECT_GE(o.spam_change, -1.0);
  EXPECT_EQ(o.spam_suppressed, 1.0);
}

TEST(Adoption, StepsToShareNotReachedReturnsPastEnd) {
  AdoptionParams p;
  p.steps = 3;
  p.switch_rate = 0.0;  // frozen world
  Rng rng(82);
  const auto trace = simulate_adoption(p, rng);
  EXPECT_EQ(steps_to_share(trace, 0.99), trace.back().step + 1);
}

}  // namespace
}  // namespace zmail::econ
