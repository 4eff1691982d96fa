// Spam-campaign economics (paper Section 1.2, claim 1).
//
// "The cost of sending spam will increase by at least two orders of
//  magnitude ... The response rate required to break even will increase
//  similarly."
//
// The model is deliberately simple — a campaign is (volume, cost/message,
// response rate, revenue/response) — because the paper's claim is about the
// *ratio* between the SMTP regime (infrastructure-amortized cost per
// message) and the Zmail regime (one e-penny per message).
#pragma once

#include <cstdint>

#include "util/money.hpp"

namespace zmail::econ {

using zmail::Money;

// Cost regimes a campaign can run under.
struct SendingRegime {
  const char* name = "";
  Money cost_per_message;      // marginal cost of one message
  double delivery_rate = 1.0;  // fraction of sent mail actually delivered
};

// Industry-figure defaults used across the benches (2004-era estimates):
// bulk SMTP spam cost is commonly cited around $0.0001/message or less;
// Zmail prices a message at exactly one e-penny ($0.01).
SendingRegime smtp_regime() noexcept;
SendingRegime zmail_regime() noexcept;
// Zmail with part of the recipient population non-compliant (mail to them
// stays free): effective cost scales with the compliant share.
SendingRegime zmail_partial_regime(double compliant_share) noexcept;

// Zmail with a non-default e-penny price (the paper assumes $0.01 "for
// simplicity"; this regime supports the price-sensitivity analysis).
SendingRegime zmail_priced_regime(Money price_per_message) noexcept;

struct Campaign {
  std::uint64_t messages = 1'000'000;
  double response_rate = 1e-5;          // buyers per delivered message
  Money revenue_per_response = Money::from_dollars(25.0);
  Money fixed_costs = Money::from_dollars(100.0);  // address list, hosting
};

struct CampaignOutcome {
  Money sending_cost;
  Money revenue;
  Money profit;     // revenue - sending - fixed
  double roi = 0.0; // profit / total cost (0 when cost is 0)
};

CampaignOutcome evaluate(const Campaign& c, const SendingRegime& r) noexcept;

// Response rate at which profit is exactly zero under regime r.
double break_even_response_rate(const Campaign& c,
                                const SendingRegime& r) noexcept;

// The paper's headline ratio: break-even response rate under Zmail divided
// by break-even under SMTP (>= 100 when the e-penny is >= 100x SMTP cost).
double break_even_ratio(const Campaign& c) noexcept;

// --- Market equilibrium: endogenous spam volume ---------------------------
//
// Real spam is a population of campaigns with wildly different response
// rates (lognormal across campaigns).  A per-message price kills exactly
// the campaigns whose response rate is below break-even, so the surviving
// spam share is the volume-weighted tail of that distribution.  This is
// the paper's "market forces will control the volume of spam" made
// quantitative.
struct CampaignPopulation {
  // ln(response rate) ~ Normal(mu, sigma).  Defaults put the median
  // campaign at 1e-5 with a heavy right tail of well-targeted campaigns.
  double log_response_mu = -11.5;  // ln(1e-5)
  double log_response_sigma = 1.5;
  Money revenue_per_response = Money::from_dollars(25.0);
};

// Fraction of spam volume still profitable at the given per-message price
// (campaign volume assumed independent of response rate).
double surviving_spam_share(const CampaignPopulation& pop,
                            Money price_per_message) noexcept;

// Price at which the surviving share drops below `target_share` (searched
// over [lo, hi]; returns hi if never reached).
Money price_for_spam_reduction(const CampaignPopulation& pop,
                               double target_share) noexcept;

}  // namespace zmail::econ
