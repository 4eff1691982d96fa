#include "econ/spammer.hpp"

#include <algorithm>
#include <cmath>

namespace zmail::econ {

SendingRegime smtp_regime() noexcept {
  // ~$100 per million messages: botnet/bulk-host rates circa the paper.
  return SendingRegime{"smtp", Money::from_micros(100), 1.0};
}

SendingRegime zmail_regime() noexcept {
  return SendingRegime{"zmail", Money::from_epennies(1), 1.0};
}

SendingRegime zmail_partial_regime(double compliant_share) noexcept {
  if (compliant_share < 0.0) compliant_share = 0.0;
  if (compliant_share > 1.0) compliant_share = 1.0;
  // Mail to the compliant share costs an e-penny; the rest rides free SMTP.
  const Money blended =
      Money::from_epennies(1) * compliant_share +
      Money::from_micros(100) * (1.0 - compliant_share);
  return SendingRegime{"zmail-partial", blended, 1.0};
}

SendingRegime zmail_priced_regime(Money price_per_message) noexcept {
  return SendingRegime{"zmail-priced", price_per_message, 1.0};
}

CampaignOutcome evaluate(const Campaign& c, const SendingRegime& r) noexcept {
  CampaignOutcome out;
  out.sending_cost =
      r.cost_per_message * static_cast<std::int64_t>(c.messages);
  const double delivered =
      static_cast<double>(c.messages) * r.delivery_rate;
  const double responses = delivered * c.response_rate;
  out.revenue = c.revenue_per_response * responses;
  out.profit = out.revenue - out.sending_cost - c.fixed_costs;
  const Money total_cost = out.sending_cost + c.fixed_costs;
  out.roi = total_cost.is_zero()
                ? 0.0
                : out.profit.dollars() / total_cost.dollars();
  return out;
}

double break_even_response_rate(const Campaign& c,
                                const SendingRegime& r) noexcept {
  const double delivered = static_cast<double>(c.messages) * r.delivery_rate;
  if (delivered <= 0.0 || c.revenue_per_response.is_zero()) return 0.0;
  const Money total_cost =
      r.cost_per_message * static_cast<std::int64_t>(c.messages) +
      c.fixed_costs;
  return total_cost.dollars() /
         (delivered * c.revenue_per_response.dollars());
}

double break_even_ratio(const Campaign& c) noexcept {
  const double smtp = break_even_response_rate(c, smtp_regime());
  const double zm = break_even_response_rate(c, zmail_regime());
  return smtp > 0.0 ? zm / smtp : 0.0;
}

double surviving_spam_share(const CampaignPopulation& pop,
                            Money price_per_message) noexcept {
  // A campaign survives iff response_rate * revenue > price, i.e.
  // ln(r) > ln(price / revenue).  With ln(r) ~ N(mu, sigma), the surviving
  // share is the Gaussian upper tail.
  if (price_per_message.micros() <= 0) return 1.0;
  const double threshold =
      std::log(price_per_message.dollars() / pop.revenue_per_response.dollars());
  const double z = (threshold - pop.log_response_mu) / pop.log_response_sigma;
  // Upper tail via the complementary error function.
  return 0.5 * std::erfc(z / std::sqrt(2.0));
}

Money price_for_spam_reduction(const CampaignPopulation& pop,
                               double target_share) noexcept {
  // Bisection over micro-dollar prices in [1 micro, $1].
  std::int64_t lo = 1, hi = Money::kMicrosPerDollar;
  if (surviving_spam_share(pop, Money::from_micros(hi)) > target_share)
    return Money::from_micros(hi);
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (surviving_spam_share(pop, Money::from_micros(mid)) <= target_share)
      hi = mid;
    else
      lo = mid + 1;
  }
  return Money::from_micros(lo);
}

}  // namespace zmail::econ

