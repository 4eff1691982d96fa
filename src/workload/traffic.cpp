#include "workload/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace zmail::workload {

TrafficGenerator::TrafficGenerator(core::ZmailSystem& system,
                                   const TrafficParams& params,
                                   CorpusGenerator& corpus, zmail::Rng rng)
    : system_(system), params_(params), corpus_(corpus), rng_(rng) {}

std::size_t TrafficGenerator::pick_contact_user() {
  const auto& p = system_.params();
  if (params_.zipf_popularity > 0.0) {
    // Low user indices are the celebrities.
    return static_cast<std::size_t>(
        rng_.zipf(p.users_per_isp, params_.zipf_popularity) - 1);
  }
  return rng_.next_below(p.users_per_isp);
}

void TrafficGenerator::build_contacts() {
  const auto& p = system_.params();
  contacts_.assign(p.n_isps, {});
  for (std::size_t i = 0; i < p.n_isps; ++i) {
    contacts_[i].assign(p.users_per_isp, {});
    for (std::size_t u = 0; u < p.users_per_isp; ++u) {
      auto& list = contacts_[i][u];
      for (std::size_t k = 0; k < params_.contacts_per_user; ++k) {
        UserRef c{};
        if (rng_.bernoulli(params_.local_recipient_prob)) {
          c.isp = i;
        } else {
          c.isp = rng_.next_below(p.n_isps);
        }
        c.user = pick_contact_user();
        if (c.isp == i && c.user == u) c.user = (c.user + 1) % p.users_per_isp;
        list.push_back(c);
      }
    }
  }
}

sim::Duration TrafficGenerator::sample_day_offset() {
  const auto uniform_offset = [this] {
    return static_cast<sim::Duration>(
        rng_.next_below(static_cast<std::uint64_t>(sim::kDay)));
  };
  if (!params_.diurnal) return uniform_offset();
  // Rejection sampling against 1 + A*cos(2*pi*(t - peak)/day), normalized
  // so the acceptance probability peaks at 1.
  const double amp =
      std::clamp(params_.diurnal_amplitude, 0.0, 1.0);
  for (;;) {
    const sim::Duration t = uniform_offset();
    const double hours = sim::to_seconds(t) / 3600.0;
    const double intensity =
        1.0 + amp * std::cos(2.0 * 3.14159265358979323846 *
                             (hours - params_.peak_hour) / 24.0);
    if (rng_.next_double() * (1.0 + amp) < intensity) return t;
  }
}

TrafficGenerator::UserRef TrafficGenerator::pick_recipient(
    const UserRef& sender) {
  const auto& list = contacts_.at(sender.isp).at(sender.user);
  ZMAIL_ASSERT_MSG(!list.empty(), "call build_contacts() first");
  return list[rng_.next_below(list.size())];
}

void TrafficGenerator::do_send(const UserRef& from, const UserRef& to) {
  net::EmailMessage msg = corpus_.make_message(
      net::make_user_address(from.isp, from.user),
      net::make_user_address(to.isp, to.user), net::MailClass::kLegitimate);
  system_.send_email(std::move(msg));
}

std::size_t TrafficGenerator::schedule_day() {
  const auto& p = system_.params();
  // Calibrate the lognormal so its mean equals mean_sends_per_user_day:
  // mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
  const double sigma = params_.lognormal_sigma;
  const double mu =
      std::log(params_.mean_sends_per_user_day) - sigma * sigma / 2.0;

  std::size_t scheduled = 0;
  for (std::size_t i = 0; i < p.n_isps; ++i) {
    for (std::size_t u = 0; u < p.users_per_isp; ++u) {
      const auto sends =
          static_cast<std::size_t>(rng_.poisson(rng_.lognormal(mu, sigma)));
      for (std::size_t k = 0; k < sends; ++k) {
        const UserRef from{i, u};
        const UserRef to = pick_recipient(from);
        system_.simulator().schedule_after(
            sample_day_offset(), [this, from, to] { do_send(from, to); });
        ++scheduled;
      }
    }
  }
  return scheduled;
}

std::size_t TrafficGenerator::burst(std::size_t count) {
  const auto& p = system_.params();
  for (std::size_t k = 0; k < count; ++k) {
    const UserRef from{rng_.next_below(p.n_isps),
                       rng_.next_below(p.users_per_isp)};
    do_send(from, pick_recipient(from));
  }
  return count;
}

SpamCampaignResult run_spam_campaign(core::ZmailSystem& system,
                                     const SpamCampaignParams& params,
                                     CorpusGenerator& corpus,
                                     zmail::Rng& rng) {
  const auto& p = system.params();
  SpamCampaignResult result;
  const net::EmailAddress spammer =
      net::make_user_address(params.spammer_isp, params.spammer_user);

  for (std::size_t k = 0; k < params.messages; ++k) {
    ++result.attempted;
    const std::size_t to_isp = rng.next_below(p.n_isps);
    const std::size_t to_user = rng.next_below(p.users_per_isp);
    net::EmailMessage msg = corpus.make_message(
        spammer, net::make_user_address(to_isp, to_user),
        net::MailClass::kSpam);
    if (params.evade_strength > 0.0)
      msg.body = corpus.evade(msg.body, params.evade_strength);

    const auto fire = [&system, msg]() mutable {
      system.send_email(std::move(msg));
    };
    if (params.spread_over_day) {
      // Outcome counters are only exact in immediate mode; spread mode is
      // for timing-oriented experiments.
      system.simulator().schedule_after(
          static_cast<sim::Duration>(
              rng.next_below(static_cast<std::uint64_t>(sim::kDay))),
          fire);
      ++result.sent;
      continue;
    }
    const core::SendOutcome out = system.send_email(msg);
    result.sent += out.sent;
    if (out.result == core::SendResult::kNoBalance) ++result.refused_balance;
    if (out.result == core::SendResult::kDailyLimit) ++result.refused_limit;
  }
  return result;
}

}  // namespace zmail::workload
