#include "workload/virus.hpp"

#include "util/assert.hpp"

namespace zmail::workload {

ZombieOutbreak::ZombieOutbreak(core::ZmailSystem& system,
                               const OutbreakParams& params, zmail::Rng rng)
    : system_(system), params_(params), rng_(rng) {
  const auto& p = system_.params();
  infected_.assign(p.n_isps, std::vector<bool>(p.users_per_isp, false));
  std::size_t seeded = 0;
  while (seeded < params_.initial_infected) {
    const std::size_t i = rng_.next_below(p.n_isps);
    const std::size_t u = rng_.next_below(p.users_per_isp);
    if (!p.is_compliant(i) || infected_[i][u]) continue;
    infect(i, u);
    ++seeded;
  }
}

void ZombieOutbreak::infect(std::size_t isp, std::size_t user) {
  if (infected_[isp][user]) return;
  infected_[isp][user] = true;
  ++infected_count_;
  peak_infected_ = std::max(peak_infected_, infected_count_);
}

void ZombieOutbreak::disinfect(std::size_t isp, std::size_t user) {
  if (!infected_[isp][user]) return;
  infected_[isp][user] = false;
  --infected_count_;
}

std::vector<OutbreakDay> ZombieOutbreak::run() {
  const auto& p = system_.params();
  std::vector<OutbreakDay> days;
  std::int64_t drained_total = 0;

  for (std::size_t day = 0; day < params_.days; ++day) {
    OutbreakDay row;
    row.day = day;

    std::uint64_t warnings_before = 0;
    for (std::size_t i = 0; i < p.n_isps; ++i)
      if (p.is_compliant(i))
        warnings_before += system_.isp(i).metrics().zombie_warnings_sent;

    // Each zombie fires its daily burst at random recipients.
    std::vector<std::pair<std::size_t, std::size_t>> newly_infected;
    for (std::size_t i = 0; i < p.n_isps; ++i) {
      if (!p.is_compliant(i)) continue;
      for (std::size_t u = 0; u < p.users_per_isp; ++u) {
        if (!infected_[i][u]) continue;
        for (std::size_t k = 0; k < params_.virus_sends_per_day; ++k) {
          const std::size_t ti = rng_.next_below(p.n_isps);
          const std::size_t tu = rng_.next_below(p.users_per_isp);
          net::EmailMessage msg = net::make_email(
              net::make_user_address(i, u), net::make_user_address(ti, tu),
              "wphotos attached", "wopen wthe wattachment zxnow",
              net::MailClass::kVirus);
          const core::SendOutcome out = system_.send_email(std::move(msg));
          if (out.sent == 0) {
            ++row.virus_blocked;
            if (out.result != core::SendResult::kNoBalance)
              break;  // blocked today
            continue;
          }
          ++row.virus_sent;
          drained_total += 1;  // one e-penny per accepted paid message
          if (p.is_compliant(ti) && rng_.bernoulli(params_.infect_prob))
            newly_infected.emplace_back(ti, tu);
        }
      }
    }

    // Let the day's mail flow, then apply end-of-day effects.
    system_.run_for(sim::kDay);
    for (std::size_t i = 0; i < p.n_isps; ++i)
      if (p.is_compliant(i)) system_.isp(i).end_of_day();

    // Warned users disinfect with high probability (the paper's "new
    // mechanism for detecting, limiting, and disinfecting zombie PCs").
    std::uint64_t warnings_after = 0;
    for (std::size_t i = 0; i < p.n_isps; ++i)
      if (p.is_compliant(i))
        warnings_after += system_.isp(i).metrics().zombie_warnings_sent;
    row.warnings = warnings_after - warnings_before;

    for (std::size_t i = 0; i < p.n_isps; ++i) {
      if (!p.is_compliant(i)) continue;
      for (std::size_t u = 0; u < p.users_per_isp; ++u) {
        if (infected_[i][u] && system_.isp(i).user(u).warnings > 0 &&
            rng_.bernoulli(params_.patch_prob_after_warning))
          disinfect(i, u);
      }
    }
    for (auto& [ti, tu] : newly_infected) infect(ti, tu);

    row.infected = infected_count_;
    row.epennies_drained = drained_total;
    days.push_back(row);
  }
  return days;
}

}  // namespace zmail::workload
