// Email-virus / zombie propagation model (paper Section 5).
//
// "A virus can allow a user's PC to be exploited without the user's consent
//  or even knowledge ... it could be used to send out large amounts of spam
//  at the user's expense."
//
// Infected users attempt a burst of virus mail per day; each delivered
// virus message infects its (unpatched) recipient with some probability.
// Under Zmail the per-user daily limit caps the burst, bounds the victim's
// liability, and generates detection signals (the warning message); under
// plain SMTP the burst is unbounded.
#pragma once

#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "util/rng.hpp"

namespace zmail::workload {

struct OutbreakParams {
  std::size_t initial_infected = 1;
  double infect_prob = 0.05;        // per delivered virus message
  std::size_t virus_sends_per_day = 500;  // what the zombie *tries* to send
  double patch_prob_after_warning = 0.9;  // user disinfects after warning
  std::size_t days = 14;
};

struct OutbreakDay {
  std::size_t day = 0;
  std::size_t infected = 0;
  std::uint64_t virus_sent = 0;        // accepted by ISPs this day
  std::uint64_t virus_blocked = 0;     // stopped by the daily limit
  std::uint64_t warnings = 0;          // zombie warnings issued this day
  std::int64_t epennies_drained = 0;   // victims' cumulative e-penny loss
};

class ZombieOutbreak {
 public:
  ZombieOutbreak(core::ZmailSystem& system, const OutbreakParams& params,
                 zmail::Rng rng);

  // Runs the outbreak day by day (advancing the system clock) and returns
  // one row per day.
  std::vector<OutbreakDay> run();

  std::size_t peak_infected() const noexcept { return peak_infected_; }

 private:
  void infect(std::size_t isp, std::size_t user);
  void disinfect(std::size_t isp, std::size_t user);

  core::ZmailSystem& system_;
  OutbreakParams params_;
  zmail::Rng rng_;
  std::vector<std::vector<bool>> infected_;
  std::size_t infected_count_ = 0;
  std::size_t peak_infected_ = 0;
};

}  // namespace zmail::workload
