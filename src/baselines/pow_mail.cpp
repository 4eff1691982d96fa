#include "baselines/pow_mail.hpp"

#include <cmath>

namespace zmail::baselines {

double PowMailer::expected_attempts() const noexcept {
  return std::pow(2.0, params_.difficulty_bits);
}

double PowMailer::max_daily_rate() const noexcept {
  const double secs_per_msg = expected_attempts() / params_.sender_hash_rate;
  return secs_per_msg > 0.0 ? 86'400.0 / secs_per_msg : 0.0;
}

}  // namespace zmail::baselines
