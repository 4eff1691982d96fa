#include "baselines/shred.hpp"

namespace zmail::baselines {

void ShredScheme::process(bool truth_spam) {
  ++stats_.messages;
  if (!truth_spam) return;
  ++stats_.spam_messages;
  if (!rng_.bernoulli(params_.report_prob)) return;

  // The receiver spends effort to trigger the payment (weakness 1 & 2).
  ++stats_.reports;
  stats_.receiver_human_seconds += params_.human_seconds_per_report;

  // One individually handled payment (weakness 4).
  ++stats_.ledger_operations;
  stats_.isp_handling_cost += params_.handling_cost_per_payment;

  if (params_.isp_colludes) {
    // Weakness 3: the ISP quietly refunds its spammer; deterrence vanishes
    // while the receiver's effort was still spent.
    return;
  }
  stats_.spammer_paid += params_.payment;
  stats_.isp_revenue += params_.payment;
}

ShredParams vanquish_as_shred(const VanquishParams& p) noexcept {
  ShredParams out = p.base;
  out.report_prob = p.report_prob;
  // Escrowed bond: the claim is one click, cheaper than SHRED's report.
  out.human_seconds_per_report = 1.0;
  return out;
}

}  // namespace zmail::baselines
