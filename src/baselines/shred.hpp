// SHRED and Vanquish baselines (paper Section 2.3, "monetary value based
// approaches").
//
// In both schemes the *receiver* of an unwanted email triggers a payment
// from the sender to the **sender's ISP** (not to the receiver).  The paper
// lists four weaknesses, each of which this model makes measurable:
//   1. extra human effort: one explicit action per spam received;
//   2. weak motivation: the receiver is not the beneficiary, so only a
//      fraction of spam is ever reported (`report_prob`);
//   3. ISP-spammer collusion: a colluding ISP refunds its spammer;
//   4. per-message payment handling whose processing cost can exceed the
//      payment value (`handling_cost_per_payment`).
// Zmail's contrast (E5): payments are implicit and reconciled in bulk.
#pragma once

#include <cstdint>

#include "util/money.hpp"
#include "util/rng.hpp"

namespace zmail::baselines {

using zmail::Money;

struct ShredParams {
  Money payment = Money::from_cents(1);     // fine per reported message
  double report_prob = 0.3;                  // receiver bothers to click
  double human_seconds_per_report = 3.0;
  Money handling_cost_per_payment = Money::from_cents(2);  // ISP back office
  bool isp_colludes = false;                 // sender's ISP refunds spammer
};

struct ShredStats {
  std::uint64_t messages = 0;
  std::uint64_t spam_messages = 0;
  std::uint64_t reports = 0;            // receiver-triggered payments
  std::uint64_t ledger_operations = 0;  // one per individual payment
  Money spammer_paid;                   // what the spammer actually lost
  Money isp_revenue;                    // payments kept by the sender's ISP
  Money isp_handling_cost;              // cost of processing the payments
  double receiver_human_seconds = 0.0;
};

class ShredScheme {
 public:
  ShredScheme(const ShredParams& params, zmail::Rng rng)
      : params_(params), rng_(rng) {}

  // One message flows; if spam, the receiver may report it.
  void process(bool truth_spam);

  const ShredStats& stats() const noexcept { return stats_; }

 private:
  ShredParams params_;
  zmail::Rng rng_;
  ShredStats stats_;
};

// Vanquish is modelled as SHRED with a bond ("money-back guarantee"):
// payments are pre-escrowed, so reporting is cheaper for the receiver but
// handling still happens per message.
struct VanquishParams {
  ShredParams base;
  double report_prob = 0.5;  // one-click refund claim: higher participation
};

ShredParams vanquish_as_shred(const VanquishParams& p) noexcept;

}  // namespace zmail::baselines
