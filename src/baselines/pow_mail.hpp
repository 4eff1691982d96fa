// Computational-cost baseline (paper Section 2.3: hashcash, Penny Black,
// "pricing via processing").
//
// Every message must carry a proof-of-work stamp for its recipient
// (crypto/hashcash.hpp solves and checks real stamps, and bench_micro_crypto
// measures their CPU cost).  The model projects that cost at a sender's
// hash rate and exposes the two drawbacks the paper names: sending becomes
// slow for everyone, and high-volume legitimate senders (ISPs, mailing
// lists) pay the most.
#pragma once

namespace zmail::baselines {

struct PowMailParams {
  int difficulty_bits = 16;
  // Hashes/second the modelled sender can afford.
  double sender_hash_rate = 2e6;
};

class PowMailer {
 public:
  explicit PowMailer(const PowMailParams& params) : params_(params) {}

  // Expected attempts per message at this difficulty (2^bits).
  double expected_attempts() const noexcept;
  // Messages/day the modelled sender can sustain.
  double max_daily_rate() const noexcept;

 private:
  PowMailParams params_;
};

}  // namespace zmail::baselines
