// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components of the library draw from Rng so that every
// experiment is reproducible from a single 64-bit seed.  The core generator
// is xoshiro256** (Blackman & Vigna), seeded through SplitMix64 so that
// low-entropy seeds (0, 1, 2, ...) still yield well-mixed states.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace zmail {

// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

// xoshiro256** generator.  Copyable (cheap 32-byte state) so simulations can
// fork independent streams with `split()`.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xC0FFEE) noexcept;

  // Raw 64 uniformly random bits.
  std::uint64_t next_u64() noexcept;

  // Uniform integer in [0, bound) using Lemire rejection; bound > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double next_double() noexcept;

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  // Standard normal via Box-Muller (cached second deviate).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;

  // Lognormal with parameters of the underlying normal.
  double lognormal(double mu, double sigma) noexcept;

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  std::uint64_t poisson(double mean) noexcept;

  // Exponential with the given rate lambda (> 0).
  double exponential(double lambda) noexcept;

  // Geometric: number of failures before first success, p in (0,1].
  std::uint64_t geometric(double p) noexcept;

  // Zipf-distributed rank in [1, n] with exponent s (rejection sampling).
  std::uint64_t zipf(std::uint64_t n, double s) noexcept;

  // Pick an index according to a vector of non-negative weights.
  std::size_t weighted_choice(const std::vector<double>& weights) noexcept;

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // An independent stream; deterministic function of the current state.
  Rng split() noexcept;

  // Full generator state, for durable checkpointing: replaying a logged
  // command must consume the same deviates the original call drew, so the
  // cached Box-Muller half is part of the state, not an optimization.
  struct State {
    std::array<std::uint64_t, 4> s{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  State save_state() const noexcept {
    return State{state_, cached_normal_, has_cached_normal_};
  }
  void restore_state(const State& st) noexcept {
    state_ = st.s;
    cached_normal_ = st.cached_normal;
    has_cached_normal_ = st.has_cached_normal;
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace zmail
