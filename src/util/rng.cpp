#include "util/rng.hpp"

#include <cmath>

namespace zmail {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  ZMAIL_ASSERT(bound > 0);
  // Lemire's multiply-shift with rejection to remove modulo bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  ZMAIL_ASSERT(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's algorithm: multiply uniforms until below e^-mean.
    const double l = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= next_double();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation with continuity correction for large means.
  const double x = normal(mean, std::sqrt(mean));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

double Rng::exponential(double lambda) noexcept {
  ZMAIL_ASSERT(lambda > 0.0);
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::uint64_t Rng::geometric(double p) noexcept {
  ZMAIL_ASSERT(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 0.0);
  return static_cast<std::uint64_t>(std::log(u) / std::log(1.0 - p));
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) noexcept {
  ZMAIL_ASSERT(n >= 1);
  // Rejection-inversion sampling (Hormann & Derflinger style, simplified).
  // For the modest n used in workloads this is fast and exact enough.
  const double t = (std::pow(static_cast<double>(n), 1.0 - s) - s) / (1.0 - s);
  for (;;) {
    const double u = next_double() * t;
    const double x =
        (u <= 1.0) ? u : std::pow(u * (1.0 - s) + s, 1.0 / (1.0 - s));
    auto k = static_cast<std::uint64_t>(x);
    if (k < 1) k = 1;
    if (k > n) k = n;
    const double ratio = std::pow(static_cast<double>(k), -s) /
                         std::pow(x < 1.0 ? 1.0 : x, -s);
    if (next_double() <= ratio) return k;
  }
}

std::size_t Rng::weighted_choice(const std::vector<double>& weights) noexcept {
  ZMAIL_ASSERT(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    ZMAIL_ASSERT(w >= 0.0);
    total += w;
  }
  if (total <= 0.0) return next_below(weights.size());
  double x = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::split() noexcept {
  return Rng(next_u64() ^ 0x9E3779B97F4A7C15ULL);
}

}  // namespace zmail
