#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace zmail {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, LowEntropySeedsAreWellMixed) {
  // Seeds 0 and 1 must not produce correlated output (SplitMix seeding).
  Rng a(0), b(1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, NormalWithParamsScalesCorrectly) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, LognormalMeanMatchesTheory) {
  Rng rng(31);
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
  const double mu = 1.0, sigma = 0.5;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, sigma);
  EXPECT_NEAR(sum / n, std::exp(mu + sigma * sigma / 2), 0.08);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(37);
  for (double mean : {0.5, 3.0, 30.0, 200.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
      sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng(41);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ZipfStaysInRangeAndFavorsLowRanks) {
  Rng rng(59);
  std::uint64_t low = 0, total = 20000;
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t r = rng.zipf(100, 1.2);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 100u);
    if (r <= 10) ++low;
  }
  // Zipf(1.2) concentrates most of the mass in the first decile.
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(total), 0.5);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(71);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(73);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  const std::vector<int> orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // probability of identity is astronomically small
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng a(99);
  Rng a2(99);
  Rng c1 = a.split();
  Rng c2 = a2.split();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
  // Parent and child diverge.
  Rng parent(99);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (parent.next_u64() == child.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitmixIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

// Chi-squared sanity sweep over next_below bounds.
class RngUniformityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformityTest, NextBelowIsRoughlyUniform) {
  const std::uint64_t k = GetParam();
  Rng rng(1000 + k);
  std::vector<std::uint64_t> counts(k, 0);
  const std::uint64_t n = 2000 * k;
  for (std::uint64_t i = 0; i < n; ++i) ++counts[rng.next_below(k)];
  const double expected = static_cast<double>(n) / static_cast<double>(k);
  double chi2 = 0.0;
  for (auto c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // df = k-1; a generous 5-sigma-ish bound: df + 5*sqrt(2 df).
  const double df = static_cast<double>(k - 1);
  EXPECT_LT(chi2, df + 5.0 * std::sqrt(2.0 * df) + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngUniformityTest,
                         ::testing::Values(2, 3, 7, 10, 64, 100));

}  // namespace
}  // namespace zmail
