#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace zmail {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
}

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(5);
  OnlineStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Sample, PercentileExact) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Sample, Aggregates) {
  Sample s;
  s.add(3.0);
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.size(), 3u);
}

TEST(Sample, EmptyMeanIsZero) {
  Sample s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Sample, MergeConcatenatesOursFirst) {
  Sample a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  a.merge(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.values()[0], 1.0);
  EXPECT_EQ(a.values()[1], 2.0);
  EXPECT_EQ(a.values()[2], 3.0);
  EXPECT_DOUBLE_EQ(a.sum(), 6.0);
}

TEST(StatsJson, Shapes) {
  OnlineStats s;
  s.add(1.0);
  s.add(3.0);
  const json::Value js = to_json(s);
  EXPECT_EQ(js.find("count")->as_uint64(), 2u);
  EXPECT_DOUBLE_EQ(js.find("mean")->as_double(), 2.0);

  Sample sample;
  const json::Value je = to_json(sample);
  EXPECT_EQ(je.find("count")->as_uint64(), 0u);
  EXPECT_EQ(je.find("mean"), nullptr);  // omitted when empty
}

}  // namespace
}  // namespace zmail
