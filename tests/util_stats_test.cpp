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

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps to first bucket
  h.add(100.0);  // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[9], 2u);
}

TEST(Histogram, PercentileOnUniformFill) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(50), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(90), 90.0, 1.5);
  EXPECT_NEAR(h.percentile(10), 10.0, 1.5);
}

TEST(Histogram, EmptyPercentileIsLowerBound) {
  Histogram h(5.0, 10.0, 5);
  EXPECT_EQ(h.percentile(50), 5.0);
}

TEST(Histogram, SingleBucketPercentile) {
  Histogram h(0.0, 10.0, 1);
  h.add(3.0);
  h.add(7.0);
  // With one bucket every percentile lands inside [lo, hi].
  for (double p : {0.0, 25.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(h.percentile(p), 0.0);
    EXPECT_LE(h.percentile(p), 10.0);
  }
}

TEST(Histogram, PercentileClampsOutOfRangeArgument) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.percentile(-20.0), h.percentile(0.0));
  EXPECT_EQ(h.percentile(250.0), h.percentile(100.0));
  EXPECT_LE(h.percentile(250.0), 10.0);
}

TEST(Histogram, MergeAddsBucketwise) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.add(1.5);
  a.add(2.5);
  b.add(2.5);
  b.add(9.5);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[2], 2u);
  EXPECT_EQ(a.buckets()[9], 1u);
}

TEST(Histogram, MergeWithEmptyKeepsCounts) {
  Histogram a(0.0, 10.0, 4);
  Histogram empty(0.0, 10.0, 4);
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.total(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.total(), 1u);
}

TEST(Histogram, SameShapeDetectsMismatch) {
  Histogram a(0.0, 10.0, 4);
  EXPECT_TRUE(a.same_shape(Histogram(0.0, 10.0, 4)));
  EXPECT_FALSE(a.same_shape(Histogram(0.0, 10.0, 5)));
  EXPECT_FALSE(a.same_shape(Histogram(0.0, 20.0, 4)));
}

TEST(Histogram, BucketEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
}

TEST(Histogram, AsciiRendersEveryBucket) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.5);
  h.add(0.6);
  h.add(3.5);
  const std::string art = h.ascii(20);
  // 4 lines, hash bars present.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  EXPECT_NE(art.find('#'), std::string::npos);
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

  Histogram h(0.0, 10.0, 10);
  h.add(5.0);
  const json::Value jh = to_json(h);
  EXPECT_EQ(jh.find("total")->as_uint64(), 1u);
  EXPECT_EQ(jh.find("counts")->size(), 10u);

  Sample sample;
  const json::Value je = to_json(sample);
  EXPECT_EQ(je.find("count")->as_uint64(), 0u);
  EXPECT_EQ(je.find("mean"), nullptr);  // omitted when empty
}

}  // namespace
}  // namespace zmail
