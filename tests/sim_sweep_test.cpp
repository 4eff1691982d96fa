#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace zmail::sweep {
namespace {

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(derive_seed(42, 0, 0), derive_seed(42, 0, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull}) {
    for (std::uint64_t point = 0; point < 8; ++point) {
      for (std::uint64_t rep = 0; rep < 8; ++rep) {
        seen.insert(derive_seed(base, point, rep));
      }
    }
  }
  // 3 * 8 * 8 distinct triples must map to distinct seeds.
  EXPECT_EQ(seen.size(), 192u);
}

TEST(DeriveSeed, AdjacentInputsDiverge) {
  // Low-entropy neighbouring triples must not give neighbouring seeds.
  const std::uint64_t a = derive_seed(42, 0, 0);
  const std::uint64_t b = derive_seed(42, 0, 1);
  const std::uint64_t c = derive_seed(43, 0, 0);
  EXPECT_GT(a > b ? a - b : b - a, 1u << 20);
  EXPECT_GT(a > c ? a - c : c - a, 1u << 20);
}

TEST(MetricBag, MergeUnionsByName) {
  MetricBag a, b;
  a.stat("x").add(1.0);
  a.count("n", 2.0);
  b.stat("x").add(3.0);
  b.stat("only_b").add(7.0);
  b.count("n", 1.0);
  b.count("only_b_counter", 5.0);
  a.merge(b);
  EXPECT_EQ(a.find_stat("x")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.find_stat("x")->sum(), 4.0);
  EXPECT_EQ(a.find_stat("only_b")->count(), 1u);
  EXPECT_DOUBLE_EQ(a.counter("n"), 3.0);
  EXPECT_DOUBLE_EQ(a.counter("only_b_counter"), 5.0);
  EXPECT_DOUBLE_EQ(a.counter("absent"), 0.0);
}

// A replica function whose result depends only on (point, seed): a short
// deterministic PRNG walk.
MetricBag walk_replica(const Point& pt, std::uint64_t seed) {
  Rng rng(seed);
  MetricBag bag;
  const int n = static_cast<int>(pt.param("steps", 50));
  for (int i = 0; i < n; ++i) bag.stat("value").add(rng.normal(0.0, 1.0));
  bag.count("steps", n);
  return bag;
}

TEST(SweepRun, OneThreadAndFourThreadsBitIdentical) {
  const std::vector<Point> grid = {
      {"a", {{"steps", 40}}},
      {"b", {{"steps", 90}}},
  };
  SweepOptions serial;
  serial.base_seed = 1234;
  serial.replicas = 6;
  serial.threads = 1;
  SweepOptions parallel = serial;
  parallel.threads = 4;

  const auto fn = [](const Point& pt, std::uint64_t seed, std::size_t) {
    return walk_replica(pt, seed);
  };
  const SweepResult r1 = run(grid, serial, fn);
  const SweepResult r4 = run(grid, parallel, fn);

  ASSERT_EQ(r1.points.size(), 2u);
  ASSERT_EQ(r4.points.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const MetricBag& m1 = r1.points[i].merged;
    const MetricBag& m4 = r4.points[i].merged;
    // Exact equality, not tolerance: the harness merges slots in replica
    // order behind a barrier, so thread count must not matter at all.
    const OnlineStats* s1 = m1.find_stat("value");
    const OnlineStats* s4 = m4.find_stat("value");
    ASSERT_NE(s1, nullptr);
    ASSERT_NE(s4, nullptr);
    EXPECT_EQ(s1->count(), s4->count());
    EXPECT_EQ(s1->mean(), s4->mean());
    EXPECT_EQ(s1->variance(), s4->variance());
    EXPECT_EQ(s1->min(), s4->min());
    EXPECT_EQ(s1->max(), s4->max());
    EXPECT_EQ(m1.counters(), m4.counters());
  }
}

TEST(SweepRun, RepeatRunsAreIdentical) {
  SweepOptions opt;
  opt.base_seed = 7;
  opt.replicas = 3;
  opt.threads = 2;
  const auto fn = [](const Point& pt, std::uint64_t seed, std::size_t) {
    return walk_replica(pt, seed);
  };
  const Point pt{"p", {{"steps", 64}}};
  const SweepResult a = run(pt, opt, fn);
  const SweepResult b = run(pt, opt, fn);
  EXPECT_EQ(a.points[0].merged.find_stat("value")->mean(),
            b.points[0].merged.find_stat("value")->mean());
}

TEST(SweepRun, ReplicaSeedsFollowDerivation) {
  SweepOptions opt;
  opt.base_seed = 99;
  opt.replicas = 4;
  opt.threads = 2;
  std::mutex mu;
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> got;
  const std::vector<Point> grid = {{"p0", {}}, {"p1", {}}};
  run(grid, opt,
      [&](const Point& pt, std::uint64_t seed, std::size_t replica) {
        const std::size_t point_index = pt.label == "p0" ? 0 : 1;
        std::lock_guard<std::mutex> lock(mu);
        got[{point_index, replica}] = seed;
        return MetricBag{};
      });
  ASSERT_EQ(got.size(), 8u);
  for (const auto& [key, seed] : got)
    EXPECT_EQ(seed, derive_seed(99, key.first, key.second));
}

// `points` grid points, each carrying its own index as a parameter.
std::vector<Point> grid_of(std::size_t points) {
  std::vector<Point> grid;
  for (std::size_t p = 0; p < points; ++p)
    grid.push_back(
        {"p" + std::to_string(p), {{"index", static_cast<double>(p)}}});
  return grid;
}

TEST(SweepRun, EveryTaskRunsExactlyOnce) {
  // (points, replicas): 0, 1, 3 and 64 tasks; 64 splits as 8 x 8.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 1}, {1, 1}, {3, 1}, {1, 3}, {8, 8}};
  for (const auto& [points, replicas] : shapes) {
    for (std::size_t threads : {1u, 2u, 4u}) {
      const std::size_t n = points * replicas;
      SCOPED_TRACE(testing::Message() << "tasks " << n << " threads "
                                      << threads);
      std::vector<std::atomic<int>> hits(n);
      SweepOptions opt;
      opt.replicas = replicas;
      opt.threads = threads;
      const SweepResult r =
          run(grid_of(points), opt,
              [&](const Point& pt, std::uint64_t, std::size_t replica) {
                const auto p = static_cast<std::size_t>(pt.param("index"));
                hits[p * replicas + replica].fetch_add(1);
                MetricBag bag;
                bag.count("ran");
                return bag;
              });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
      EXPECT_DOUBLE_EQ(r.total_counter("ran"), static_cast<double>(n));
      EXPECT_EQ(r.points.size(), points);
      EXPECT_EQ(r.threads, threads);  // reported even when threads > tasks
    }
  }
}

TEST(SweepRun, ZeroThreadsMeansHardwareConcurrency) {
  SweepOptions opt;
  opt.replicas = 2;
  opt.threads = 0;
  const SweepResult r = run(Point{"p", {}}, opt,
                            [](const Point&, std::uint64_t, std::size_t) {
                              return MetricBag{};
                            });
  const std::size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(r.threads, hw == 0 ? 1u : hw);
}

TEST(SweepRun, ResultMetadataAndJson) {
  SweepOptions opt;
  opt.base_seed = 5;
  opt.replicas = 2;
  opt.threads = 2;
  const SweepResult r =
      run(Point{"only", {{"steps", 10}}}, opt,
          [](const Point& pt, std::uint64_t seed, std::size_t) {
            MetricBag bag = walk_replica(pt, seed);
            bag.count("events", 10);
            return bag;
          });
  EXPECT_EQ(r.replicas, 2u);
  EXPECT_EQ(r.threads, 2u);
  EXPECT_EQ(r.base_seed, 5u);
  EXPECT_DOUBLE_EQ(r.total_counter("events"), 20.0);
  EXPECT_EQ(&r.at_label("only"), &r.points[0]);

  const json::Value j = r.to_json();
  std::string err;
  const auto parsed = json::parse(j.dump(2), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->find("replicas")->as_uint64(), 2u);
}

}  // namespace
}  // namespace zmail::sweep
