#include "sim/sweep.hpp"

#include <chrono>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace zmail::sweep {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t point_index,
                          std::uint64_t replica) noexcept {
  // Three splitmix64 steps with the coordinates folded in between; the
  // golden-ratio constants decorrelate (0,0), (0,1), (1,0), ... even for
  // tiny inputs.
  std::uint64_t s = base_seed;
  splitmix64(s);
  s ^= point_index * 0x9E3779B97F4A7C15ULL;
  splitmix64(s);
  s ^= replica * 0xBF58476D1CE4E5B9ULL;
  std::uint64_t t = s;
  return splitmix64(t);
}

Histogram& MetricBag::hist(const std::string& name, double lo, double hi,
                           std::size_t buckets) {
  auto it = hists_.find(name);
  if (it == hists_.end())
    it = hists_.emplace(name, Histogram(lo, hi, buckets)).first;
  ZMAIL_ASSERT_MSG(it->second.same_shape(Histogram(lo, hi, buckets)),
                   "histogram re-declared with a different shape");
  return it->second;
}

const OnlineStats* MetricBag::find_stat(const std::string& name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : &it->second;
}

double MetricBag::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

void MetricBag::merge(const MetricBag& o) {
  for (const auto& [name, s] : o.stats_) stats_[name].merge(s);
  for (const auto& [name, h] : o.hists_) {
    const auto it = hists_.find(name);
    if (it == hists_.end())
      hists_.emplace(name, h);
    else
      it->second.merge(h);
  }
  for (const auto& [name, c] : o.counters_) counters_[name] += c;
}

json::Value MetricBag::to_json() const {
  json::Value out = json::Value::object();
  if (!counters_.empty()) {
    json::Value& c = out["counters"];
    for (const auto& [name, v] : counters_) c[name] = v;
  }
  if (!stats_.empty()) {
    json::Value& st = out["stats"];
    for (const auto& [name, s] : stats_) st[name] = zmail::to_json(s);
  }
  if (!hists_.empty()) {
    json::Value& hs = out["histograms"];
    for (const auto& [name, h] : hists_) hs[name] = zmail::to_json(h);
  }
  return out;
}

const PointResult& SweepResult::at_label(const std::string& label) const {
  for (const auto& p : points)
    if (p.point.label == label) return p;
  ZMAIL_ASSERT_MSG(false, "no sweep point with that label");
  return points.front();
}

double SweepResult::total_counter(const std::string& name) const {
  double t = 0.0;
  for (const auto& p : points) t += p.merged.counter(name);
  return t;
}

json::Value SweepResult::to_json() const {
  json::Value out = json::Value::object();
  out["base_seed"] = base_seed;
  out["replicas"] = static_cast<std::uint64_t>(replicas);
  out["threads"] = static_cast<std::uint64_t>(threads);
  out["wall_seconds"] = wall_seconds;
  const double events = total_counter("events");
  if (events > 0 && wall_seconds > 0)
    out["events_per_second"] = events / wall_seconds;
  json::Value& pts = out["points"];
  pts = json::Value::array();
  for (const auto& p : points) {
    json::Value j = json::Value::object();
    j["label"] = p.point.label;
    if (!p.point.params.empty()) {
      json::Value& pr = j["params"];
      for (const auto& [k, v] : p.point.params) pr[k] = v;
    }
    j["replicas"] = static_cast<std::uint64_t>(p.replicas);
    j["replica_seconds"] = p.replica_seconds;
    j["metrics"] = p.merged.to_json();
    pts.push_back(std::move(j));
  }
  return out;
}

SweepResult run(const std::vector<Point>& grid, const SweepOptions& options,
                const ReplicaFn& fn) {
  ZMAIL_ASSERT(options.replicas >= 1 && !grid.empty());
  const std::size_t n_points = grid.size();
  const std::size_t n_tasks = n_points * options.replicas;

  struct Slot {
    MetricBag bag;
    double seconds = 0;
  };
  std::vector<Slot> slots(n_tasks);

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t actual_threads = options.threads;
  {
    util::ThreadPool pool(options.threads);
    actual_threads = pool.size();
    pool.parallel_for(n_tasks, [&](std::size_t task) {
      const std::size_t point = task / options.replicas;
      const std::size_t replica = task % options.replicas;
      const auto r0 = std::chrono::steady_clock::now();
      slots[task].bag =
          fn(grid[point], derive_seed(options.base_seed, point, replica),
             replica);
      slots[task].seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - r0)
              .count();
    });
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  SweepResult out;
  out.wall_seconds = wall;
  out.threads = actual_threads;
  out.replicas = options.replicas;
  out.base_seed = options.base_seed;
  out.points.reserve(n_points);
  for (std::size_t p = 0; p < n_points; ++p) {
    PointResult pr;
    pr.point = grid[p];
    pr.replicas = options.replicas;
    // Fixed reduction order: replica 0, 1, 2, ... — this is what makes the
    // merged statistics independent of the thread count.
    for (std::size_t r = 0; r < options.replicas; ++r) {
      const Slot& s = slots[p * options.replicas + r];
      pr.merged.merge(s.bag);
      pr.replica_seconds += s.seconds;
    }
    out.points.push_back(std::move(pr));
  }
  return out;
}

SweepResult run(const Point& point, const SweepOptions& options,
                const ReplicaFn& fn) {
  return run(std::vector<Point>{point}, options, fn);
}

}  // namespace zmail::sweep
