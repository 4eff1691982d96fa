// zmail::sweep — the parallel experiment harness.
//
// A sweep is a grid of Points (parameter coordinates), each run `replicas`
// times with an independent deterministically-derived seed.  Replicas
// execute on up to `threads` worker threads that claim task indices from one
// shared counter; every (point, replica) writes its MetricBag into a
// pre-assigned slot and the harness reduces the slots in replica order after
// joining the workers, so the merged statistics are bit-identical regardless
// of thread count:
//
//     merged(point) = bag(point, 0).merge(bag(point, 1)) ... (point, R-1)
//
// The replica function receives its derived seed and must take all
// randomness from it (ZmailSystem's constructor seed, workload Rngs split
// from it, ...); it must not touch shared mutable state.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace zmail::sweep {

// Splitmix-based mixing of (base_seed, point_index, replica) into one
// well-dispersed 64-bit seed.  Pure function: same triple, same seed,
// forever — experiment trajectories in BENCH_*.json stay comparable
// across machines and thread counts.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t point_index,
                          std::uint64_t replica) noexcept;

// One coordinate of the parameter grid.
struct Point {
  std::string label;                    // e.g. "isps=8"
  std::map<std::string, double> params; // e.g. {"isps": 8, "users": 4}

  double param(const std::string& key, double fallback = 0.0) const {
    const auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }
};

// A mergeable bag of named metrics produced by one replica: streaming
// stats and plain additive counters.  Names are
// kept sorted (std::map) so serialization order is deterministic.
class MetricBag {
 public:
  // Creates the entry on first use.
  OnlineStats& stat(const std::string& name) { return stats_[name]; }
  void count(const std::string& name, double delta = 1.0) {
    counters_[name] += delta;
  }

  const OnlineStats* find_stat(const std::string& name) const;
  double counter(const std::string& name) const;

  const std::map<std::string, OnlineStats>& stats() const { return stats_; }
  const std::map<std::string, double>& counters() const { return counters_; }

  // Folds `o` into this bag.  Stats and counters union by name.
  void merge(const MetricBag& o);

  json::Value to_json() const;

 private:
  std::map<std::string, OnlineStats> stats_;
  std::map<std::string, double> counters_;
};

// One replica's work: given the grid point and the derived seed, run the
// experiment and return its metrics.
using ReplicaFn =
    std::function<MetricBag(const Point& point, std::uint64_t seed,
                            std::size_t replica)>;

struct SweepOptions {
  std::uint64_t base_seed = 42;
  std::size_t replicas = 1;
  std::size_t threads = 1;  // 0 = hardware concurrency
};

struct PointResult {
  Point point;
  MetricBag merged;           // replicas folded in replica order
  std::size_t replicas = 0;
  double replica_seconds = 0; // Σ per-replica wall time (CPU-cost proxy)
};

struct SweepResult {
  std::vector<PointResult> points;
  double wall_seconds = 0;    // whole-sweep wall clock
  std::size_t threads = 0;    // resolved worker count (0 never appears)
  std::size_t replicas = 0;
  std::uint64_t base_seed = 0;

  const PointResult& at_label(const std::string& label) const;
  // Total of a named counter across all points (e.g. "events" for the
  // events/sec headline).
  double total_counter(const std::string& name) const;

  json::Value to_json() const;
};

// Runs |grid| x replicas tasks on min(threads, tasks) worker threads and
// reduces deterministically.  An empty grid runs nothing.
SweepResult run(const std::vector<Point>& grid, const SweepOptions& options,
                const ReplicaFn& fn);

// Single-point convenience.
SweepResult run(const Point& point, const SweepOptions& options,
                const ReplicaFn& fn);

}  // namespace zmail::sweep
