// Streaming statistics and histograms used by benches and experiments.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace zmail {

// Welford online mean/variance with min/max tracking.
class OnlineStats {
 public:
  void add(double x) noexcept;
  void merge(const OnlineStats& o) noexcept;

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  // sample variance (n-1)
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Fixed-bucket linear histogram over [lo, hi); out-of-range values clamp to
// the edge buckets so nothing is dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  // Bucket-wise sum; both histograms must have identical bounds and bucket
  // count (the sweep harness guarantees this by constructing replica
  // histograms from one spec).
  void merge(const Histogram& o) noexcept;
  bool same_shape(const Histogram& o) const noexcept {
    return lo_ == o.lo_ && hi_ == o.hi_ && counts_.size() == o.counts_.size();
  }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }
  std::uint64_t total() const noexcept { return total_; }
  double percentile(double p) const noexcept;  // p in [0, 100]
  const std::vector<std::uint64_t>& buckets() const noexcept {
    return counts_;
  }
  double bucket_lo(std::size_t i) const noexcept;
  double bucket_hi(std::size_t i) const noexcept;

  // Multi-line ASCII rendering (for example programs).
  std::string ascii(std::size_t width = 50) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Exact percentile over a stored sample (for small/medium samples).
class Sample {
 public:
  void add(double x) { xs_.push_back(x); }
  // Concatenates the other sample's observations (order preserved:
  // ours first, then theirs — merge order therefore matters for
  // bit-identical reproduction and the sweep harness fixes it).
  void merge(const Sample& o) {
    xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end());
  }
  const std::vector<double>& values() const noexcept { return xs_; }
  std::size_t size() const noexcept { return xs_.size(); }
  bool empty() const noexcept { return xs_.empty(); }
  double percentile(double p) const;  // p in [0, 100]; sorts a copy
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;

 private:
  std::vector<double> xs_;
};

// JSON shapes shared by obs snapshots and sweep MetricBags (key order is
// part of the BENCH_*.json format).  Samples export summary percentiles,
// not raw observations: raw data can be millions of points and the
// consumers only read quantiles.
json::Value to_json(const OnlineStats& s);
json::Value to_json(const Histogram& h);
json::Value to_json(const Sample& s);

}  // namespace zmail
