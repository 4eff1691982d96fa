#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace zmail {

void OnlineStats::add(double x) noexcept {
  ++n_;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& o) noexcept {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double d = o.mean_ - mean_;
  const auto n = static_cast<double>(n_ + o.n_);
  m2_ += o.m2_ + d * d * static_cast<double>(n_) *
                     static_cast<double>(o.n_) / n;
  mean_ += d * static_cast<double>(o.n_) / n;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double Sample::percentile(double p) const {
  ZMAIL_ASSERT(!xs_.empty());
  std::vector<double> s = xs_;
  std::sort(s.begin(), s.end());
  const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return s[lo] + frac * (s[hi] - s[lo]);
}

double Sample::mean() const {
  return xs_.empty() ? 0.0 : sum() / static_cast<double>(xs_.size());
}

double Sample::sum() const {
  double t = 0.0;
  for (double x : xs_) t += x;
  return t;
}

double Sample::min() const {
  ZMAIL_ASSERT(!xs_.empty());
  return *std::min_element(xs_.begin(), xs_.end());
}

double Sample::max() const {
  ZMAIL_ASSERT(!xs_.empty());
  return *std::max_element(xs_.begin(), xs_.end());
}

json::Value to_json(const OnlineStats& s) {
  json::Value j = json::Value::object();
  j["count"] = s.count();
  j["mean"] = s.mean();
  j["stddev"] = s.stddev();
  j["min"] = s.min();
  j["max"] = s.max();
  j["sum"] = s.sum();
  return j;
}

json::Value to_json(const Sample& s) {
  json::Value j = json::Value::object();
  j["count"] = static_cast<std::uint64_t>(s.size());
  if (!s.empty()) {
    j["mean"] = s.mean();
    j["min"] = s.min();
    j["max"] = s.max();
    j["p50"] = s.percentile(50);
    j["p90"] = s.percentile(90);
    j["p99"] = s.percentile(99);
  }
  return j;
}

}  // namespace zmail
