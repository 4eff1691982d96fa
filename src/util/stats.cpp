#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

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

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  ZMAIL_ASSERT(hi > lo && buckets > 0);
}

void Histogram::add(double x) noexcept {
  std::size_t i;
  if (x < lo_) {
    i = 0;
  } else if (x >= hi_) {
    i = counts_.size() - 1;
  } else {
    i = static_cast<std::size_t>((x - lo_) / width_);
    if (i >= counts_.size()) i = counts_.size() - 1;
  }
  ++counts_[i];
  ++total_;
}

void Histogram::merge(const Histogram& o) noexcept {
  ZMAIL_ASSERT_MSG(same_shape(o), "histogram merge requires identical shape");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  total_ += o.total_;
}

double Histogram::percentile(double p) const noexcept {
  if (total_ == 0) return lo_;
  p = std::clamp(p, 0.0, 100.0);
  const double target = static_cast<double>(total_) * p / 100.0;
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      // Linear interpolation within the bucket.
      const double prev = cum - static_cast<double>(counts_[i]);
      const double frac =
          counts_[i] ? (target - prev) / static_cast<double>(counts_[i]) : 0.0;
      return bucket_lo(i) + frac * width_;
    }
  }
  return hi_;
}

double Histogram::bucket_lo(std::size_t i) const noexcept {
  return lo_ + width_ * static_cast<double>(i);
}
double Histogram::bucket_hi(std::size_t i) const noexcept {
  return bucket_lo(i) + width_;
}

std::string Histogram::ascii(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    std::snprintf(line, sizeof line, "%10.3f..%-10.3f |", bucket_lo(i),
                  bucket_hi(i));
    out += line;
    out.append(bar, '#');
    std::snprintf(line, sizeof line, " %llu\n",
                  static_cast<unsigned long long>(counts_[i]));
    out += line;
  }
  return out;
}

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

json::Value to_json(const Histogram& h) {
  json::Value j = json::Value::object();
  j["lo"] = h.lo();
  j["hi"] = h.hi();
  j["total"] = h.total();
  j["p50"] = h.percentile(50);
  j["p90"] = h.percentile(90);
  j["p99"] = h.percentile(99);
  json::Value& counts = j["counts"];
  counts = json::Value::array();
  for (std::uint64_t c : h.buckets()) counts.push_back(c);
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
