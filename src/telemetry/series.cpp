#include "telemetry/series.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace zmail::telemetry {

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kGauge: return "gauge";
    case Kind::kRate: return "rate";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

Point merge_points(Kind k, const Point& a, const Point& b) noexcept {
  Point m;
  m.t_us = b.t_us;  // the merged point covers both windows; stamp the end
  switch (k) {
    case Kind::kGauge:
      m.value = b.value;  // later level wins: a gauge has no history
      break;
    case Kind::kRate:
      m.value = a.value + b.value;  // window deltas sum exactly (integers)
      break;
    case Kind::kHistogram: {
      m.count = a.count + b.count;
      m.sum = a.sum + b.sum;
      if (a.count == 0) {
        m.min = b.min;
        m.max = b.max;
      } else if (b.count == 0) {
        m.min = a.min;
        m.max = a.max;
      } else {
        m.min = std::min(a.min, b.min);
        m.max = std::max(a.max, b.max);
      }
      // Count-weighted blend: within the 2x bucket resolution the raw
      // percentiles already had, and deterministic.
      const double n = static_cast<double>(m.count);
      if (m.count > 0) {
        m.p50 = (a.p50 * static_cast<double>(a.count) +
                 b.p50 * static_cast<double>(b.count)) / n;
        m.p99 = (a.p99 * static_cast<double>(a.count) +
                 b.p99 * static_cast<double>(b.count)) / n;
      }
      m.value = m.p99;  // as LogHistogram::flush sets it
      break;
    }
  }
  return m;
}

DownsamplingRing::DownsamplingRing(Kind kind, std::size_t capacity)
    : kind_(kind), capacity_(capacity < 2 ? 2 : capacity & ~std::size_t{1}) {
  pts_.reserve(capacity_);
}

void DownsamplingRing::append(const Point& p) {
  ++appended_;
  if (level_ == 0) {
    pts_.push_back(p);
  } else {
    // Fold 2^level_ raw samples into one stored point.
    acc_ = acc_filled_ == 0 ? p : merge_points(kind_, acc_, p);
    if (++acc_filled_ < (1u << level_)) return;
    pts_.push_back(acc_);
    acc_filled_ = 0;
    acc_ = Point{};
  }
  if (pts_.size() >= capacity_) compact();
}

std::vector<Point> DownsamplingRing::exported_points() const {
  std::vector<Point> out;
  out.reserve(pts_.size() + 1);
  out.assign(pts_.begin(), pts_.end());
  if (acc_filled_ != 0) out.push_back(acc_);
  return out;
}

void DownsamplingRing::compact() {
  // Halve resolution: merge (0,1) -> 0, (2,3) -> 1, ...  Capacity is even,
  // so a full ring folds exactly.
  const std::size_t n = pts_.size() / 2;
  for (std::size_t i = 0; i < n; ++i)
    pts_[i] = merge_points(kind_, pts_[2 * i], pts_[2 * i + 1]);
  if (pts_.size() & 1) {
    // Odd leftover (only possible if capacity changed): keep it as the
    // partial fold of the next coarser point.
    acc_ = acc_filled_ == 0 ? pts_.back() : merge_points(kind_, pts_.back(), acc_);
    ++acc_filled_;
  }
  pts_.resize(n);
  ++level_;
}

void LogHistogram::record(std::uint64_t micros) noexcept {
  const std::size_t b =
      micros == 0 ? 0 : static_cast<std::size_t>(63 - __builtin_clzll(micros));
  ++buckets_[b];
  sum_ += micros;
  if (count_ == 0) {
    min_ = max_ = micros;
  } else {
    min_ = std::min(min_, micros);
    max_ = std::max(max_, micros);
  }
  ++count_;
}

double LogHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += static_cast<double>(buckets_[b]);
    if (cum >= target)
      return 1.5 * static_cast<double>(std::uint64_t{1} << b);
  }
  return static_cast<double>(max_);
}

Point LogHistogram::flush(std::int64_t t_us) noexcept {
  Point p;
  p.t_us = t_us;
  p.count = count_;
  p.sum = static_cast<double>(sum_);
  p.min = static_cast<double>(min_);
  p.max = static_cast<double>(max_);
  p.p50 = percentile(50);
  p.p99 = percentile(99);
  p.value = p.p99;  // convenience: single-value consumers read the p99
  for (auto& b : buckets_) b = 0;
  count_ = sum_ = min_ = max_ = 0;
  return p;
}

double probe_value(Kind k, const Point& p) noexcept {
  return k == Kind::kHistogram ? p.p99 : p.value;
}

}  // namespace zmail::telemetry
