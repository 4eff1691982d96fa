// zmail::telemetry — time-series primitives: sampled points, fixed-capacity
// downsampling rings, and windowed log-bucket histograms.
//
// Everything here is a pure function of the sample stream: appending the
// same sequence of points to two rings yields bit-identical stored series,
// no matter when or on which thread the appends ran, so a world's
// `timeseries` section diffs clean between replays of the same seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace zmail::telemetry {

// What a series measures; decides both the downsampling merge rule and the
// value a probe reads from each point.
enum class Kind : std::uint8_t {
  kGauge,      // instantaneous level; merge keeps the later value
  kRate,       // per-window delta of a monotone counter; merge sums
  kHistogram,  // per-window latency-class distribution; merge combines
};

const char* kind_name(Kind k) noexcept;

// One sampled observation.  Gauges and rates use only {t_us, value}; the
// histogram fields stay zero for them.  A histogram point's value is its
// p99.  All values are integer-valued
// doubles at sampling time (counts, micros, window deltas), so sums taken
// at export time are exact and independent of grouping order.
struct Point {
  std::int64_t t_us = 0;  // sim-time stamp: the end of the sample window
  double value = 0.0;     // gauge level or rate window delta

  // Histogram-only summary of the window's observations.
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;

  bool operator==(const Point&) const = default;
};

// Merges two consecutive points into one covering both windows, by kind.
Point merge_points(Kind k, const Point& a, const Point& b) noexcept;

// Append-only ring with a hard capacity: when full it halves its resolution
// by merging adjacent point pairs, and from then on folds every 2^level
// incoming samples into one stored point.  Long runs keep a bounded,
// progressively coarser history instead of dropping the head — and the
// stored series stays a deterministic pure function of the append stream.
class DownsamplingRing {
 public:
  explicit DownsamplingRing(Kind kind, std::size_t capacity = 512);

  void append(const Point& p);

  // The stored points (whole windows of 2^level() samples).
  const std::vector<Point>& points() const noexcept { return pts_; }
  // What an exporter shows: the stored points plus, after a compaction,
  // the partial fold of the samples since the last stored point, so a
  // rate series still sums to its counter.
  std::vector<Point> exported_points() const;
  Kind kind() const noexcept { return kind_; }
  std::size_t capacity() const noexcept { return capacity_; }
  // Each stored point currently covers 2^level() base sample windows.
  std::uint32_t level() const noexcept { return level_; }
  std::uint64_t appended() const noexcept { return appended_; }

 private:
  void compact();

  Kind kind_;
  std::size_t capacity_;
  std::vector<Point> pts_;
  std::uint32_t level_ = 0;
  std::uint64_t appended_ = 0;
  // Partial fold of the next stored point (meaningful when level_ > 0).
  std::uint32_t acc_filled_ = 0;
  Point acc_{};
};

// Power-of-two-bucket histogram for one sample window.  Hot paths call
// record() with integer microseconds; at the sampling tick the window is
// flushed into one Point {count, sum, min, max, p50, p99} and reset.
// Bucket b holds values in [2^b, 2^(b+1)); percentiles interpolate at the
// geometric midpoint (1.5 * 2^b), which is deterministic and within the
// 2x bucket resolution the latency-class series need.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t micros) noexcept;
  bool empty() const noexcept { return count_ == 0; }
  std::uint64_t count() const noexcept { return count_; }

  // Summarizes the window into a point stamped `t_us` and resets.
  Point flush(std::int64_t t_us) noexcept;

 private:
  double percentile(double p) const noexcept;  // p in [0, 100]

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// One named series, with owned points — the unit the exporters, probes, and
// zmail_top all consume.  `engine == true` marks execution-dependent series
// (event backlogs, wall-clock costs): they describe *how* the run
// executed, not the simulated world, and are excluded from the
// deterministic `timeseries` section (they export under `timeseries_engine`
// instead).
struct Series {
  std::string scope;  // "econ", "core", "sim", "store", "net", ...
  std::string name;   // "isp0.stamp_price_micros", "bank.epenny_supply", ...
  Kind kind = Kind::kGauge;
  bool engine = false;
  std::vector<Point> points;

  std::string key() const { return scope + "." + name; }
  bool operator==(const Series&) const = default;
};

// The value a probe aggregates from one point of this series (histograms
// contribute their p99; gauges and rates their value).
double probe_value(Kind k, const Point& p) noexcept;

}  // namespace zmail::telemetry
