// TelemetryRegistry — the per-world sampling engine.
//
// The system facade (core::ZmailSystem) registers named gauge/rate
// samplers and histogram channels at enable time, then schedules one
// read-only sampling tick per sample_period of simulated time.  The
// determinism contract mirrors zmail::trace:
//
//   - Telemetry off (the default): no registry is constructed, no events
//     are scheduled, no sampler runs — runs are bit-identical to a build
//     without telemetry.
//   - Telemetry on: the tick draws no randomness and mutates no simulation
//     state, so enabling it cannot change what the world does; it only adds
//     observation events.  Every series is sampled at sim-time stamps that
//     are multiples of sample_period, so the recorded series are a pure
//     function of the simulated world.
//   - Execution-dependent signals (event backlogs, wall-clock costs)
//     register with the engine_* variants: they stay out of the
//     deterministic section and never feed bit-identity diffs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/series.hpp"

namespace zmail::telemetry {

struct TelemetryConfig {
  bool enabled = false;
  // Sampling cadence in simulated time.  Every gauge/rate emits one point
  // per period; histogram channels emit one point per non-empty window.
  sim::Duration sample_period = sim::kMinute;
  // Non-empty: rewrite this file with the Prometheus text exposition of
  // the current values at every sampling tick (the scrape surface).
  std::string prom_path;
};

class TelemetryRegistry {
 public:
  using GaugeFn = std::function<double()>;    // instantaneous level
  using CounterFn = std::function<double()>;  // cumulative monotone counter

  // Per-series ring capacity; beyond it the ring halves its resolution.
  static constexpr std::size_t kRingCapacity = 512;

  explicit TelemetryRegistry(TelemetryConfig cfg = {});

  // --- Registration (at enable time, before the run) -----------------------
  // Samplers MUST be read-only: they may not mutate simulation state or
  // draw randomness.  `name` follows "<entity>.<signal>" ("isp3.till_micros",
  // "bank.epenny_supply") so exporters can split the entity label out.
  void add_gauge(std::string scope, std::string name, GaugeFn fn);
  void add_rate(std::string scope, std::string name, CounterFn fn);
  void add_engine_gauge(std::string scope, std::string name, GaugeFn fn);
  void add_engine_rate(std::string scope, std::string name, CounterFn fn);

  // Histogram channels (deterministic series: they record sim-time
  // latencies) are fed from hot paths via observe(); registration
  // returns the channel id.  kNoChannel observations are dropped, so call
  // sites can hold an id unconditionally and stay zero-cost when off.
  static constexpr std::size_t kNoChannel = static_cast<std::size_t>(-1);
  std::size_t add_histogram(std::string scope, std::string name);
  void observe(std::size_t channel, std::uint64_t micros) noexcept;

  // --- Sampling -------------------------------------------------------------
  // One tick: reads every sampler, flushes every non-empty histogram
  // window, stamps points with `now`.  The facade schedules this every
  // sample_period; it never mutates anything outside the registry.
  void sample(sim::SimTime now);

  const TelemetryConfig& config() const noexcept { return cfg_; }
  std::uint64_t ticks() const noexcept { return ticks_; }
  std::size_t series_count() const noexcept {
    return samplers_.size() + channels_.size();
  }

  // Owned copies of every series (deterministic and engine), points as
  // recorded.  The exporters merge these across registries.
  std::vector<Series> collect() const;

 private:
  struct Sampler {
    std::string scope, name;
    Kind kind;
    bool engine;
    std::function<double()> fn;
    double last = 0.0;  // rate: previous counter reading
    DownsamplingRing ring;
  };
  struct Channel {
    std::string scope, name;
    LogHistogram hist;
    DownsamplingRing ring;
  };

  TelemetryConfig cfg_;
  std::vector<Sampler> samplers_;
  std::vector<Channel> channels_;
  std::uint64_t ticks_ = 0;
};

}  // namespace zmail::telemetry
