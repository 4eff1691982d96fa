#include "telemetry/registry.hpp"

#include <utility>

#include "telemetry/export.hpp"
#include "util/log.hpp"

namespace zmail::telemetry {

TelemetryRegistry::TelemetryRegistry(TelemetryConfig cfg)
    : cfg_(std::move(cfg)) {
  cfg_.enabled = true;  // constructing the registry IS the opt-in
  if (cfg_.sample_period <= 0) cfg_.sample_period = sim::kMinute;
}

void TelemetryRegistry::add_gauge(std::string scope, std::string name,
                                  GaugeFn fn) {
  samplers_.push_back(Sampler{std::move(scope), std::move(name), Kind::kGauge,
                              false, std::move(fn), 0.0,
                              DownsamplingRing(Kind::kGauge, kRingCapacity)});
}

void TelemetryRegistry::add_rate(std::string scope, std::string name,
                                 CounterFn fn) {
  samplers_.push_back(Sampler{std::move(scope), std::move(name), Kind::kRate,
                              false, std::move(fn), 0.0,
                              DownsamplingRing(Kind::kRate, kRingCapacity)});
}

void TelemetryRegistry::add_engine_gauge(std::string scope, std::string name,
                                         GaugeFn fn) {
  samplers_.push_back(Sampler{std::move(scope), std::move(name), Kind::kGauge,
                              true, std::move(fn), 0.0,
                              DownsamplingRing(Kind::kGauge, kRingCapacity)});
}

void TelemetryRegistry::add_engine_rate(std::string scope, std::string name,
                                        CounterFn fn) {
  samplers_.push_back(Sampler{std::move(scope), std::move(name), Kind::kRate,
                              true, std::move(fn), 0.0,
                              DownsamplingRing(Kind::kRate, kRingCapacity)});
}

std::size_t TelemetryRegistry::add_histogram(std::string scope,
                                             std::string name) {
  channels_.push_back(Channel{std::move(scope), std::move(name),
                              LogHistogram{},
                              DownsamplingRing(Kind::kHistogram,
                                               kRingCapacity)});
  return channels_.size() - 1;
}

void TelemetryRegistry::observe(std::size_t channel,
                                std::uint64_t micros) noexcept {
  if (channel >= channels_.size()) return;  // kNoChannel and stale ids drop
  channels_[channel].hist.record(micros);
}

void TelemetryRegistry::sample(sim::SimTime now) {
  ++ticks_;
  for (Sampler& s : samplers_) {
    const double v = s.fn();
    Point p;
    p.t_us = now;
    if (s.kind == Kind::kRate) {
      p.value = v - s.last;
      s.last = v;
    } else {
      p.value = v;
    }
    s.ring.append(p);
  }
  for (Channel& c : channels_) {
    if (c.hist.empty()) continue;  // empty windows emit nothing
    c.ring.append(c.hist.flush(now));
  }
  if (!cfg_.prom_path.empty()) {
    std::string err;
    if (!write_prometheus(cfg_.prom_path, collect(), &err))
      ZMAIL_LOG(LogLevel::kWarn, "telemetry", "prometheus write failed: %s",
                err.c_str());
  }
}

std::vector<Series> TelemetryRegistry::collect() const {
  std::vector<Series> out;
  out.reserve(samplers_.size() + channels_.size());
  for (const Sampler& s : samplers_)
    out.push_back(
        Series{s.scope, s.name, s.kind, s.engine, s.ring.exported_points()});
  for (const Channel& c : channels_)
    out.push_back(Series{c.scope, c.name, Kind::kHistogram, false,
                         c.ring.exported_points()});
  return out;
}

}  // namespace zmail::telemetry
