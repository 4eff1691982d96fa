// HealthProbe layer: declarative SLO/anomaly rules evaluated over recorded
// telemetry windows.
//
// A ProbeRule names one series (by "<scope>.<name>" key), an aggregator
// over a sliding window of its most recent points, a threshold the
// aggregate breaches when it is greater, and fire/clear hysteresis in
// consecutive evaluations.  Rules are evaluated retrospectively over the
// full recorded series at export time — a pure function of the
// (deterministic) series data, so the same probe fires and clears at the
// same sim-times on every replay of a seed.  The ProbeReport records every
// transition; it is what auditors and CI assert on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/series.hpp"
#include "util/json.hpp"

namespace zmail::telemetry {

enum class Agg : std::uint8_t {
  kLast,         // newest point in the window
  kMax,          // largest point in the window
  kSlopePerSec,  // (last - first) / elapsed seconds across the window
};

const char* agg_name(Agg a) noexcept;

struct ProbeRule {
  std::string name;    // "wal_backlog_growth", "conservation_drift", ...
  std::string series;  // target key, e.g. "store.bank.wal_backlog_records"
  Agg agg = Agg::kLast;
  double threshold = 0.0;     // breached when the aggregate is greater
  std::size_t window = 5;     // points per evaluation (>= 1)
  std::size_t fire_for = 2;   // consecutive breaches before firing
  std::size_t clear_for = 2;  // consecutive OKs before clearing
};

struct ProbeTransition {
  std::int64_t t_us = 0;
  bool fired = false;  // true: OK -> FIRING, false: FIRING -> OK
  double value = 0.0;  // aggregate that crossed (or recrossed) the line
};

struct ProbeStatus {
  ProbeRule rule;
  bool evaluated = false;  // the target series existed and had points
  bool firing = false;     // state after the last point
  std::uint64_t evaluations = 0;
  std::uint64_t breaches = 0;
  double last_value = 0.0;
  std::vector<ProbeTransition> transitions;

  std::uint64_t times_fired() const noexcept {
    std::uint64_t n = 0;
    for (const auto& t : transitions) n += t.fired ? 1 : 0;
    return n;
  }
};

struct ProbeReport {
  std::vector<ProbeStatus> probes;

  // Healthy = none of the evaluated probes is currently firing.  Rules
  // whose series never materialized (a facade without that signal, e.g.
  // no latency histograms on federated worlds) count as "no data", not
  // failure — evaluated_count() exposes them for stricter auditors.
  bool ok() const noexcept {
    for (const auto& p : probes)
      if (p.firing) return false;
    return true;
  }
  std::size_t firing_count() const noexcept {
    std::size_t n = 0;
    for (const auto& p : probes) n += p.firing ? 1 : 0;
    return n;
  }
  std::size_t evaluated_count() const noexcept {
    std::size_t n = 0;
    for (const auto& p : probes) n += p.evaluated ? 1 : 0;
    return n;
  }
};

// Evaluates one rule against one series (exposed for unit tests).
ProbeStatus evaluate_rule(const ProbeRule& rule, const Series& s);

// Evaluates the stock rule set over the recorded series (see file comment):
// WAL backlog growth per durable party, conservation-gap drift, and
// delivery latency p99.  A rule pattern with a '*' yields one status per
// matching series, in series order; a rule whose series never registered
// reports one status with evaluated == false.
ProbeReport evaluate_probes(const std::vector<Series>& series);

json::Value to_json(const ProbeReport& report);

}  // namespace zmail::telemetry
